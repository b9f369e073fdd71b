package main

import (
	"fmt"
	"reflect"
	"time"

	"jsymphony"
	"jsymphony/internal/codebase"
	"jsymphony/internal/rmi"
	"jsymphony/internal/sched"
	"jsymphony/internal/vclock"
)

// The probes time one layer's public function in isolation, on the
// workload's own values.  Each repeats its loop probeReps times and
// reports the median ns/op; allocations are counted over all reps.
const probeReps = 5

// timed runs fn(n) probeReps times and returns the median ns per
// operation and the mean allocations per operation.
func timed(n int, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	per := make([]float64, probeReps)
	m0 := mallocs()
	for r := range per {
		t0 := time.Now()
		fn(n)
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per), float64(mallocs()-m0) / float64(n*probeReps)
}

// vclockProbes measures the simulator kernel: the handoff between two
// actors alternately sleeping, and a mailbox Put→Get round trip.
func vclockProbes() map[string]float64 {
	const n = 20000
	handoff, handoffAllocs := timed(n, func(n int) {
		c := vclock.New()
		c.Spawn("pong", func(a *vclock.Actor) {
			a.Sleep(time.Microsecond)
			for i := 0; i < n/2; i++ {
				a.Sleep(2 * time.Microsecond)
			}
		})
		a := c.Adopt("ping")
		for i := 0; i < n/2; i++ {
			a.Sleep(2 * time.Microsecond)
		}
		a.Done()
		c.Run()
	})
	mailbox, _ := timed(n, func(n int) {
		c := vclock.New()
		ping := vclock.NewMailbox(c, "ping")
		pong := vclock.NewMailbox(c, "pong")
		c.Spawn("ponger", func(a *vclock.Actor) {
			for i := 0; i < n; i++ {
				v, _ := a.Get(ping)
				pong.Put(v, time.Microsecond)
			}
		})
		a := c.Adopt("pinger")
		for i := 0; i < n; i++ {
			ping.Put(i, time.Microsecond)
			a.Get(pong)
		}
		a.Done()
		c.Run()
	})
	return map[string]float64{
		"vclock.handoff_ns":     handoff,
		"vclock.handoff_allocs": handoffAllocs,
		"vclock.mailbox_ns":     mailbox,
	}
}

// stationProbe times rmi.Station.Call between two stations on an
// in-process network with instant delivery; the handler echoes body.
func stationProbe(body []byte) map[string]float64 {
	s := sched.Real()
	net := rmi.NewMem(s, 0)
	epA, _ := net.Attach("probe-a")
	epB, _ := net.Attach("probe-b")
	a, b := rmi.NewStation(s, epA), rmi.NewStation(s, epB)
	b.Register("echo", func(p sched.Proc, from, method string, in []byte) ([]byte, error) {
		return in, nil
	})
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()
	p := sched.RealProc(s)
	ns, allocs := timed(4000, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.Call(p, "probe-b", "echo", "m", body, time.Second); err != nil {
				panic(fmt.Sprintf("perfbench: station probe: %v", err))
			}
		}
	})
	return map[string]float64{"rmi.call_ns": ns, "rmi.call_allocs": allocs}
}

// wireProbe times rmi.Marshal and rmi.Unmarshal over the given values
// (each counted once per round) and reports the share of bodies that
// took the gob fallback.
func wireProbe(values []any, rounds int) map[string]float64 {
	bodies := make([][]byte, len(values))
	gob, size := 0, 0
	for i, v := range values {
		b, err := rmi.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("perfbench: wire probe marshal %T: %v", v, err))
		}
		bodies[i] = b
		size += len(b)
		if b[0] == rmi.FormatGob {
			gob++
		}
	}
	msgs := rounds * len(values)
	enc, encAllocs := timed(msgs, func(int) {
		for r := 0; r < rounds; r++ {
			for _, v := range values {
				if _, err := rmi.Marshal(v); err != nil {
					panic(err)
				}
			}
		}
	})
	dec, decAllocs := timed(msgs, func(int) {
		for r := 0; r < rounds; r++ {
			for i, v := range values {
				into := reflect.New(reflect.TypeOf(v)).Interface()
				if err := rmi.Unmarshal(bodies[i], into); err != nil {
					panic(fmt.Sprintf("perfbench: wire probe unmarshal %T: %v", v, err))
				}
			}
		}
	})
	return map[string]float64{
		"wire.encode_ns":      enc,
		"wire.decode_ns":      dec,
		"wire.allocs_per_msg": encAllocs + decAllocs,
		"wire.bytes_per_msg":  float64(size) / float64(len(values)),
		"wire.gob_share":      float64(gob) / float64(len(values)),
	}
}

// call is one invocation of a workload's mix.
type call struct {
	obj    any
	method string
	args   []any
}

// dispatchProbe times codebase.Invoke over the mix, with the *Ctx first
// argument the runtime injects for methods that declare one.
func dispatchProbe(mix []call, rounds int) map[string]float64 {
	ctx := &jsymphony.Ctx{}
	full := make([]call, len(mix))
	for i, c := range mix {
		args := c.args
		if m := reflect.ValueOf(c.obj).MethodByName(c.method); m.IsValid() && m.Type().NumIn() > 0 &&
			m.Type().In(0) == reflect.TypeOf(ctx) {
			args = append([]any{ctx}, args...)
		}
		full[i] = call{c.obj, c.method, args}
	}
	ns, allocs := timed(rounds*len(full), func(int) {
		for r := 0; r < rounds; r++ {
			for _, c := range full {
				if _, err := codebase.Invoke(c.obj, c.method, c.args); err != nil {
					panic(fmt.Sprintf("perfbench: dispatch probe %s: %v", c.method, err))
				}
			}
		}
	})
	return map[string]float64{"codebase.dispatch_ns": ns, "codebase.dispatch_allocs": allocs}
}

// merge copies every entry of the maps into one.
func merge(ms ...map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
