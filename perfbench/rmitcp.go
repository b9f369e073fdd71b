package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"jsymphony"
	"jsymphony/internal/metrics"
	"jsymphony/internal/rmi"
	"jsymphony/workloads/kv"
)

// rmi-tcp: real time.  A 2-node TCP environment over loopback with two
// closed-loop callers, each waiting for its reply before the next call.
// Each caller invokes Get and Put on its own remote kv.Store over its own
// key set, plus a share of 16 KiB Echo bodies on a remote Blob.  It
// bypasses vclock and simnet entirely; the rmi TCP framing, the wire
// codec, codebase dispatch and core invocation show directly.

const (
	tcpCallers   = 2
	tcpKeys      = 64
	tcpSchedule  = 4096 // generated operations per caller, replayed cyclically
	tcpEchoShare = 0.10
	tcpEchoBytes = 16 << 10
	tcpBatch     = 1000 // calls per makespan sample
	tcpSetups    = 15   // set-ups per run; setup_s is their median
	tcpLimit     = time.Millisecond
	blobClass    = "perfbench.Blob"
)

var tcpNodes = []string{"tcp-0", "tcp-1"}

func init() {
	jsymphony.RegisterClass(blobClass, 1024, func() any { return &Blob{} })
}

// Blob echoes bodies: the large-payload half of the rmi-tcp mix.
type Blob struct{ Calls int }

// Echo returns its argument.
func (b *Blob) Echo(body []byte) []byte { return body }

// tcpOp is one generated call.
type tcpOp struct {
	kind byte // 'g' Get, 'p' Put, 'e' Echo
	key  string
}

// tcpSchedules generates each caller's operation schedule from the seed.
func tcpSchedules(seed int64) [][]tcpOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]tcpOp, tcpCallers)
	for c := range out {
		out[c] = make([]tcpOp, tcpSchedule)
		for i := range out[c] {
			op := tcpOp{key: fmt.Sprintf("c%d-k%03d", c, rng.Intn(tcpKeys))}
			switch u := rng.Float64(); {
			case u < tcpEchoShare:
				op.kind = 'e'
			case u < tcpEchoShare+(1-tcpEchoShare)/2:
				op.kind = 'g'
			default:
				op.kind = 'p'
			}
			out[c][i] = op
		}
	}
	return out
}

// tcpCaller is one closed-loop caller's session and objects.
type tcpCaller struct {
	js          *jsymphony.JS
	store, blob *jsymphony.Object
}

// tcpInstall is one set-up installation.
type tcpInstall struct {
	env     *jsymphony.Env
	callers []*tcpCaller
}

func (in *tcpInstall) close() {
	for _, c := range in.callers {
		c.js.Unregister()
	}
	in.env.Shutdown()
}

// tcpSetup builds the installation: environment, sessions, node
// allocation once the agents have reported, codebase load and objects.
func tcpSetup(tr *tracer, root uint64) (*tcpInstall, error) {
	sp := tr.begin("env", root, 0)
	env := jsymphony.NewTCPEnv(tcpNodes, jsymphony.EnvOptions{NAS: jsymphony.NASConfig{
		MonitorPeriod: 50 * time.Millisecond,
		FailTimeout:   2 * time.Second,
		CallTimeout:   2 * time.Second,
	}})
	env.Start()
	in := &tcpInstall{env: env}
	for c := 0; c < tcpCallers; c++ {
		js, err := env.Attach(tcpNodes[0])
		if err != nil {
			tr.end(sp)
			in.close()
			return nil, err
		}
		in.callers = append(in.callers, &tcpCaller{js: js})
	}
	tr.end(sp)

	sp = tr.begin("alloc", root, 0)
	js := in.callers[0].js
	var node *jsymphony.Node
	var err error
	for deadline := time.Now().Add(10 * time.Second); ; {
		if node, err = js.NewNamedNode(tcpNodes[1]); err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	tr.end(sp)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("agents never reported: %w", err)
	}

	sp = tr.begin("load", root, 0)
	cb := js.NewCodebase()
	err = cb.Add(kv.StoreClass)
	if err == nil {
		err = cb.Add(blobClass)
	}
	if err == nil {
		err = cb.LoadNodes(tcpNodes...)
	}
	tr.end(sp)
	if err != nil {
		in.close()
		return nil, fmt.Errorf("codebase: %w", err)
	}

	sp = tr.begin("create", root, 0)
	defer tr.end(sp)
	for _, c := range in.callers {
		if c.store, err = c.js.NewObject(kv.StoreClass, node, nil); err == nil {
			c.blob, err = c.js.NewObject(blobClass, node, nil)
		}
		if err != nil {
			in.close()
			return nil, fmt.Errorf("create: %w", err)
		}
	}
	return in, nil
}

// tcpCallerResult is what one caller observed.
type tcpCallerResult struct {
	lat      latencies // µs per call
	withinOK int       // calls within tcpLimit
	batches  []float64 // seconds per tcpBatch calls
	ok, fail int
	err      error
}

func runTCP(cfg config, tr *tracer) (*result, error) {
	res := &result{}
	var in *tcpInstall
	for i := 0; i < tcpSetups; i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		root := tr.begin("unit", 0, 0)
		var err error
		in, err = tcpSetup(tr, root)
		tr.end(root)
		if err != nil {
			return res, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	defer in.close()

	schedules := tcpSchedules(cfg.seed)
	before := in.env.World().Metrics().Snapshot()
	spansBefore := maxSpanID(in.env.Spans())
	out := make([]tcpCallerResult, tcpCallers)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	m0 := mallocs()
	var wg sync.WaitGroup
	for c := range in.callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = tcpLoop(in.callers[c], c, schedules[c], cfg.seed, deadline, tr)
		}(c)
	}
	wg.Wait()
	res.mallocs = mallocs() - m0
	for _, o := range out {
		res.ops += o.ok
		res.attempted += o.ok + o.fail
		res.failed += o.fail
		res.lat.merge(&o.lat)
		res.makespan = append(res.makespan, o.batches...)
		res.latTotal += o.ok + o.fail
		res.withinOK += o.withinOK
	}
	// Throughput per batch window: the callers' batch i run side by
	// side, so their rates add.
	for i := 0; ; i++ {
		rate := 0.0
		for _, o := range out {
			if i >= len(o.batches) {
				rate = -1
				break
			}
			rate += tcpBatch / o.batches[i]
		}
		if rate < 0 {
			break
		}
		res.rates = append(res.rates, rate)
	}
	res.heap = append(res.heap, heapMB())
	for _, o := range out {
		if o.err != nil {
			return res, o.err
		}
	}
	if tr != nil {
		res.layers = fillLayers(tcpLayers(in.env, before, spansBefore, res.ops, tr))
	}
	return res, nil
}

// tcpLoop is one closed-loop caller: it replays its schedule until the
// deadline, checking every Get against its own last acknowledged Put and
// every Echo against the body it sent.
func tcpLoop(c *tcpCaller, id int, sched []tcpOp, seed int64, deadline time.Time, tr *tracer) tcpCallerResult {
	var r tcpCallerResult
	last := make(map[string]int)
	body := make([]byte, tcpEchoBytes)
	rand.New(rand.NewSource(seed + int64(id))).Read(body)
	root := tr.begin("unit", 0, 0)
	defer tr.end(root)
	batchStart := time.Now()
	put := 0
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if i > 0 && i%tcpBatch == 0 {
			r.batches = append(r.batches, now.Sub(batchStart).Seconds())
			batchStart = now
		}
		op := sched[i%len(sched)]
		sp := tr.begin("op", root, uint64(i+1))
		t0 := time.Now()
		var v any
		var err error
		switch op.kind {
		case 'g':
			v, err = c.store.SInvoke("Get", op.key)
		case 'p':
			put++
			v, err = c.store.SInvoke("Put", op.key, put)
		case 'e':
			binary.LittleEndian.PutUint64(body, uint64(i))
			v, err = c.blob.SInvoke("Echo", body)
		}
		lat := time.Since(t0)
		tr.end(sp)
		if err == nil {
			err = tcpCheck(op, v, last, put, body)
		} else if op.kind == 'p' {
			last[op.key] = -1 // the failed Put may or may not have applied
		}
		if err != nil {
			r.fail++
			if errors.Is(err, errWrong) {
				r.err = fmt.Errorf("caller %d: %w", id, err)
				break
			}
			continue
		}
		r.ok++
		r.lat.add(us(lat))
		if lat <= tcpLimit {
			r.withinOK++
		}
	}
	return r
}

// tcpCheck verifies one reply: a Get returns the caller's last
// acknowledged Put to the key (0 if none; -1 marks a key whose last Put
// failed, which the next acknowledged Put settles), an Echo returns the
// body sent.  It records an acknowledged Put.
func tcpCheck(op tcpOp, v any, last map[string]int, put int, body []byte) error {
	switch op.kind {
	case 'g':
		if got, _ := v.(int); last[op.key] >= 0 && got != last[op.key] {
			return fmt.Errorf("%w: Get(%s) = %v, last acknowledged Put was %d", errWrong, op.key, v, last[op.key])
		}
	case 'p':
		last[op.key] = put
	case 'e':
		if got, _ := v.([]byte); !bytes.Equal(got, body) {
			return fmt.Errorf("%w: Echo returned %d bytes that differ from the %d sent", errWrong, len(got), len(body))
		}
	}
	return nil
}

func maxSpanID(spans []jsymphony.Span) int {
	last := 0
	for _, s := range spans {
		last = max(last, int(s.ID))
	}
	return last
}

// tcpLayers derives the per-layer metrics of the timed window from the
// counter deltas and the retained spans.
func tcpLayers(env *jsymphony.Env, before metrics.Snapshot, spansBefore, ops int, tr *tracer) map[string]float64 {
	after := env.World().Metrics().Snapshot()
	c, b := make(counters), make(counters)
	addSnapshot(c, after)
	addSnapshot(b, before)
	for k := range c {
		if k != "series" {
			c[k] -= b[k]
		}
	}
	var rmiLat, walWait hist
	rmiLat.add(after, "js_rmi_call_latency_us", 1)
	rmiLat.add(before, "js_rmi_call_latency_us", -1)
	var seg segments
	var spans []jsymphony.Span
	for _, s := range env.Spans() {
		if int(s.ID) > spansBefore {
			spans = append(spans, s)
		}
	}
	spanTotal := seg.add(spans) - spansBefore
	m := layerCounts(c, &rmiLat, &walWait, &seg, ops, spanTotal)
	tr.setupLayers(m)
	return m
}

// tcpProbes runs the isolated probes on rmi-tcp's own values.
func tcpProbes(cfg config) map[string]float64 {
	const key = "c0-k017"
	body := make([]byte, tcpEchoBytes)
	rand.New(rand.NewSource(cfg.seed)).Read(body)
	args, err := rmi.Marshal([]any{key, 42})
	if err != nil {
		panic(err)
	}
	s := &kv.Store{}
	s.InitRW(0, 0)
	b := &Blob{}
	mix := []call{
		{s, "Get", []any{key}}, {s, "Get", []any{key}}, {s, "Get", []any{key}}, {s, "Get", []any{key}},
		{s, "Put", []any{key, 42}}, {s, "Put", []any{key, 43}}, {s, "Put", []any{key, 44}}, {s, "Put", []any{key, 45}},
		{b, "Echo", []any{body}},
	}
	return merge(
		vclockProbes(),
		stationProbe(args),
		wireProbe([]any{key, 42, []any{key, 42}, []any{key}, body, []any{body}}, 2000),
		dispatchProbe(mix, 5000),
	)
}
