package main

import (
	"fmt"
	"sync"
	"time"

	"jsymphony"
	"jsymphony/internal/loadgen"
	"jsymphony/internal/rmi"
	"jsymphony/workloads/kv"
)

// kv-serve: an open loop in virtual time.  A seeded loadgen stream
// (bounded-Pareto gaps, Zipf keys, three classes with different read
// shares, constant rate) is offered below capacity to a replicated,
// persisted 3-shard kv.Store group with admission control on, on a
// uniform 6-node simulated cluster.  Each request is timed from its
// scheduled arrival.  Thousands of tiny RMIs: the per-call hot path,
// replica leases, shard coalescing and WAL group commit.

// kvClass is one client tier with its latency limit.
type kvClass struct {
	name       string
	share      float64
	reads      float64
	target     time.Duration
	percentile float64
}

var kvClasses = []kvClass{
	{"gold", 0.2, 0.95, 150 * time.Millisecond, 99},
	{"silver", 0.3, 0.9, 120 * time.Millisecond, 95},
	{"bronze", 0.5, 0.85, 130 * time.Millisecond, 95},
}

const (
	kvNodes      = 6
	kvShards     = 3
	kvKeys       = 256
	kvRate       = 150.0 // offered requests per virtual second, about half of capacity
	kvAlpha      = 2.0   // Pareto tail index of the gaps
	kvArrivals   = 1500  // arrivals per unit
	kvUnits      = 12    // deterministic prefix of units
	kvReadFlops  = 1e5
	kvWriteFlops = 3e5
)

// kvSample is one request's observed outcome.
type kvSample struct {
	due, done time.Duration // scheduled arrival and reply, env clock
	value     int           // value read, or written
	err       error
}

func runKV(cfg config, tr *tracer) (*result, error) {
	res := &result{}
	agg := &layerAgg{}
	var lateMax time.Duration
	writes, appends, flushes := 0, 0.0, 0.0
	units := cfg.prefix(kvUnits)
	start := time.Now()
	for unit := 0; unit < units || time.Since(start).Seconds() < cfg.seconds; unit++ {
		det := unit < units
		seed := subSeed(cfg.seed, unit%units)
		u, err := kvUnit(seed, tr, agg)
		res.attempted += u.attempted
		res.failed += u.failed
		if err != nil {
			return res, err
		}
		res.setup = append(res.setup, u.setup)
		res.rates = append(res.rates, float64(len(u.samples))/u.wall.Seconds())
		res.mallocs += u.mallocs
		res.ops += len(u.samples)
		res.heap = append(res.heap, u.heap)
		agg.timed(u.virt, u.wall)
		if !det {
			continue
		}
		res.makespan = append(res.makespan, u.virt.Seconds())
		for i, s := range u.samples {
			res.latTotal++
			if s.err != nil {
				continue
			}
			lat := s.done - s.due
			res.lat.add(us(lat))
			if lat <= kvClassOf(u.arrivals[i].Class).target {
				res.withinOK++
			}
		}
		if u.lateMax > lateMax {
			lateMax = u.lateMax
		}
		agg.ops += len(u.samples)
		agg.addEnv(u.env)
		writes += u.writes
		for _, w := range u.env.WALStatus() {
			appends += float64(w.Appends)
			flushes += float64(w.Flushes)
		}
	}
	if tr != nil {
		m := agg.layers()
		m["loadgen.late_max_us"] = us(lateMax)
		if writes > 0 {
			m["replica.updates_per_write"] = agg.c["js_replica_updates_total"] / float64(writes)
		}
		if flushes > 0 {
			m["wal.records_per_flush"] = appends / flushes
		}
		tr.setupLayers(m)
		res.layers = fillLayers(m)
	}
	return res, nil
}

func kvClassOf(name string) kvClass {
	for _, c := range kvClasses {
		if c.name == name {
			return c
		}
	}
	panic("perfbench: unknown class " + name)
}

// kvUnitResult is one unit: a fresh installation serving one stream.
type kvUnitResult struct {
	env               *jsymphony.Env
	arrivals          []loadgen.Arrival
	samples           []kvSample
	attempted, failed int
	writes            int
	setup             float64
	wall              time.Duration // first arrival → drained
	virt              time.Duration // the same on the env clock
	mallocs           uint64
	heap              float64
	lateMax           time.Duration
}

// kvUnit builds the installation, replays the stream open-loop, checks
// every read and the final table, and checks the SLO engine's miss
// count against the benchmark's own.
func kvUnit(seed int64, tr *tracer, agg *layerAgg) (*kvUnitResult, error) {
	classes := make([]loadgen.Class, len(kvClasses))
	names := make([]string, len(kvClasses))
	for i, c := range kvClasses {
		classes[i] = loadgen.Class{Name: c.name, Share: c.share, Reads: c.reads}
		names[i] = c.name
	}
	arrivals, err := loadgen.Generate(loadgen.Config{
		Seed: seed, Classes: classes, Keys: kvKeys, Rate: kvRate, Ops: kvArrivals, Alpha: kvAlpha,
	})
	if err != nil {
		return &kvUnitResult{}, err
	}
	u := &kvUnitResult{arrivals: arrivals, samples: make([]kvSample, len(arrivals))}

	root := tr.begin("unit", 0, 0)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("env", root, 0)
	env := jsymphony.NewSimEnv(jsymphony.UniformCluster(jsymphony.Ultra10_300, kvNodes), jsymphony.Night, seed,
		jsymphony.EnvOptions{Durability: &jsymphony.DurabilityOptions{Stable: jsymphony.NewWALStable(seed)}})
	u.env = env
	for _, c := range kvClasses {
		if err := env.DeclareSLO(jsymphony.SLO{Class: c.name, Target: c.target, Percentile: c.percentile}); err != nil {
			return u, err
		}
	}
	tr.end(sp)

	var runErr error
	sp = tr.begin("settle", root, 0)
	env.RunMain("", func(js *jsymphony.JS) {
		tr.end(sp)
		sp := tr.begin("alloc", root, 0)
		cluster, err := js.NewCluster(kvNodes, nil)
		tr.end(sp)
		if err != nil {
			runErr = fmt.Errorf("allocate: %w", err)
			return
		}
		sp = tr.begin("load", root, 0)
		cb := js.NewCodebase()
		err = cb.Add(kv.StoreClass)
		if err == nil {
			err = cb.Load(cluster)
		}
		tr.end(sp)
		if err != nil {
			runErr = fmt.Errorf("codebase: %w", err)
			return
		}
		sp = tr.begin("create", root, 0)
		g, err := js.NewShardGroup("kv", kv.StoreClass, jsymphony.ShardSpec{
			Shards:      kvShards,
			Replication: &jsymphony.ReplicaPolicy{N: 1, Mode: jsymphony.ReplicaStrong, Reads: kv.ReadMethods()},
			InitMethod:  "InitRW",
			InitArgs:    []any{kvReadFlops, kvWriteFlops},
		})
		if err == nil {
			err = g.Persist()
		}
		if err == nil {
			err = g.SetAdmission(jsymphony.AdmissionPolicy{Classes: names, Threshold: 4})
		}
		tr.end(sp)
		if err != nil {
			runErr = fmt.Errorf("shard group: %w", err)
			return
		}
		u.setup = time.Since(t0).Seconds()

		stop := agg.sample(js, tr != nil)
		kvStream(js, g, u, tr, root)
		stop()
		sp = tr.begin("verify", root, 0)
		runErr = kvVerify(g, u)
		tr.end(sp)
		u.heap = heapMB()
	})
	if runErr != nil {
		return u, runErr
	}
	return u, kvCheckMisses(env, u)
}

// kvStream is the open-loop injector: it sleeps to each arrival's due
// time and fires an independent client proc, never waiting on replies,
// then waits for the stream to drain.
func kvStream(js *jsymphony.JS, g *jsymphony.ShardGroup, u *kvUnitResult, tr *tracer, root uint64) {
	var mu sync.Mutex
	done := 0
	epoch := js.Now()
	m0, w0 := mallocs(), time.Now()
	for i, a := range u.arrivals {
		due := epoch + a.At
		if due > js.Now() {
			js.Sleep(due - js.Now())
		}
		if late := js.Now() - due; late > u.lateMax {
			u.lateMax = late
		}
		i, a := i, a
		if a.Op == loadgen.OpWrite {
			u.writes++
		}
		js.Spawn("client", func(c *jsymphony.JS) {
			op := tr.begin("op", root, uint64(i+1))
			g2 := g.With(c)
			var v any
			var err error
			value := i + 1
			if a.Op == loadgen.OpRead {
				v, err = g2.InvokeClass(a.Class, a.Key, "Get", a.Key)
				if err == nil {
					value, _ = v.(int)
				}
			} else {
				_, err = g2.InvokeClass(a.Class, a.Key, "Put", a.Key, value)
			}
			tr.end(op)
			mu.Lock()
			u.samples[i] = kvSample{due: due, done: c.Now(), value: value, err: err}
			done++
			mu.Unlock()
		})
	}
	for {
		mu.Lock()
		d := done
		mu.Unlock()
		if d == len(u.arrivals) {
			break
		}
		js.Sleep(5 * time.Millisecond)
	}
	u.wall = time.Since(w0)
	u.mallocs = mallocs() - m0
	var last time.Duration
	for _, s := range u.samples {
		last = max(last, s.done)
	}
	u.virt = last - epoch
	u.attempted += len(u.samples)
	for _, s := range u.samples {
		if s.err != nil {
			u.failed++
		}
	}
}

// kvVerify checks every read of the stream against the writes issued to
// its key before it completed, then reads back every key and compares it
// with a replay of the acknowledged writes: the final value must come
// from an acknowledged write that no later acknowledged write to the key
// strictly follows (0 for a key never written).
func kvVerify(g *jsymphony.ShardGroup, u *kvUnitResult) error {
	type write struct {
		due, done time.Duration
		value     int
	}
	byKey := make(map[string][]write)
	byValue := make(map[int]int) // value → arrival index of its write
	unsure := make(map[string]bool)
	for i, a := range u.arrivals {
		if a.Op != loadgen.OpWrite {
			continue
		}
		s := u.samples[i]
		byValue[s.value] = i
		if s.err != nil {
			unsure[a.Key] = true
			continue
		}
		byKey[a.Key] = append(byKey[a.Key], write{s.due, s.done, s.value})
	}
	for i, a := range u.arrivals {
		s := u.samples[i]
		if a.Op != loadgen.OpRead || s.err != nil || s.value == 0 {
			continue
		}
		w, ok := byValue[s.value]
		if !ok || u.arrivals[w].Key != a.Key || u.samples[w].due > s.done {
			u.failed++
			return fmt.Errorf("%w: read %d of %s returned %d, never written there before it", errWrong, i, a.Key, s.value)
		}
	}
	for k := 0; k < kvKeys; k++ {
		key := fmt.Sprintf("k%05d", k)
		u.attempted++
		v, err := g.Invoke(key, "Get", key)
		if err != nil {
			u.failed++
			return fmt.Errorf("read-back %s: %w", key, err)
		}
		got, _ := v.(int)
		ws := byKey[key]
		ok := len(ws) == 0 && got == 0
		for _, w := range ws {
			superseded := false
			for _, w2 := range ws {
				if w2.due > w.done {
					superseded = true
					break
				}
			}
			if !superseded && w.value == got {
				ok = true
			}
		}
		if !ok && !(unsure[key] && (got == 0 || u.arrivals[byValue[got]].Key == key)) {
			u.failed++
			return fmt.Errorf("%w: read-back %s = %d, not the last acknowledged write", errWrong, key, got)
		}
	}
	return nil
}

// kvCheckMisses compares the SLO engine's miss counter with the
// benchmark's own count over the classified requests.
func kvCheckMisses(env *jsymphony.Env, u *kvUnitResult) error {
	c := make(counters)
	addSnapshot(c, env.World().Metrics().Snapshot())
	engine := int(c["js_slo_misses_total"])
	own := 0
	for i, s := range u.samples {
		if s.err != nil || s.done-s.due > kvClassOf(u.arrivals[i].Class).target {
			own++
		}
	}
	if engine != own {
		return fmt.Errorf("%w: SLO engine counted %d misses, the benchmark %d", errWrong, engine, own)
	}
	return nil
}

// kvProbes runs the isolated probes on a kv-serve stream's own values.
func kvProbes(cfg config) map[string]float64 {
	const key = "k00017"
	body, err := rmi.Marshal([]any{key, 42})
	if err != nil {
		panic(err)
	}
	s := &kv.Store{}
	s.InitRW(0, 0)
	mix := []call{
		{s, "Get", []any{key}}, {s, "Get", []any{key}}, {s, "Get", []any{key}},
		{s, "Put", []any{key, 42}}, {s, "Put", []any{key, 43}},
	}
	return merge(
		vclockProbes(),
		stationProbe(body),
		wireProbe([]any{key, 42, []any{key, 42}, []any{key}}, 20000),
		dispatchProbe(mix, 20000),
	)
}
