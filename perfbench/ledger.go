package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jsymphony"
	"jsymphony/internal/metrics"
)

// layerMetrics is every per-layer metric a traced run prints, with its
// unit.  A layer a workload does not exercise reports 0, which is itself
// the observation (rmi-tcp has no vclock or simnet work; only kv-serve
// has wal, replica and shard work).  METRICS.md gives the source of each
// and the end-to-end metric it is expected to move.
var layerMetrics = []struct{ name, unit string }{
	{"vclock.handoff_ns", "ns"},
	{"vclock.handoff_allocs", "allocs"},
	{"vclock.mailbox_ns", "ns"},
	{"vclock.vs_per_wall_s", "s/s"},
	{"vclock.actors_peak", "count"},
	{"simnet.util_mean", "ratio"},
	{"simnet.drops", "count"},
	{"rmi.calls_per_op", "count"},
	{"rmi.oneway_per_op", "count"},
	{"rmi.bytes_per_op", "B"},
	{"rmi.retries", "count"},
	{"rmi.timeouts", "count"},
	{"rmi.dups", "count"},
	{"rmi.sheds", "count"},
	{"rmi.call_p99_us", "us"},
	{"rmi.wire_p50_us", "us"},
	{"rmi.wire_p99_us", "us"},
	{"rmi.retry_p99_us", "us"},
	{"rmi.call_ns", "ns"},
	{"rmi.call_allocs", "allocs"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.allocs_per_msg", "allocs"},
	{"wire.bytes_per_msg", "B"},
	{"wire.gob_share", "ratio"},
	{"codebase.dispatch_ns", "ns"},
	{"codebase.dispatch_allocs", "allocs"},
	{"codebase.load_s", "s"},
	{"core.queue_p99_us", "us"},
	{"core.service_p50_us", "us"},
	{"core.invocations_per_op", "count"},
	{"core.remote_share", "ratio"},
	{"core.sheds", "count"},
	{"core.create_s", "s"},
	{"nas.alloc_s", "s"},
	{"nas.reports_per_vs", "1/s"},
	{"replica.leasewait_p99_us", "us"},
	{"replica.read_hit_ratio", "ratio"},
	{"replica.updates_per_write", "count"},
	{"shard.coalesced_ratio", "ratio"},
	{"shard.admission_sheds", "count"},
	{"wal.records_per_flush", "count"},
	{"wal.durability_p99_us", "us"},
	{"wal.commit_wait_p99_us", "us"},
	{"wal.checkpoint_bytes", "B"},
	{"trace.spans_per_op", "count"},
	{"metrics.series", "count"},
	{"slo.misses", "count"},
	{"loadgen.late_max_us", "us"},
	{"fail_ratio", "ratio"},
}

// ledgerSpans are the benchmark-side span names; each traced run reports
// the share of its spans' wall time that each name holds as self time.
var ledgerSpans = []string{"unit", "env", "settle", "alloc", "load", "create", "op", "verify", "probe"}

// ---------------------------------------------------------------------
// Benchmark-side spans.

// span is one call the benchmark made into a layer, in wall time.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends.  A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes a span.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setupLayers sets the set-up layer metrics from the benchmark-timed
// calls: the median node allocation, codebase load and creation.
func (t *tracer) setupLayers(m map[string]float64) {
	m["nas.alloc_s"] = median(t.durations("alloc"))
	m["codebase.load_s"] = median(t.durations("load"))
	m["core.create_s"] = median(t.durations("create"))
}

// durations returns every closed span's duration in seconds, by name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfShares computes each span's self time — its duration minus the
// part of it that its children cover — and reports, per span name, its
// share of the self time of all spans.  Concurrent spans (the open loop's
// requests) each count their own self time, so the shares sum to 1 over
// the names rather than to the wall time.
func (t *tracer) selfShares() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	var total float64
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := float64(s.End-s.Start) - covered(s, children[s.ID])
		self[s.Name] += d
		total += d
	}
	out := make(map[string]float64, len(ledgerSpans))
	for _, name := range ledgerSpans {
		share := 0.0
		if total > 0 {
			share = self[name] / total
		}
		out["ledger."+name+"_self_share"] = share
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	total += curE - curS
	return float64(total)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------
// Program-side counters and spans.

// counters sums metrics snapshots' counters by base name (labels
// dropped), plus the largest snapshot's number of series.
type counters map[string]float64

func addSnapshot(c counters, s metrics.Snapshot) {
	for _, x := range s.Counters {
		c[baseName(x.Name)] += float64(x.Value)
	}
	c["series"] = max(c["series"], float64(len(s.Counters)+len(s.Gauges)+len(s.Histograms)))
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// hist merges every labelled histogram with the given base name.
type hist struct {
	bounds []int64
	counts []int64
}

// add folds the snapshot's histograms in, scaled by sign (-1 subtracts
// an earlier snapshot to leave a window's delta).
func (h *hist) add(s metrics.Snapshot, base string, sign int64) {
	for _, x := range s.Histograms {
		if baseName(x.Name) != base {
			continue
		}
		if h.bounds == nil {
			h.bounds = append([]int64(nil), x.Bounds...)
			h.counts = make([]int64, len(x.Counts))
		}
		if len(x.Counts) != len(h.counts) {
			continue
		}
		for i, n := range x.Counts {
			h.counts[i] += sign * n
		}
	}
}

// quantile returns the upper bound of the bucket holding the q-quantile
// (the last finite bound for the overflow bucket; 0 when empty).
func (h *hist) quantile(q float64) float64 {
	var total int64
	for _, n := range h.counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i, n := range h.counts {
		cum += n
		if cum >= rank {
			if i < len(h.bounds) {
				return float64(h.bounds[i])
			}
			return float64(h.bounds[len(h.bounds)-1])
		}
	}
	return 0
}

// segments collects the program's span segments (env clock, µs).
type segments struct {
	wire, retry, queue, service, lease, durability []float64
}

// add records the spans' segments and returns the largest span id: ids
// are sequential per environment, so it counts every span created, not
// only the retained ones.
func (g *segments) add(spans []jsymphony.Span) int {
	last := 0
	for _, s := range spans {
		g.wire = append(g.wire, us(s.Wire))
		g.queue = append(g.queue, us(s.Queue))
		g.service = append(g.service, us(s.Service))
		if s.Retry > 0 {
			g.retry = append(g.retry, us(s.Retry))
		}
		if s.LeaseWait > 0 {
			g.lease = append(g.lease, us(s.LeaseWait))
		}
		if s.Durability > 0 {
			g.durability = append(g.durability, us(s.Durability))
		}
		if int(s.ID) > last {
			last = int(s.ID)
		}
	}
	return last
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerCounts derives the counter- and span-based per-layer metrics
// shared by all workloads.  ops is the number of operations the counts
// are divided by; spanTotal the number of program spans created.
func layerCounts(c counters, rmiLat, walWait *hist, seg *segments, ops int, spanTotal int) map[string]float64 {
	per := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}
	share := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	return map[string]float64{
		"simnet.drops":             c["js_simnet_wire_drops_total"],
		"rmi.calls_per_op":         per(c["js_rmi_calls_total"]),
		"rmi.oneway_per_op":        per(c["js_rmi_oneway_total"]),
		"rmi.bytes_per_op":         per(c["js_rmi_bytes_out_total"]),
		"rmi.retries":              c["js_rmi_retries_total"],
		"rmi.timeouts":             c["js_rmi_timeouts_total"],
		"rmi.dups":                 c["js_rmi_dup_requests_total"],
		"rmi.sheds":                c["js_rmi_sheds_total"],
		"rmi.call_p99_us":          rmiLat.quantile(0.99),
		"rmi.wire_p50_us":          quantile(seg.wire, 0.5),
		"rmi.wire_p99_us":          quantile(seg.wire, 0.99),
		"rmi.retry_p99_us":         quantile(seg.retry, 0.99),
		"core.queue_p99_us":        quantile(seg.queue, 0.99),
		"core.service_p50_us":      quantile(seg.service, 0.5),
		"core.invocations_per_op":  per(c["js_core_invocations_total"]),
		"core.remote_share":        share(c["js_core_remote_invokes_total"], c["js_core_remote_invokes_total"]+c["js_core_local_invokes_total"]),
		"core.sheds":               c["js_core_sheds_total"] + c["js_core_class_sheds_total"],
		"replica.leasewait_p99_us": quantile(seg.lease, 0.99),
		"replica.read_hit_ratio":   share(c["js_replica_read_hits_total"], c["js_replica_reads_total"]),
		"shard.coalesced_ratio":    share(c["js_shard_coalesced_total"], c["js_shard_invokes_total"]),
		"shard.admission_sheds":    c["js_shard_admission_sheds_total"],
		"wal.durability_p99_us":    quantile(seg.durability, 0.99),
		"wal.commit_wait_p99_us":   walWait.quantile(0.99),
		"wal.checkpoint_bytes":     c["js_wal_checkpoint_bytes_total"],
		"trace.spans_per_op":       per(float64(spanTotal)),
		"metrics.series":           c["series"],
		"slo.misses":               c["js_slo_misses_total"],
	}
}

// layerAgg accumulates the program-side layer observations of a traced
// run's deterministic units.
type layerAgg struct {
	c               counters
	rmiLat, walWait hist
	seg             segments
	ops, spanTotal  int
	envVirt         time.Duration // virtual lifetime of the aggregated envs
	virt, wall      time.Duration // virtual and wall time of timed phases
	actorsPeak      int
	utilSum         float64
	utilN           int
}

// addEnv folds one finished environment's counters and spans in.
func (a *layerAgg) addEnv(env *jsymphony.Env) {
	if a.c == nil {
		a.c = make(counters)
	}
	snap := env.World().Metrics().Snapshot()
	addSnapshot(a.c, snap)
	a.rmiLat.add(snap, "js_rmi_call_latency_us", 1)
	a.walWait.add(snap, "js_wal_commit_wait_us", 1)
	a.spanTotal += a.seg.add(env.Spans())
	if clk := env.World().Clock(); clk != nil {
		a.envVirt += time.Duration(clk.Now())
	}
}

// timed records one timed phase's virtual and wall length.
func (a *layerAgg) timed(virt, wall time.Duration) {
	a.virt += virt
	a.wall += wall
}

// sample starts a benchmark actor on a simulated environment that reads
// the clock's live actor count and the machines' utilization gauges
// every 250ms of virtual time; the returned function stops it.  It is a
// no-op unless on (traced runs only: the actor adds simulation events).
func (a *layerAgg) sample(js *jsymphony.JS, on bool) func() {
	clk := js.Env().World().Clock()
	if !on || clk == nil {
		return func() {}
	}
	reg := js.Env().World().Metrics()
	var stopped atomic.Bool
	js.Spawn("perfbench-sampler", func(s *jsymphony.JS) {
		for !stopped.Load() {
			if n := clk.Actors(); n > a.actorsPeak {
				a.actorsPeak = n
			}
			for _, g := range reg.Snapshot().Gauges {
				if baseName(g.Name) == "js_simnet_util" {
					a.utilSum += g.Value
					a.utilN++
				}
			}
			s.Sleep(250 * time.Millisecond)
		}
	})
	return func() { stopped.Store(true) }
}

// layers derives the per-layer metrics of the aggregated units.
func (a *layerAgg) layers() map[string]float64 {
	m := layerCounts(a.c, &a.rmiLat, &a.walWait, &a.seg, a.ops, a.spanTotal)
	if a.wall > 0 {
		m["vclock.vs_per_wall_s"] = a.virt.Seconds() / a.wall.Seconds()
	}
	m["vclock.actors_peak"] = float64(a.actorsPeak)
	if a.utilN > 0 {
		m["simnet.util_mean"] = a.utilSum / float64(a.utilN)
	}
	if a.envVirt > 0 {
		m["nas.reports_per_vs"] = a.c["js_nas_reports_total"] / a.envVirt.Seconds()
	}
	return m
}

// fillLayers completes a traced run's per-layer map: every listed
// metric is present, absent ones as 0.
func fillLayers(m map[string]float64) map[string]float64 {
	for _, lm := range layerMetrics {
		if _, ok := m[lm.name]; !ok {
			m[lm.name] = 0
		}
	}
	return m
}

// layerUnit returns a per-layer metric's unit.
func layerUnit(name string) string {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit
		}
	}
	return "ratio" // ledger shares and overheads
}
