package main

import (
	"math"
	"sort"
)

// endToEndNames are the user-visible metrics every workload reports, in
// output order.  Latency and makespan are on the environment's clock:
// virtual time on the simulated workloads, wall time on rmi-tcp.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "lat_p50_us", "lat_p99_us", "makespan_s",
	"slo_attain", "allocs_per_op", "live_heap_mb",
}

var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "ops/s",
	"lat_p50_us":    "us",
	"lat_p99_us":    "us",
	"makespan_s":    "s",
	"slo_attain":    "ratio",
	"allocs_per_op": "allocs",
	"live_heap_mb":  "MiB",
}

// result is what one workload run observed.
type result struct {
	ops       int // completed operations in the timed phase
	attempted int // operations attempted, output checks included
	failed    int // failed, refused or wrong operations

	rates   []float64 // operations per wall second, per unit of work
	mallocs uint64    // heap allocations during the timed phase

	lat      latencies // per-operation latency, µs on the env clock
	withinOK int       // of those, completed within their class limit
	latTotal int       // attempts the limit applies to (failures count as misses)
	makespan []float64 // env-clock seconds per fixed unit of work
	setup    []float64 // wall seconds per set-up
	heap     []float64 // live heap MiB after a forced GC, per unit

	layers map[string]float64 // traced run: per-layer metrics
}

// endToEnd derives the end-to-end metrics.
func (r *result) endToEnd() map[string]metric {
	ops := float64(r.ops)
	v := map[string]float64{
		"setup_s":       median(r.setup),
		"ops_per_s":     median(r.rates),
		"lat_p50_us":    r.lat.quantile(0.50),
		"lat_p99_us":    r.lat.quantile(0.99),
		"makespan_s":    median(r.makespan),
		"slo_attain":    ratio(r.withinOK, r.latTotal),
		"allocs_per_op": float64(r.mallocs) / ops,
		"live_heap_mb":  median(r.heap),
	}
	out := make(map[string]metric, len(v))
	for k, x := range v {
		out[k] = metric{x, endToEndUnits[k]}
	}
	return out
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies records per-operation latencies (µs) in memory that does not
// grow with the number of operations below fineLimitUs: those land in
// fineStepUs buckets, and only larger values are kept exactly.  So neither
// the live heap nor the collector's pace depends on how many calls a
// wall-clock run completed.
type latencies struct {
	fine   []uint32
	nFine  int
	coarse []float64
}

const (
	fineStepUs  = 0.05
	fineLimitUs = 2000
)

func (l *latencies) add(us float64) {
	if us >= fineLimitUs {
		l.coarse = append(l.coarse, us)
		return
	}
	if l.fine == nil {
		l.fine = make([]uint32, int(fineLimitUs/fineStepUs))
	}
	l.fine[int(us/fineStepUs)]++
	l.nFine++
}

func (l *latencies) merge(o *latencies) {
	for i, n := range o.fine {
		if n > 0 {
			if l.fine == nil {
				l.fine = make([]uint32, len(o.fine))
			}
			l.fine[i] += n
		}
	}
	l.nFine += o.nFine
	l.coarse = append(l.coarse, o.coarse...)
}

func (l *latencies) count() int { return l.nFine + len(l.coarse) }

// quantile returns the nearest-rank q-quantile: a bucket's midpoint in
// the fine range, the exact value above it.
func (l *latencies) quantile(q float64) float64 {
	n := l.count()
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank <= l.nFine {
		cum := 0
		for i, c := range l.fine {
			cum += int(c)
			if cum >= rank {
				return (float64(i) + 0.5) * fineStepUs
			}
		}
	}
	return quantile(l.coarse, float64(rank-l.nFine)/float64(len(l.coarse)))
}
