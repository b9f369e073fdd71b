// Command perfbench is the repository benchmark: three seeded workloads
// that measure the jsymphony system from outside, through its public API
// and the exported counters of its internal layers.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload kv-serve --seed 7 --seconds 10 --trace 0
//
// With -trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with -trace 1 it holds every
// per-layer metric instead: counters and span segments of the program,
// isolated layer probes, the benchmark-side span ledger, and the tracing
// overhead.  METRICS.md lists what each metric means and which layer is
// expected to move it.  A wrong output exits with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	// units overrides a simulated workload's deterministic prefix (its
	// number of sweeps or units); 0 keeps the workload's own.  Only the
	// determinism test shrinks it.
	units int
}

// prefix returns the deterministic prefix length.
func (c config) prefix(def int) int {
	if c.units > 0 {
		return c.units
	}
	return def
}

// workload runs its timed phase for cfg.seconds (at least its minimum
// deterministic work) and returns what it observed.  tr is nil on an
// untraced run.
type workload struct {
	run func(cfg config, tr *tracer) (*result, error)
	// probes returns the isolated layer probes on this workload's own
	// values (traced run only).
	probes func(cfg config) map[string]float64
}

var workloads = map[string]workload{
	"matmul-fig5": {run: runMatmul, probes: matmulProbes},
	"kv-serve":    {run: runKV, probes: kvProbes},
	"rmi-tcp":     {run: runTCP, probes: tcpProbes},
}

// errWrong marks an output check failure: the program computed a wrong
// value.  It is the only error that yields correct=false.
var errWrong = errors.New("wrong output")

func main() {
	name := flag.String("workload", "", "workload: matmul-fig5, kv-serve or rmi-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in wall seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload matmul-fig5|kv-serve|rmi-tcp, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds}
	rep, err := measure(*name, w, cfg, *traced == 1)
	if err != nil && !errors.Is(err, errWrong) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// measure runs one invocation: the untraced measurement, or — traced —
// an untraced half, a traced half and the probes, reporting the
// per-layer metrics plus the traced-minus-untraced overhead.
func measure(name string, w workload, cfg config, traced bool) (report, error) {
	if !traced {
		res, err := w.run(cfg, nil)
		if err != nil {
			return failedReport(res, err), err
		}
		printSummary(name, "untraced", res)
		return report{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: res.endToEnd()}, nil
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := w.run(half, nil)
	if err != nil {
		return failedReport(plain, err), err
	}
	tr := newTracer()
	res, err := w.run(half, tr)
	if err != nil {
		return failedReport(res, err), err
	}
	printSummary(name, "untraced half", plain)
	printSummary(name, "traced half", res)

	out := make(map[string]metric)
	for k, v := range res.layers {
		out[k] = metric{v, layerUnit(k)}
	}
	probeStart := time.Now()
	pid := tr.begin("probe", 0, 0)
	for k, v := range w.probes(cfg) {
		out[k] = metric{v, layerUnit(k)}
	}
	tr.end(pid)
	fmt.Fprintf(os.Stderr, "perfbench: probes took %.2fs\n", time.Since(probeStart).Seconds())
	for k, v := range tr.selfShares() {
		out[k] = metric{v, "ratio"}
	}
	out["fail_ratio"] = metric{ratio(res.failed, res.attempted), "ratio"}
	a, b := plain.endToEnd(), res.endToEnd()
	for _, m := range endToEndNames {
		out["overhead."+m] = metric{relDiff(b[m].Value, a[m].Value), "ratio"}
	}
	if err := tr.write(fmt.Sprintf(".bench_build/trace-%s.jsonl", name)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: span dump: %v\n", err)
	}
	return report{
		Correct:   true,
		Attempted: plain.attempted + res.attempted,
		Failed:    plain.failed + res.failed,
		Metrics:   out,
	}, nil
}

func failedReport(res *result, err error) report {
	rep := report{Correct: false, Attempted: 1, Metrics: map[string]metric{}}
	if res != nil && res.attempted > 0 {
		rep.Attempted, rep.Failed = res.attempted, res.failed
	}
	return rep
}

// printSummary writes the human-readable table (with sample counts) to
// standard error.
func printSummary(name, label string, r *result) {
	m := r.endToEnd()
	fmt.Fprintf(os.Stderr, "perfbench %s (%s): ops=%d attempted=%d failed=%d lat-samples=%d makespan-samples=%d setup-samples=%d\n",
		name, label, r.ops, r.attempted, r.failed, r.lat.count(), len(r.makespan), len(r.setup))
	for _, k := range endToEndNames {
		fmt.Fprintf(os.Stderr, "  %-14s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// relDiff is (b-a)/a, or 0 when a is 0.
func relDiff(b, a float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// heapMB forces a collection and returns the live heap in MiB.  The
// second collection empties the sync.Pool victim caches (the wire
// codec's buffer arena), which otherwise survive one collection or not
// depending on when the last one ran.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
