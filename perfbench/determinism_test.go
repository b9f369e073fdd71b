package main

import "testing"

// deterministic lists the metrics that are a pure function of the seed on
// the simulated workloads: the virtual-time end-to-end metrics and the
// layer counts taken from the program's counters and spans.
var deterministic = map[string][]string{
	"e2e": {"lat_p50_us", "lat_p99_us", "makespan_s", "slo_attain"},
	"layers": {
		"simnet.util_mean", "simnet.drops", "vclock.actors_peak",
		"rmi.calls_per_op", "rmi.oneway_per_op", "rmi.bytes_per_op", "rmi.retries", "rmi.timeouts",
		"rmi.dups", "rmi.sheds", "rmi.call_p99_us", "rmi.wire_p50_us", "rmi.wire_p99_us",
		"core.queue_p99_us", "core.service_p50_us", "core.invocations_per_op", "core.remote_share", "core.sheds",
		"nas.reports_per_vs", "replica.leasewait_p99_us", "replica.read_hit_ratio", "replica.updates_per_write",
		"shard.coalesced_ratio", "shard.admission_sheds", "wal.records_per_flush", "wal.durability_p99_us",
		"wal.commit_wait_p99_us", "wal.checkpoint_bytes", "trace.spans_per_op", "metrics.series", "slo.misses",
		"loadgen.late_max_us",
	},
}

// observe runs a simulated workload's deterministic prefix, traced, and
// returns its deterministic metrics.
func observe(t *testing.T, run func(config, *tracer) (*result, error), seed int64, units int) map[string]float64 {
	t.Helper()
	res, err := run(config{seed: seed, seconds: 1e-9, units: units}, newTracer())
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	e2e := res.endToEnd()
	out := make(map[string]float64)
	for _, k := range deterministic["e2e"] {
		out[k] = e2e[k].Value
	}
	for _, k := range deterministic["layers"] {
		v, ok := res.layers[k]
		if !ok {
			t.Fatalf("layer metric %s missing", k)
		}
		out[k] = v
	}
	return out
}

// TestDeterminism checks that the same seed gives identical virtual-time
// metrics and layer counts on the simulated workloads, and that another
// seed gives different ones.
func TestDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func(config, *tracer) (*result, error)
		units int
	}{
		{"matmul-fig5", runMatmul, 1},
		{"kv-serve", runKV, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := observe(t, tc.run, 11, tc.units)
			b := observe(t, tc.run, 11, tc.units)
			c := observe(t, tc.run, 12, tc.units)
			for _, k := range sortedKeys(a) {
				if a[k] != b[k] {
					t.Errorf("%s: seed 11 gave %v then %v", k, a[k], b[k])
				}
			}
			for _, k := range deterministic["e2e"] {
				if k != "slo_attain" && a[k] == c[k] {
					t.Errorf("%s: seeds 11 and 12 both gave %v", k, a[k])
				}
			}
			if a["rmi.bytes_per_op"] == c["rmi.bytes_per_op"] && a["trace.spans_per_op"] == c["trace.spans_per_op"] {
				t.Errorf("layer counts identical across seeds 11 and 12")
			}
		})
	}
}
