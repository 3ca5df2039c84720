package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
)

// metricDef names one reported metric, its unit and which direction
// is better ("higher" or "lower"); BENCHMARK.json lists the same.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the database sees. Every
// workload reports every one of them, and none can read 0 on a run
// that passed its gates. They are measured with tracing off.
var endToEnd = []metricDef{
	{"throughput_tps", "txn/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p95_us", "us", "lower"},
	{"cpu_us_per_txn", "us", "lower"},
	{"allocs_per_txn", "count", "lower"},
	{"mem_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers, reported by a traced run
// (--trace 1). Counts come from its untraced half, timings from its
// traced half and from calls into each layer's public functions made
// here. A layer the workload bypasses reads 0.
var perLayer = []metricDef{
	// internal/core execute/validate/commit and healing.
	{"core.commit_ratio", "ratio", "higher"},
	{"core.read_us_per_txn", "us", "lower"},
	{"core.validate_us_per_txn", "us", "lower"},
	{"core.write_us_per_txn", "us", "lower"},
	{"core.heal_us_per_txn", "us", "lower"},
	{"core.abort_us_per_txn", "us", "lower"},
	{"core.heals_per_ktxn", "count", "lower"},
	{"core.healed_ops_per_heal", "count", "higher"},
	{"core.restarts_per_ktxn", "count", "lower"},
	{"core.false_inval_per_ktxn", "count", "lower"},
	// internal/storage versions, internal/mvcc.
	{"core.versions_installed_per_ktxn", "count", "lower"},
	{"core.snapshot_read_share", "ratio", "higher"},
	{"mvcc.versions_reclaimed", "count", "higher"},
	// internal/proc, internal/storage + internal/hashidx.
	{"proc.instantiate_ns", "ns", "lower"},
	{"proc.instantiate_allocs", "count", "lower"},
	{"storage.get_ns", "ns", "lower"},
	// internal/wal.
	{"wal.bytes_per_txn", "B", "lower"},
	{"wal.frames_per_txn", "count", "lower"},
	{"wal.syncs_per_s", "1/s", "lower"},
	{"wal.sync_failures", "count", "lower"},
	// internal/checkpoint and the restart path.
	{"checkpoint.taken", "count", "higher"},
	{"checkpoint.last_duration_s", "s", "lower"},
	{"checkpoint.last_bytes", "B", "lower"},
	{"recovery.wall_ms", "ms", "lower"},
	{"recovery.checkpoint_rows", "count", "lower"},
	{"recovery.groups_applied", "count", "lower"},
	{"restart_s", "s", "lower"},
	// internal/server.
	{"server.shed_ratio", "ratio", "lower"},
	{"server.bytes_in_per_call", "B", "lower"},
	{"server.bytes_out_per_call", "B", "lower"},
	{"server.dedup_hits", "count", "lower"},
	{"server.queue_us_p50", "us", "lower"},
	{"server.exec_us_p50", "us", "lower"},
	{"server.wal_us_p50", "us", "lower"},
	{"server.resp_us_p50", "us", "lower"},
	{"server.total_us_p50", "us", "lower"},
	// client, internal/wire.
	{"wire.codec_ns_per_call", "ns", "lower"},
	{"wire.codec_allocs_per_call", "count", "lower"},
	{"client.overhead_us_p50", "us", "lower"},
	// internal/obs.
	{"obs.trace_overhead_pct", "%", "lower"},
	// Go runtime of the process that runs the engine.
	{"gc.cycles_per_ktxn", "count", "lower"},
	{"gc.pause_ms_total", "ms", "lower"},
	// The benchmark's own generator and call outcomes.
	{"workload.gen_ns_per_txn", "ns", "lower"},
	{"workload.gen_allocs_per_txn", "count", "lower"},
	{"user_abort_ratio", "ratio", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"latency_samples", "count", "higher"},
	// The end-to-end latency tail past latency_p95_us, unbounded: on
	// smallbank-net about 1% of calls stall for 0.3 to 5 ms, so the
	// 99th percentile sits on that knee and moved by half its median
	// between runs of the same code.
	{"latency_p99_us", "us", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs reports a malformed, badly united or repeated metric name.
func checkDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, set := range defs {
		for _, d := range set {
			if !nameRE.MatchString(d.name) {
				return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.name)
			}
			if !unitRE.MatchString(d.unit) {
				return fmt.Errorf("metric %s: bad unit %q", d.name, d.unit)
			}
			if seen[d.name] {
				return fmt.Errorf("metric %s defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	return nil
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	gate              error // first correctness gate that failed, nil if all held
	vals              map[string]float64
}

func newResult() *result { return &result{vals: map[string]float64{}} }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the last line of a run: every metric of defs
// (missing per-layer metrics read 0, a missing end-to-end metric is
// an error), plus the gate verdict and call counts.
func (r *result) resultLine(defs []metricDef, required bool) ([]byte, error) {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.gate == nil, r.attempted, r.failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	return json.Marshal(out)
}
