package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"thedb/client"
	"thedb/internal/proc"
	"thedb/internal/wire"
)

func TestPercentileCountsSamples(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
		n    int
	}{
		{nil, 50, 0, 0},
		{[]float64{7}, 99, 7, 1},
		{[]float64{4, 1, 3, 2}, 50, 2.5, 4},
		{[]float64{4, 1, 3, 2}, 0, 1, 4},
		{[]float64{4, 1, 3, 2}, 100, 4, 4},
		// p99 of 1..10 sits between the two largest: rank 8.91.
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 99, 9.91, 10},
	}
	for _, c := range cases {
		got, n := percentile(append([]float64(nil), c.xs...), c.p)
		if math.Abs(got-c.want) > 1e-9 || n != c.n {
			t.Errorf("percentile(%v, %v) = %v over %d samples, want %v over %d", c.xs, c.p, got, n, c.want, c.n)
		}
	}
}

func TestGroupedPercentileStaysInUnit(t *testing.T) {
	// Truncated microseconds: a recorded 3 stands for [3, 4).
	vals := []int64{1, 3, 3, 3, 3, 9}
	got := groupedPercentile(vals, 50)
	if got < 3 || got >= 4 {
		t.Fatalf("grouped p50 = %v, want within [3, 4)", got)
	}
	// Rank 3 of 6 falls after one value below 3 and two of the four
	// 3s: 3 + (3-1)/4.
	if want := 3.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("grouped p50 = %v, want %v", got, want)
	}
	if groupedPercentile(nil, 50) != 0 {
		t.Fatal("grouped percentile of no values must be 0")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want outcome
		why  string
	}{
		{nil, committed, ""},
		{proc.UserAbort("item not found"), userAbort, "item not found"},
		{fmt.Errorf("run: %w", proc.UserAbort("delete of non-existent record NEW_ORDER[42]")), userAbort,
			"delete of non-existent record NEW_ORDER"},
		{&wire.RemoteError{Code: wire.CodeAbort, Msg: "insufficient funds"}, userAbort, "insufficient funds"},
		{&wire.RemoteError{Code: wire.CodeInternal, Msg: "boom"}, failed, ""},
		// Shed past the client's retries is a failure, not a rejection.
		{fmt.Errorf("client: 8 retries exhausted: %w", &wire.RemoteError{Code: wire.CodeShed}), failed, ""},
		{&client.MaybeCommittedError{Cause: errors.New("conn reset")}, failed, ""},
		{errors.New("dial tcp: refused"), failed, ""},
	}
	for _, c := range cases {
		got, why := classify(c.err)
		if got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.err, got, c.want)
		}
		if c.want == userAbort && why != c.why {
			t.Errorf("classify(%v) reason = %q, want %q", c.err, why, c.why)
		}
	}
}

func TestBalanceDigest(t *testing.T) {
	a := []int64{20000, 0, 35, 20000}
	if digest(a) != digest(append([]int64(nil), a...)) {
		t.Fatal("digest of equal balances differs")
	}
	swapped := []int64{0, 20000, 35, 20000}
	if digest(a) == digest(swapped) {
		t.Fatal("digest ignores which account holds a balance")
	}
	if err := compareBalances(a, a); err != nil {
		t.Fatalf("equal balances: %v", err)
	}
	b := append([]int64(nil), a...)
	b[2]++
	if err := compareBalances(a, b); err == nil || !strings.Contains(err.Error(), "account 2") {
		t.Fatalf("changed balance: got %v, want an error naming account 2", err)
	}
	if err := compareBalances(a, a[:3]); err == nil {
		t.Fatal("missing account not reported")
	}
}

func TestMetricNames(t *testing.T) {
	if err := checkDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "has space", "semi;colon", ".leading", strings.Repeat("x", 65)} {
		if checkDefs([]metricDef{{bad, "s", "lower"}}) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if checkDefs([]metricDef{{"a", "s", "lower"}}, []metricDef{{"a", "s", "lower"}}) == nil {
		t.Error("repeated name accepted")
	}
	var setup bool
	for _, d := range endToEnd {
		setup = setup || (d.name == "setup_s" && d.unit == "s")
	}
	if !setup {
		t.Error("end-to-end metrics lack setup_s in s")
	}
}

func TestResultLine(t *testing.T) {
	r := newResult()
	r.attempted = 10
	if _, err := r.resultLine(endToEnd, true); err == nil {
		t.Fatal("a run missing end-to-end metrics was rendered")
	}
	line, err := r.resultLine(perLayer, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(line), `{"correct":true,"attempted":10,"failed":0,"metrics":{`) {
		t.Fatalf("result line %s", line)
	}
	r.vals["core.commit_ratio"] = math.NaN()
	if _, err := r.resultLine(perLayer, false); err == nil {
		t.Fatal("NaN rendered")
	}
}

func TestParseProm(t *testing.T) {
	m, err := parseProm(strings.NewReader(`# HELP thedb_up up
# TYPE thedb_up gauge
thedb_up 1
thedb_committed_total 42
thedb_phase_seconds_total{phase="read"} 0.5
thedb_txn_latency_seconds_bucket{le="0.001"} 7 # {trace_id="ab"} 0.0009
`))
	if err != nil {
		t.Fatal(err)
	}
	if m["thedb_committed_total"] != 42 || m[`thedb_phase_seconds_total{phase="read"}`] != 0.5 ||
		m[`thedb_txn_latency_seconds_bucket{le="0.001"}`] != 7 {
		t.Fatalf("parsed %v", m)
	}
	a := promAggregate(m)
	if a.Committed != 42 || a.PhaseNS[0] != 5e8 {
		t.Fatalf("aggregate %+v", a.Counters)
	}
}

func TestGeneratorsRepeatPerSeed(t *testing.T) {
	for name, gen := range map[string]func(int64, int) func() request{
		"ycsb": ycsbGen, "tpcc": tpccLocal.gen, "smallbank": sbGen,
	} {
		a, b, c := drawRequests(gen, 7, 2, 200), drawRequests(gen, 7, 2, 200), drawRequests(gen, 8, 2, 200)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: one seed gave two request streams", name)
		}
		if fmt.Sprint(a) == fmt.Sprint(c) {
			t.Errorf("%s: two seeds gave one request stream", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	var bounds []float64
	setup := 0.0
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		bounds = append(bounds, m.Bound)
	}
	sort.Float64s(bounds)
	if setup != bounds[len(bounds)-1] {
		t.Errorf("setup_s bound %v is not the largest (%v)", setup, bounds)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

func TestSummarizePoolsQuietWindows(t *testing.T) {
	win := func(steal float64, commits int64, lat ...float64) window {
		return window{dur: time.Second, steal: steal, commits: commits, latUS: lat}
	}
	// One crowded window among quiet ones is left out; the rest pool.
	s := summarize([]window{win(0, 10, 1, 2), win(0.01, 30, 3, 4), win(0.30, 1, 100)})
	if s.quiet != 2 || s.tps != 20 || s.samples != 4 || s.p50 != 2.5 {
		t.Fatalf("summary %+v, want 2 quiet windows, 20 txn/s, p50 2.5 over 4 samples", s)
	}
	// Disturbed throughout: the windows at or below the median steal.
	s = summarize([]window{win(0.20, 10, 1), win(0.10, 30, 3), win(0.40, 1, 100)})
	if s.quiet != 2 || s.tps != 20 {
		t.Fatalf("summary %+v, want the 2 least stolen windows at 20 txn/s", s)
	}
}
