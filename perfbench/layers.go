package main

import (
	"fmt"
	"time"

	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/wire"
)

// drawRequests draws the first n requests of a run's streams, evenly
// from each of its clients' generators.
func drawRequests(gen func(int64, int) func() request, seed int64, streams, n int) []request {
	var out []request
	for c := 0; c < streams; c++ {
		g := gen(seed, c)
		for i := 0; i < n/streams; i++ {
			out = append(out, g())
		}
	}
	return out
}

// argEnv binds a request's arguments the way a session does before
// planning: by parameter name and by position ($0, $1, ...).
func argEnv(spec *proc.Spec, args []storage.Value) *proc.Env {
	env := proc.NewEnv()
	for i, a := range args {
		if i < len(spec.Params) {
			env.SetVal(spec.Params[i], a)
		}
		env.SetVal(fmt.Sprintf("$%d", i), a)
	}
	return env
}

// instantiateCost replays requests through Spec.Instantiate, the
// planning and dependency analysis every transaction starts with, and
// returns its time and allocations per call.
func instantiateCost(specs []*proc.Spec, reqs []request) (ns, allocs float64) {
	byName := map[string]*proc.Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	type call struct {
		spec *proc.Spec
		env  *proc.Env
	}
	calls := make([]call, 0, len(reqs))
	for _, r := range reqs {
		s := byName[r.proc]
		calls = append(calls, call{s, argEnv(s, r.args)})
	}
	var sink *proc.Program
	ms0 := memStats()
	t0 := time.Now()
	for _, c := range calls {
		sink = c.spec.Instantiate(c.env)
	}
	d := time.Since(t0)
	ms1 := memStats()
	_ = sink
	n := float64(len(calls))
	return ratio(float64(d.Nanoseconds()), n), ratio(float64(ms1.Mallocs-ms0.Mallocs), n)
}

// getRounds repeats the lookups so the timed stretch is long enough
// for the clock.
const getRounds = 5

// getCost times Table.Get, the primary-index lookup under every
// point read, on the keys the requests read.
func getCost(cat *storage.Catalog, reqs []request, keysOf func(request) (string, []storage.Key)) float64 {
	var tab *storage.Table
	var keys []storage.Key
	for _, r := range reqs {
		name, ks := keysOf(r)
		if len(ks) == 0 {
			continue
		}
		if tab == nil {
			tab, _ = cat.Table(name)
		}
		keys = append(keys, ks...)
	}
	if tab == nil {
		return 0
	}
	found := 0
	t0 := time.Now()
	for i := 0; i < getRounds; i++ {
		for _, k := range keys {
			if _, ok := tab.Get(k); ok {
				found++
			}
		}
	}
	d := time.Since(t0)
	if found == 0 {
		return 0
	}
	return ratio(float64(d.Nanoseconds()), float64(getRounds*len(keys)))
}

// codecCost encodes and decodes each call and its result frame the
// way client and server do (AppendCall/DecodeCall on the request,
// AppendResult/DecodeResult on the reply) and returns time and
// allocations per call.
func codecCost(calls []wire.Call, results [][]wire.Output) (ns, allocs float64, err error) {
	var cb, rb []byte
	ms0 := memStats()
	t0 := time.Now()
	for i, c := range calls {
		cb = wire.AppendCall(cb[:0], uint64(i+1), c)
		f, _, err := wire.DecodeFrame(cb, 0)
		if err != nil {
			return 0, 0, err
		}
		if _, err := wire.DecodeCall(f.Payload); err != nil {
			return 0, 0, err
		}
		rb = wire.AppendResult(rb[:0], uint64(i+1), results[i])
		if f, _, err = wire.DecodeFrame(rb, 0); err != nil {
			return 0, 0, err
		}
		if _, err := wire.DecodeResult(f.Payload); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(t0)
	ms1 := memStats()
	n := float64(len(calls))
	return ratio(float64(d.Nanoseconds()), n), ratio(float64(ms1.Mallocs-ms0.Mallocs), n), nil
}
