package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"thedb/internal/metrics"
)

// Plane is a process-wide exposition hub: an HTTP handler whose
// live-metrics source and flight recorder can be swapped at runtime,
// so a benchmark harness that creates and destroys engines per cell
// keeps serving /metrics from whichever engine is currently live.
type Plane struct {
	src       atomic.Pointer[source]
	rec       atomic.Pointer[Recorder]
	tableName atomic.Pointer[func(int) string]
	srvStats  atomic.Pointer[metrics.Server]
	ckStats   atomic.Pointer[metrics.Checkpoint]
	recovery  atomic.Pointer[recoveryReport]
	tracer    atomic.Pointer[Tracer]
	cont      atomic.Pointer[Contention]
	exemplars atomic.Bool
}

// recoveryReport boxes the boot recovery report for atomic swap; the
// payload is pre-rendered JSON so the plane needs no knowledge of the
// reporting type.
type recoveryReport struct{ json []byte }

// source boxes the snapshot closure (atomic.Pointer needs a concrete
// pointee type).
type source struct {
	live func() *metrics.Aggregate
}

// NewPlane builds an empty hub; it serves thedb_up until a source is
// attached.
func NewPlane() *Plane { return &Plane{} }

// SetSource attaches the live-snapshot closure (nil detaches).
func (p *Plane) SetSource(live func() *metrics.Aggregate) {
	if live == nil {
		p.src.Store(nil)
		return
	}
	p.src.Store(&source{live: live})
}

// SetRecorder attaches the flight recorder served at /debug/events
// (nil detaches). tableName, optional, resolves table IDs in dumps.
func (p *Plane) SetRecorder(rec *Recorder, tableName func(int) string) {
	p.rec.Store(rec)
	if tableName == nil {
		p.tableName.Store(nil)
	} else {
		p.tableName.Store(&tableName)
	}
}

// SetServerStats attaches the network serving plane's counters (nil
// detaches): /metrics then appends the thedb_server_* series to every
// scrape.
func (p *Plane) SetServerStats(s *metrics.Server) {
	p.srvStats.Store(s)
}

// SetCheckpointStats attaches the checkpoint subsystem's counters
// (nil detaches): /metrics then appends the thedb_checkpoint_* and
// thedb_restart_* series.
func (p *Plane) SetCheckpointStats(c *metrics.Checkpoint) {
	p.ckStats.Store(c)
}

// SetTracer attaches the transaction trace ring served at
// /debug/trace (nil detaches). With exemplars true, /metrics decorates
// the latency histogram buckets with the most recent slow trace ID in
// OpenMetrics exemplar syntax (DESIGN.md §15.5) — off by default
// because strict text-format 0.0.4 parsers may reject the suffix.
func (p *Plane) SetTracer(t *Tracer, exemplars bool) {
	p.tracer.Store(t)
	p.exemplars.Store(exemplars && t != nil)
}

// SetContention attaches the hot-key sketch served at
// /debug/contention and exported as thedb_contention_topk (nil
// detaches).
func (p *Plane) SetContention(c *Contention) {
	p.cont.Store(c)
}

// SetRecoveryReport attaches the boot recovery report served at
// /debug/recovery. rep must be JSON-marshalable; a marshal failure is
// reported by the endpoint, never at set time.
func (p *Plane) SetRecoveryReport(rep any) {
	if rep == nil {
		p.recovery.Store(nil)
		return
	}
	b, err := json.Marshal(rep)
	if err != nil {
		b = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	p.recovery.Store(&recoveryReport{json: b})
}

// Handler returns the exposition mux:
//
//	/metrics           Prometheus text format of the live snapshot
//	/debug/events      flight-recorder dump (merged, time-ordered)
//	/debug/trace       retained transaction traces (JSON), 404 until set
//	/debug/contention  hot-key sketch snapshot (JSON), 404 until set
//	/debug/recovery    boot recovery report (JSON), 404 until set
//	/debug/pprof/      the standard pprof index (worker goroutines carry
//	                   a thedb_worker label when driven via DoWorker)
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var agg *metrics.Aggregate
		if s := p.src.Load(); s != nil {
			agg = s.live()
		}
		var ex *Exemplar
		if t := p.tracer.Load(); t != nil && p.exemplars.Load() {
			if id, us, ok := t.LastSlow(); ok {
				ex = &Exemplar{TraceID: id, ValueUS: us}
			}
		}
		WritePromWith(w, agg, ex)
		if s := p.srvStats.Load(); s != nil {
			WritePromServer(w, s.Snapshot())
		}
		if c := p.ckStats.Load(); c != nil {
			WritePromCheckpoint(w, c)
		}
		if c := p.cont.Load(); c != nil {
			WritePromContention(w, c)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		t := p.tracer.Load()
		if t == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		total, kept := t.Stats()
		resp := struct {
			SlowThresholdUS int64   `json:"slow_threshold_us"`
			Total           uint64  `json:"total"`
			Kept            uint64  `json:"kept"`
			Traces          []Trace `json:"traces"`
		}{
			SlowThresholdUS: t.SlowThreshold().Microseconds(),
			Total:           total,
			Kept:            kept,
			Traces:          t.Snapshot(),
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/contention", func(w http.ResponseWriter, r *http.Request) {
		c := p.cont.Load()
		if c == nil {
			http.Error(w, "contention profiling not enabled", http.StatusNotFound)
			return
		}
		var tn func(int) string
		if f := p.tableName.Load(); f != nil {
			tn = *f
		}
		entries := c.Snapshot()
		type namedEntry struct {
			ContEntry
			TableName string `json:"table_name,omitempty"`
		}
		named := make([]namedEntry, len(entries))
		for i, e := range entries {
			named[i] = namedEntry{ContEntry: e}
			if tn != nil {
				named[i].TableName = tn(e.Table)
			}
		}
		resp := struct {
			K       int          `json:"k"`
			Total   uint64       `json:"total"`
			Entries []namedEntry `json:"entries"`
		}{K: c.K(), Total: c.Total(), Entries: named}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/recovery", func(w http.ResponseWriter, r *http.Request) {
		rep := p.recovery.Load()
		if rep == nil {
			http.Error(w, "no recovery report (fresh start or report not attached)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(rep.json)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		rec := p.rec.Load()
		if rec == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var tn func(int) string
		if f := p.tableName.Load(); f != nil {
			tn = *f
		}
		rec.DumpWith(w, tn)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Server is a running exposition endpoint.
type Server struct {
	l net.Listener
	s *http.Server
}

// StartServer listens on addr (host:port; :0 picks a free port) and
// serves h in the background. The caller owns Close.
func StartServer(addr string, h http.Handler) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// Serve returns ErrServerClosed on Shutdown; nothing to do
		// either way — the endpoint is best-effort by design.
		_ = s.Serve(l)
	}()
	return &Server{l: l, s: s}, nil
}

// Addr returns the bound address (useful with :0).
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close shuts the endpoint down, waiting briefly for in-flight
// scrapes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.s.Shutdown(ctx)
}

// DoWorker runs fn on the calling goroutine with a pprof label
// identifying the worker, so CPU and goroutine profiles taken through
// the exposition endpoint attribute samples per worker
// (runtime/pprof.Do label propagation).
func DoWorker(id int, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("thedb_worker", strconv.Itoa(id)),
		func(context.Context) { fn() })
}
