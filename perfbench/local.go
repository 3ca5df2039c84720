package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"thedb"
	"thedb/internal/metrics"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/workload/tpcc"
	"thedb/internal/workload/ycsb"
	"thedb/internal/workload/zipf"
)

const (
	ycsbRecords  = 100_000
	ycsbFieldLen = 8
	ycsbTheta    = 0.8

	// setupReps is how many times a run sets up its database; setup_s
	// is the median.
	setupReps = 3

	// traceBuffer is the trace ring size of a traced run.
	traceBuffer = 8192

	// tpccUserAbortCeiling bounds tpcc-local's user aborts per
	// attempted transaction. The spec's only designed rollback is 1%
	// of NewOrder, about 0.45% of the mix; a share well past it means
	// the generator asks for rows the database does not hold.
	tpccUserAbortCeiling = 0.02
)

// localWorkload is a workload driven through in-process sessions.
type localWorkload struct {
	tables   func(db *thedb.DB)
	populate func(db *thedb.DB, seed int64) error
	gen      func(seed int64, client int) func() request
	specs    []*proc.Spec
	// getKeys names the table and keys a request reads by primary
	// key, for timing storage lookups.
	getKeys func(r request) (string, []storage.Key)
	check   func(db *thedb.DB, seed int64, attempted int64, aborts map[string]int64) error
	// rate bounds commits per second, to size the sample buffers.
	rate int
}

var ycsbLocal = &localWorkload{
	tables: func(db *thedb.DB) {
		db.MustCreateTable(ycsb.Schema())
		for _, s := range ycsb.Specs() {
			db.MustRegister(s)
		}
	},
	populate: func(db *thedb.DB, _ int64) error {
		return ycsb.Populate(db.Catalog(), ycsbRecords, ycsbFieldLen)
	},
	gen:   ycsbGen,
	specs: ycsb.Specs(),
	getKeys: func(r request) (string, []storage.Key) {
		return ycsb.TabUser, []storage.Key{storage.Key(r.args[0].Int())}
	},
	check: func(db *thedb.DB, _ int64, _ int64, aborts map[string]int64) error {
		for why, n := range aborts {
			return fmt.Errorf("ycsb: %d calls on populated keys aborted (%s)", n, why)
		}
		tab, _ := db.Table(ycsb.TabUser)
		if n := tab.Len(); n != ycsbRecords {
			return fmt.Errorf("ycsb: table holds %d rows, want %d", n, ycsbRecords)
		}
		return nil
	},
	rate: 400_000,
}

// ycsbGen draws YCSB-A: half reads, half single-field updates, over
// zipf-skewed keys.
func ycsbGen(seed int64, client int) func() request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	zg := zipf.New(ycsbRecords, ycsbTheta)
	vals := make([]storage.Value, 256)
	for i := range vals {
		vals[i] = storage.Str(fmt.Sprintf("c%d-%08x", client, rng.Uint32()))
	}
	return func() request {
		k := storage.Int(int64(zg.Next(rng.Float64())))
		if rng.Intn(100) < 50 {
			return request{proc: ycsb.ProcRead, args: []storage.Value{k}}
		}
		f := storage.Int(int64(rng.Intn(ycsb.Fields)))
		return request{proc: ycsb.ProcUpdate, args: []storage.Value{k, f, vals[rng.Intn(len(vals))]}}
	}
}

// tpccScale is the spec scale: one warehouse, so every client is
// homed on warehouse 1 and the districts are the hot spot.
func tpccScale(seed int64) tpcc.Config {
	cfg := tpcc.Standard(1)
	cfg.Seed = seed
	return cfg
}

var tpccLocal = &localWorkload{
	tables: func(db *thedb.DB) {
		for _, s := range tpcc.Schemas(0) {
			db.MustCreateTable(s)
		}
		for _, s := range tpcc.Specs() {
			db.MustRegister(s)
		}
	},
	populate: func(db *thedb.DB, seed int64) error {
		return tpcc.Populate(db.Catalog(), tpccScale(seed))
	},
	gen: func(seed int64, client int) func() request {
		g := tpcc.NewGen(tpccScale(seed), tpcc.StandardMix(), client)
		return func() request {
			r := g.Next()
			return request{proc: r.Proc, args: r.Args}
		}
	},
	specs: tpcc.Specs(),
	getKeys: func(r request) (string, []storage.Key) {
		if r.proc != tpcc.ProcNewOrder {
			return "", nil
		}
		// NewOrder args: w, d, c, ol_cnt, date, rollback, then
		// (item, supplier warehouse, quantity) per line.
		var keys []storage.Key
		for i := 6; i+2 < len(r.args); i += 3 {
			keys = append(keys, tpcc.StockKey(r.args[i+1].Int(), r.args[i].Int()))
		}
		return tpcc.TabStock, keys
	},
	check: func(db *thedb.DB, seed int64, attempted int64, aborts map[string]int64) error {
		if err := tpcc.CheckConsistency(db.Catalog(), tpccScale(seed)); err != nil {
			return err
		}
		var n int64
		for _, v := range aborts {
			n += v
		}
		if share := ratio(float64(n), float64(attempted)); share > tpccUserAbortCeiling {
			return fmt.Errorf("tpcc: %.2f%% of transactions user-aborted, above the %.0f%% ceiling (causes: %v)",
				100*share, 100*tpccUserAbortCeiling, aborts)
		}
		return nil
	},
	rate: 40_000,
}

// open sets the database up: schema, populate, start.
func (w *localWorkload) open(seed int64, traced bool) (*thedb.DB, time.Duration, error) {
	cfg := thedb.Config{Protocol: thedb.Healing, Workers: clients}
	if traced {
		cfg.DetailedMetrics = true
		cfg.TraceBuffer = traceBuffer
	}
	t0 := time.Now()
	db, err := thedb.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	w.tables(db)
	if err := w.populate(db, seed); err != nil {
		return nil, 0, err
	}
	db.Start()
	return db, time.Since(t0), nil
}

// localRun is one measured stretch on one database.
type localRun struct {
	*record
	cpu      time.Duration
	ms0, ms1 runtime.MemStats
	m0, m1   *metrics.Aggregate
}

// measure warms db up, then runs the workload for dur with tracing as
// the database was opened.
func (w *localWorkload) measure(db *thedb.DB, l *loop, seed int64, dur time.Duration) *localRun {
	sessions := make([]*thedb.Session, clients)
	gens := make([]func() request, clients)
	for c := range sessions {
		sessions[c] = db.Session(c)
		gens[c] = w.gen(seed, c)
	}
	do := func(c int, r request) error {
		_, err := sessions[c].Run(r.proc, r.args...)
		return err
	}
	r := &localRun{}
	r.record, _ = l.measure(gens, do, dur, func() (func() error, error) {
		r.m0 = db.Metrics(0)
		r.ms0 = memStats()
		cpu0 := cpuSelf()
		return func() error {
			r.cpu = cpuSelf() - cpu0
			r.ms1 = memStats()
			r.m1 = db.Metrics(0)
			return nil
		}, nil
	})
	return r
}

func (w *localWorkload) run(o opts) (*result, error) {
	if o.traced {
		return w.runTraced(o)
	}
	res := newResult()
	l := newLoop(clients, w.rate/clients, o.dur, 1)
	var db *thedb.DB
	var base uint64
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
		}
		base = liveHeap()
		var d time.Duration
		var err error
		if db, d, err = w.open(o.seed, false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r := w.measure(db, l, o.seed, o.dur)
	mem := float64(liveHeap()) - float64(base)
	// The baseline holds the loop's sample buffers, so the end figure
	// must too: collected, they would come off mem_mb, and their size
	// follows the run's length.
	runtime.KeepAlive(l)
	res.gate = w.check(db, o.seed, r.attempted, r.aborts)
	if err := db.Close(); err != nil {
		return nil, err
	}
	genAllocs, _ := r.replay(w.gen, o.seed)
	r.report(res)

	res.vals["throughput_tps"] = r.sum.tps
	res.vals["latency_p50_us"] = r.sum.p50
	res.vals["latency_p95_us"] = r.sum.p95
	res.vals["cpu_us_per_txn"] = ratio(float64(r.cpu.Microseconds()), float64(r.commits))
	res.vals["allocs_per_txn"] = ratio(float64(r.ms1.Mallocs-r.ms0.Mallocs)-float64(genAllocs), float64(r.commits))
	res.vals["mem_mb"] = mem / 1e6
	res.vals["setup_s"] = median(setups)
	fmt.Printf("setup_s runs %v\n", setups)
	return res, nil
}

// runTraced fills the per-layer metrics: an untraced half for the
// counts, a traced half for the phase clocks and the tracing
// overhead, then calls into proc and storage on the run's own
// requests.
func (w *localWorkload) runTraced(o opts) (*result, error) {
	res := newResult()
	half := o.dur / 2
	l := newLoop(clients, w.rate/clients, half, 1)

	db, _, err := w.open(o.seed, false)
	if err != nil {
		return nil, err
	}
	a := w.measure(db, l, o.seed, half)
	res.gate = w.check(db, o.seed, a.attempted, a.aborts)
	if err := db.Close(); err != nil {
		return nil, err
	}
	a.report(res)
	engineCounts(res, a.m0, a.m1, a.wall)
	res.vals["gc.cycles_per_ktxn"] = 1000 * ratio(float64(a.ms1.NumGC-a.ms0.NumGC), float64(a.commits))
	res.vals["gc.pause_ms_total"] = float64(a.ms1.PauseTotalNs-a.ms0.PauseTotalNs) / 1e6
	genCost(res, a.record, w.gen, o.seed)

	db, _, err = w.open(o.seed, true)
	if err != nil {
		return nil, err
	}
	b := w.measure(db, l, o.seed, half)
	if err := db.Close(); err != nil {
		return nil, err
	}
	if total, kept := db.Tracer().Stats(); total > 0 {
		fmt.Printf("traced half: %d transactions traced, %d retained\n", total, kept)
	}
	phases(res, b.m0, b.m1)
	res.vals["obs.trace_overhead_pct"] = 100 * ratio(a.sum.tps-b.sum.tps, a.sum.tps)

	reqs := drawRequests(w.gen, o.seed, clients, 20_000)
	res.vals["proc.instantiate_ns"], res.vals["proc.instantiate_allocs"] = instantiateCost(w.specs, reqs)
	res.vals["storage.get_ns"] = getCost(db.Catalog(), reqs, w.getKeys)
	return res, nil
}

// genCost fills the generator's own cost per request from a replay
// of the measured run's streams.
func genCost(res *result, r *record, gen func(int64, int) func() request, seed int64) {
	allocs, dur := r.replay(gen, seed)
	res.vals["workload.gen_allocs_per_txn"] = ratio(float64(allocs), float64(r.drawn()))
	res.vals["workload.gen_ns_per_txn"] = ratio(float64(dur.Nanoseconds()), float64(r.drawn()))
}

// engineCounts fills the per-layer counts read from the engine's
// aggregate (DB.Metrics, or /metrics over the network) between two
// snapshots wall apart.
func engineCounts(res *result, m0, m1 *metrics.Aggregate, wall time.Duration) {
	commits := float64(m1.Committed - m0.Committed)
	restarts := float64(m1.Restarts - m0.Restarts)
	heals := float64(m1.Heals - m0.Heals)
	res.vals["core.commit_ratio"] = ratio(commits, commits+restarts)
	res.vals["core.heals_per_ktxn"] = 1000 * ratio(heals, commits)
	res.vals["core.healed_ops_per_heal"] = ratio(float64(m1.HealedOps-m0.HealedOps), heals)
	res.vals["core.restarts_per_ktxn"] = 1000 * ratio(restarts, commits)
	res.vals["core.false_inval_per_ktxn"] = 1000 * ratio(float64(m1.FalseInval-m0.FalseInval), commits)
	res.vals["core.versions_installed_per_ktxn"] = 1000 * ratio(float64(m1.VersionsInstalled-m0.VersionsInstalled), commits)
	res.vals["core.snapshot_read_share"] = ratio(float64(m1.SnapshotReads-m0.SnapshotReads), commits)
	res.vals["mvcc.versions_reclaimed"] = float64(m1.MVCCVersionsReclaimed - m0.MVCCVersionsReclaimed)
	res.vals["wal.bytes_per_txn"] = ratio(float64(m1.WALBytes-m0.WALBytes), commits)
	res.vals["wal.frames_per_txn"] = ratio(float64(m1.WALFrames-m0.WALFrames), commits)
	res.vals["wal.syncs_per_s"] = ratio(float64(m1.LogSyncs-m0.LogSyncs), wall.Seconds())
	res.vals["wal.sync_failures"] = float64(m1.LogSyncFailures - m0.LogSyncFailures)
}

// phases fills the per-transaction phase times of the engine's phase
// clock between two snapshots.
func phases(res *result, m0, m1 *metrics.Aggregate) {
	commits := float64(m1.Committed - m0.Committed)
	per := func(p metrics.Phase) float64 {
		return ratio(float64(m1.PhaseNS[p]-m0.PhaseNS[p])/1e3, commits)
	}
	res.vals["core.read_us_per_txn"] = per(metrics.PhaseRead)
	res.vals["core.validate_us_per_txn"] = per(metrics.PhaseValidate)
	res.vals["core.write_us_per_txn"] = per(metrics.PhaseWrite)
	res.vals["core.heal_us_per_txn"] = per(metrics.PhaseHeal)
	res.vals["core.abort_us_per_txn"] = per(metrics.PhaseAbort)
}
