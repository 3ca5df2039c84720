// Package thedb is a main-memory OLTP database engine implementing
// transaction healing — the concurrency-control mechanism of
// "Transaction Healing: Scaling Optimistic Concurrency Control on
// Multicores" (Wu, Chan, Tan; SIGMOD 2016) — together with the
// baseline protocols its evaluation compares against: conventional
// OCC, Silo's OCC variant, no-wait two-phase locking, an OCC→2PL
// hybrid, and an H-Store-style deterministic partitioned engine.
//
// # Quick start
//
//	db, _ := thedb.Open(thedb.Config{Protocol: thedb.Healing, Workers: 4})
//	db.MustCreateTable(thedb.Schema{
//	    Name:    "ACCOUNTS",
//	    Columns: []thedb.ColumnDef{{Name: "balance", Kind: thedb.KindInt}},
//	})
//	db.MustRegister(transferSpec) // a *thedb.Spec stored procedure
//	db.Start()
//	defer db.Close()
//
//	s := db.Session(0)
//	env, err := s.Run("Transfer", thedb.Int(1), thedb.Int(20))
//
// Stored procedures are written against the declarative operation IR
// of package proc (re-exported here): each operation declares the
// variables it consumes — split into key inputs and value inputs —
// and produces, which is what lets the engine heal an invalidated
// transaction by restoring only its non-serializable operations
// instead of aborting it.
package thedb

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/core"
	"thedb/internal/det"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/oracle"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

// Re-exported storage types: values, tuples, keys, schemas.
type (
	// Value is a single column value.
	Value = storage.Value
	// Tuple is one row of column values.
	Tuple = storage.Tuple
	// Key is a 64-bit primary key.
	Key = storage.Key
	// Schema describes a table.
	Schema = storage.Schema
	// ColumnDef describes one column.
	ColumnDef = storage.ColumnDef
	// SecondaryDef declares a string-keyed ordered secondary index.
	SecondaryDef = storage.SecondaryDef
	// ValueKind discriminates column value types.
	ValueKind = storage.ValueKind
)

// Re-exported procedure IR types.
type (
	// Spec is a stored procedure definition.
	Spec = proc.Spec
	// Op is one operation of a procedure.
	Op = proc.Op
	// OpCtx is the execution context handed to operation bodies.
	OpCtx = proc.OpCtx
	// Env is a transaction's variable environment.
	Env = proc.Env
	// Builder collects a procedure invocation's operations.
	Builder = proc.Builder
)

// Value constructors and kinds.
var (
	// Int builds an integer value.
	Int = storage.Int
	// Float builds a floating-point value.
	Float = storage.Float
	// Str builds a string value.
	Str = storage.Str
	// Null is the SQL-style null value.
	Null = storage.Null
	// UserAbort builds an application-initiated abort error.
	UserAbort = proc.UserAbort
	// NewEnv builds an empty variable environment (mainly for
	// inspecting dependency graphs via Spec.Instantiate).
	NewEnv = proc.NewEnv
	// PackKey packs key components into a Key.
	PackKey = storage.PackKey
)

// Column kinds.
const (
	KindNull   = storage.KindNull
	KindInt    = storage.KindInt
	KindFloat  = storage.KindFloat
	KindString = storage.KindString
)

// Typed engine failures, re-exported for callers (and the network
// serving plane) to classify with errors.Is.
var (
	// ErrContended reports that a transaction spent its retry budget
	// on every rung of the contention degradation ladder. Retryable
	// after backoff.
	ErrContended = core.ErrContended
	// ErrNoSuchProc reports an unregistered procedure name.
	ErrNoSuchProc = core.ErrNoSuchProc
	// ErrRecoveryFailed reports that recovery left the database in an
	// undefined state (command replay failed partway): the instance is
	// poisoned and every subsequent transaction fails with this error.
	// Restore from scratch instead of retrying.
	ErrRecoveryFailed = errors.New("thedb: recovery failed, database poisoned")
	// ErrReadOnlyTxn reports a write attempted inside a snapshot
	// transaction (RunSnapshot / SnapshotRead).
	ErrReadOnlyTxn = core.ErrReadOnlyTxn
)

// Protocol selects the concurrency-control mechanism.
type Protocol int

// Protocols, named as the paper's systems (§5).
const (
	// Healing is transaction healing (THEDB), the paper's
	// contribution.
	Healing Protocol = iota
	// OCC is conventional optimistic concurrency control with
	// abort-and-restart (THEDB-OCC).
	OCC
	// Silo is Silo's commit protocol (THEDB-SILO).
	Silo
	// TPL is no-wait two-phase locking (THEDB-2PL).
	TPL
	// Hybrid retries OCC validation failures under 2PL
	// (THEDB-HYBRID).
	Hybrid
	// OCCNoValidate disables OCC validation — non-serializable; it
	// measures peak no-abort throughput (THEDB-OCC⁻).
	OCCNoValidate
	// SiloNoValidate is the Silo analogue (THEDB-SILO⁻).
	SiloNoValidate
	// Deterministic is the partitioned single-threaded-per-partition
	// engine with coarse partition locks (THEDB-DT).
	Deterministic
)

// String names the protocol as the paper does.
func (p Protocol) String() string {
	if p == Deterministic {
		return "THEDB-DT"
	}
	return core.Protocol(p).String()
}

// OrderMode selects the global validation order (§4.2.1, §4.5).
type OrderMode = core.OrderMode

// Validation orders.
const (
	// AddrOrder validates in record-address order.
	AddrOrder = core.AddrOrder
	// TreeOrder validates in schema-tree order (§4.5), the healing
	// default.
	TreeOrder = core.TreeOrder
	// ReverseTreeOrder is the worst-case order (THEDB-W, App. G).
	ReverseTreeOrder = core.ReverseTreeOrder
)

// LogMode selects what the write-ahead log records (Appendix C).
type LogMode = wal.Mode

// Logging modes.
const (
	// ValueLogging logs record after-images.
	ValueLogging = wal.ValueLogging
	// CommandLogging logs procedure names and arguments.
	CommandLogging = wal.CommandLogging
)

// Config configures a database instance.
type Config struct {
	// Protocol selects the concurrency-control mechanism.
	Protocol Protocol

	// Workers is the number of execution sessions (default 1).
	Workers int

	// Partitions is the partition count for the Deterministic
	// protocol (default Workers).
	Partitions int

	// Order overrides the validation order; zero keeps the protocol
	// default (TreeOrder for Healing, AddrOrder otherwise).
	Order OrderMode
	// OrderSet marks Order as explicitly chosen.
	OrderSet bool

	// EpochInterval is the commit-epoch period (default 10ms, §4.3).
	EpochInterval time.Duration

	// DisableAccessCache turns off the per-operation access cache
	// (Table 4 ablation): healing degrades to abort-and-restart.
	DisableAccessCache bool

	// DisableReadCopies turns off per-read column copies and with
	// them false-invalidation elimination (§4.5).
	DisableReadCopies bool

	// DetailedMetrics enables per-phase timing (Fig. 19).
	DetailedMetrics bool

	// LogSink, when non-nil, enables durability: worker i's log
	// stream goes to LogSink(i) (Appendix C). Sinks must not be
	// shared between workers. Sinks implementing Syncer (os.File
	// does) are synced on each epoch advance, and an epoch is only
	// reported durable — see Metrics().DurableEpoch — once every
	// stream has reached stable storage.
	LogSink func(worker int) io.Writer

	// LogMode selects value or command logging.
	LogMode LogMode

	// WALSet, when non-nil, logs each worker into the set's rotating
	// generation files (see OpenWALSet) instead of a fixed LogSink —
	// the layout checkpoints can truncate. Checkpoint images live in
	// the set's directory, and Recover boots from it. Its logging is
	// ignored if LogSink is also set.
	WALSet *WALSet

	// SyncRetries bounds retries of a failed epoch log sync before
	// the engine degrades to a durability-lost state (default 3).
	SyncRetries int

	// SyncBackoff is the initial delay between sync retries,
	// doubling per retry (default 1ms).
	SyncBackoff time.Duration

	// MaxLockAttempts bounds no-wait lock retries during healing
	// membership updates (§4.2.2).
	MaxLockAttempts int

	// RetryBudget bounds failed attempts per rung of the contention
	// degradation ladder: a transaction escalates Healing → OCC → 2PL
	// as each rung's budget is spent and fails with a typed
	// contention error past the last rung, instead of retrying
	// forever. Zero (the default) disables the ladder.
	RetryBudget int

	// EventBuffer enables the flight recorder: each worker (plus the
	// epoch advancer) gets a lock-free ring holding the last
	// EventBuffer protocol events, dumped via DumpEvents or served at
	// /debug/events by ObsHandler. Zero (the default) disables
	// recording entirely — the per-event cost is then a single nil
	// check. Rounded up to a power of two. Not supported by the
	// Deterministic engine.
	EventBuffer int

	// TraceBuffer enables per-transaction tracing: every transaction
	// accumulates phase timings (queue wait, execute, validate, each
	// heal pass with restored-op counts, commit, WAL append) and the
	// completed trace passes a tail-sampling filter into a bounded ring
	// of the last TraceBuffer retained traces — slow, aborted, healed
	// and contended transactions always kept, clean fast commits
	// dropped. Served at /debug/trace by ObsHandler. Zero (the default)
	// disables tracing; the per-transaction cost is then one nil check.
	// Not supported by the Deterministic engine.
	TraceBuffer int

	// TraceSlow is the latency threshold above which a committed
	// transaction counts as slow for tail sampling and histogram
	// exemplars (default 0 = only aborted/healed/contended transactions
	// are retained).
	TraceSlow time.Duration

	// TraceExemplars attaches the most recent slow trace ID to the
	// latency histogram in OpenMetrics exemplar syntax. Off by default
	// because strict Prometheus 0.0.4 parsers may reject the suffix.
	TraceExemplars bool

	// ContentionK enables the hot-key contention profiler: a
	// space-saving top-K sketch fed from validation-failure and
	// heal-start sites, served at /debug/contention and exposed as the
	// thedb_contention_topk metric series. Zero (the default) disables
	// it. Not supported by the Deterministic engine.
	ContentionK int

	// Oracle, when non-nil, records every committed transaction's
	// read/write footprint with its commit timestamp for an offline
	// serializability check (oracle.Recorder.Check) after the run.
	// Meant for torture tests; it keeps all commits in memory. Not
	// supported by the Deterministic engine.
	Oracle *oracle.Recorder
}

// DB is a database instance: a catalog of tables plus one engine.
type DB struct {
	cfg     Config
	catalog *storage.Catalog
	eng     *core.Engine // nil for Deterministic
	deng    *det.Engine  // nil otherwise
	logger  *wal.Logger
	rec     *obs.Recorder   // nil unless Config.EventBuffer > 0
	tracer  *obs.Tracer     // nil unless Config.TraceBuffer > 0
	cont    *obs.Contention // nil unless Config.ContentionK > 0
	started bool

	ck      *checkpoint.Checkpointer // background checkpointer, if any
	ckstats metrics.Checkpoint

	// poisoned latches after a failed recovery: the store may hold a
	// partially replayed state, so every transaction is refused with
	// ErrRecoveryFailed rather than serving undefined data.
	poisoned atomic.Bool
}

// Open creates an empty database. Create tables and register
// procedures, then call Start.
func Open(cfg Config) (*DB, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	db := &DB{cfg: cfg, catalog: storage.NewCatalog()}
	return db, nil
}

// CreateTable adds a table to the catalog. All tables must be created
// before Start.
func (db *DB) CreateTable(schema Schema) error {
	_, err := db.catalog.CreateTable(schema)
	return err
}

// MustCreateTable is CreateTable panicking on error.
func (db *DB) MustCreateTable(schema Schema) {
	if err := db.CreateTable(schema); err != nil {
		panic(err)
	}
}

// Register adds a stored procedure. For the Deterministic protocol,
// use RegisterPartitioned instead so the engine knows the partition
// set.
func (db *DB) Register(spec *Spec) error {
	db.ensureEngines()
	if db.deng != nil {
		return fmt.Errorf("thedb: deterministic protocol requires RegisterPartitioned for %q", spec.Name)
	}
	return db.eng.Register(spec)
}

// MustRegister is Register panicking on error.
func (db *DB) MustRegister(spec *Spec) {
	if err := db.Register(spec); err != nil {
		panic(err)
	}
}

// RegisterPartitioned adds a stored procedure with its partition-set
// function (Deterministic protocol only). home must return the
// partitions the invocation touches given its arguments.
func (db *DB) RegisterPartitioned(spec *Spec, home func(args []Value) []int) error {
	db.ensureEngines()
	if db.deng == nil {
		return fmt.Errorf("thedb: RegisterPartitioned requires the Deterministic protocol")
	}
	return db.deng.Register(&det.Proc{Spec: spec, Home: home})
}

// MustRegisterPartitioned is RegisterPartitioned panicking on error.
func (db *DB) MustRegisterPartitioned(spec *Spec, home func(args []Value) []int) {
	if err := db.RegisterPartitioned(spec, home); err != nil {
		panic(err)
	}
}

func (db *DB) ensureEngines() {
	if db.eng != nil || db.deng != nil {
		return
	}
	if db.cfg.Protocol == Deterministic {
		parts := db.cfg.Partitions
		if parts <= 0 {
			parts = db.cfg.Workers
		}
		db.deng = det.NewEngine(db.catalog, parts, db.cfg.Workers)
		return
	}
	if db.cfg.LogSink == nil && db.cfg.WALSet != nil {
		db.cfg.LogSink = db.cfg.WALSet.Sink
	}
	if db.cfg.LogSink != nil {
		db.logger = wal.NewLogger(db.cfg.LogMode, db.cfg.Workers, db.cfg.LogSink)
	}
	if db.cfg.EventBuffer > 0 {
		db.rec = obs.NewRecorder(db.cfg.Workers, db.cfg.EventBuffer)
	}
	if db.cfg.TraceBuffer > 0 {
		db.tracer = obs.NewTracer(db.cfg.TraceBuffer, db.cfg.TraceSlow)
	}
	if db.cfg.ContentionK > 0 {
		db.cont = obs.NewContention(db.cfg.ContentionK)
	}
	db.eng = core.NewEngine(db.catalog, core.Options{
		Protocol: core.Protocol(db.cfg.Protocol),
		Workers:  db.cfg.Workers,
		Order:    db.cfg.Order,
		// A non-default Order counts as explicitly chosen even
		// without OrderSet (AddrOrder, the zero value, still needs
		// the flag).
		OrderSet:        db.cfg.OrderSet || db.cfg.Order != AddrOrder,
		EpochInterval:   db.cfg.EpochInterval,
		NoAccessCache:   db.cfg.DisableAccessCache,
		NoReadCopies:    db.cfg.DisableReadCopies,
		DetailedMetrics: db.cfg.DetailedMetrics,
		MaxLockAttempts: db.cfg.MaxLockAttempts,
		RetryBudget:     db.cfg.RetryBudget,
		SyncRetries:     db.cfg.SyncRetries,
		SyncBackoff:     db.cfg.SyncBackoff,
		Logger:          db.logger,
		Recorder:        db.rec,
		Tracer:          db.tracer,
		Contention:      db.cont,
		Oracle:          db.cfg.Oracle,
	})
}

// Start launches background services (epoch advancer, garbage
// collector). Population (see Load) must happen before Start or
// between transactions.
func (db *DB) Start() {
	db.ensureEngines()
	if db.eng != nil && !db.started {
		db.eng.Start()
	}
	db.started = true
}

// Close stops background services and closes the log: every stream
// is sealed, flushed and synced. The returned error aggregates all
// per-stream flush and sync failures (errors.Join); a nil return
// means everything logged so far is on stable storage.
func (db *DB) Close() error {
	db.StopCheckpoints()
	var err error
	if db.eng != nil && db.started {
		err = db.eng.Stop()
	}
	db.started = false
	return err
}

// Table gives raw (non-transactional) access to a table for
// population and inspection.
func (db *DB) Table(name string) (*storage.Table, bool) {
	return db.catalog.Table(name)
}

// Catalog exposes the underlying catalog (population helpers,
// checkpointing).
func (db *DB) Catalog() *storage.Catalog { return db.catalog }

// Session returns execution context i in [0, Workers). A session
// must be driven by one goroutine at a time.
func (db *DB) Session(i int) *Session {
	db.ensureEngines()
	if db.deng != nil {
		return &Session{db: db, dw: db.deng.Worker(i)}
	}
	return &Session{db: db, w: db.eng.Worker(i)}
}

// Workers returns the configured session count: valid session indexes
// are [0, Workers).
func (db *DB) Workers() int { return db.cfg.Workers }

// SnapshotRead runs fn as a read-only snapshot transaction on session
// 0 — the convenience entry point for ad-hoc analytics against a
// running instance. It inherits session 0's single-goroutine contract:
// callers sharing session 0 must serialize with it. See
// Session.SnapshotRead for the semantics.
func (db *DB) SnapshotRead(fn func(ctx OpCtx) error) error {
	return db.Session(0).SnapshotRead(fn)
}

// HasProcedure reports whether a stored procedure is registered under
// name. The network server consults it to reject unknown procedures
// before burning a transaction attempt.
func (db *DB) HasProcedure(name string) bool {
	db.ensureEngines()
	if db.deng != nil {
		return db.deng.Has(name)
	}
	_, ok := db.eng.Spec(name)
	return ok
}

// Metrics aggregates all sessions' counters over the given wall-clock
// duration.
func (db *DB) Metrics(wall time.Duration) *metrics.Aggregate {
	if db.deng != nil {
		return db.deng.Metrics(wall)
	}
	return db.eng.Metrics(wall)
}

// LiveMetrics snapshots all sessions' counters while transactions are
// in flight — unlike Metrics, which requires quiescence. The snapshot
// is epoch-consistent: counters are read atomically and the scan
// retries if the global epoch advances mid-read. Wall time (for TPS)
// runs from Start. Returns nil on the Deterministic engine, which has
// no live-snapshot path.
func (db *DB) LiveMetrics() *metrics.Aggregate {
	if db.deng != nil || db.eng == nil {
		return nil
	}
	return db.eng.LiveMetrics()
}

// Event is one decoded flight-recorder entry (see Config.EventBuffer).
type Event = obs.Event

// Events returns the flight recorder's surviving events merged across
// all rings in recording order. Empty unless Config.EventBuffer > 0.
func (db *DB) Events() []Event {
	if db.rec == nil {
		return nil
	}
	return db.rec.Events()
}

// DumpEvents writes the flight recorder's merged, time-ordered event
// interleaving — one line per event naming the worker, epoch and
// protocol checkpoint — resolving table IDs through the catalog.
// A no-op unless Config.EventBuffer > 0.
func (db *DB) DumpEvents(w io.Writer) {
	if db.rec == nil {
		return
	}
	db.rec.DumpWith(w, db.tableName)
}

func (db *DB) tableName(id int) string {
	if tab := db.catalog.TableByID(id); tab != nil {
		return tab.Schema().Name
	}
	return fmt.Sprintf("table#%d", id)
}

// ObsPlane returns an observability plane wired to this database's
// live metrics and flight recorder. Callers can attach further
// sources (e.g. the network server's counters via SetServerStats)
// before serving plane.Handler().
func (db *DB) ObsPlane() *obs.Plane {
	db.ensureEngines()
	p := obs.NewPlane()
	p.SetSource(db.LiveMetrics)
	p.SetRecorder(db.rec, db.tableName)
	p.SetCheckpointStats(&db.ckstats)
	p.SetTracer(db.tracer, db.cfg.TraceExemplars)
	p.SetContention(db.cont)
	return p
}

// Tracer returns the transaction trace ring (nil unless
// Config.TraceBuffer > 0).
func (db *DB) Tracer() *obs.Tracer {
	db.ensureEngines()
	return db.tracer
}

// Contention returns the hot-key contention sketch (nil unless
// Config.ContentionK > 0).
func (db *DB) Contention() *obs.Contention {
	db.ensureEngines()
	return db.cont
}

// ObsHandler returns the observability HTTP handler: /metrics
// (Prometheus text format of LiveMetrics), /debug/events (flight
// recorder dump, 404 when EventBuffer is 0), /debug/trace (retained
// transaction traces, 404 when TraceBuffer is 0), /debug/contention
// (hot-key sketch, 404 when ContentionK is 0) and /debug/pprof/.
// Mount it on any mux or serve it with obs.StartServer.
func (db *DB) ObsHandler() http.Handler {
	return db.ObsPlane().Handler()
}

// ResetMetrics clears all sessions' counters.
func (db *DB) ResetMetrics() {
	if db.deng != nil {
		db.deng.ResetMetrics()
		return
	}
	db.eng.ResetMetrics()
}

// Session is one execution thread's handle.
type Session struct {
	db *DB
	w  *core.Worker
	dw *det.Worker
}

// Run executes a stored procedure to completion, retrying internal
// conflicts per the configured protocol. It returns the variable
// environment holding the procedure's outputs, or the application's
// abort error.
func (s *Session) Run(procName string, args ...Value) (*Env, error) {
	if s.db != nil && s.db.poisoned.Load() {
		return nil, ErrRecoveryFailed
	}
	if s.dw != nil {
		return s.dw.Run(procName, args...)
	}
	return s.w.Run(procName, args...)
}

// RunAdhoc executes a procedure as an ad-hoc transaction (§4.8):
// plain OCC with abort-and-restart, no healing.
func (s *Session) RunAdhoc(procName string, args ...Value) (*Env, error) {
	if s.db != nil && s.db.poisoned.Load() {
		return nil, ErrRecoveryFailed
	}
	if s.dw != nil {
		return s.dw.Run(procName, args...)
	}
	return s.w.RunAdhoc(procName, args...)
}

// Transact runs fn as an anonymous ad-hoc transaction — the
// interactive-query path (§4.8). fn's reads and writes go through the
// OpCtx primitives; the transaction is serialized with plain OCC and
// fn may re-run after conflicts, so it must be idempotent apart from
// its OpCtx effects. Not available on the Deterministic engine, whose
// execution model requires partition sets known up front.
func (s *Session) Transact(fn func(ctx OpCtx) error) error {
	if s.db != nil && s.db.poisoned.Load() {
		return ErrRecoveryFailed
	}
	if s.dw != nil {
		return fmt.Errorf("thedb: Transact is not supported on the deterministic engine")
	}
	return s.w.Transact(fn)
}

// RunSnapshot executes a stored procedure as a read-only snapshot
// transaction (DESIGN.md §16): it pins an epoch-consistent snapshot at
// start, resolves every read against the record version visible at
// that snapshot, and commits with zero validation — no read-set
// tracking, no healing, no aborts, and no interference with concurrent
// writers. Any write primitive inside the procedure fails with
// ErrReadOnlyTxn. Long analytical scans run at a stable snapshot
// without ever invalidating or being invalidated. Not available on the
// Deterministic engine.
func (s *Session) RunSnapshot(procName string, args ...Value) (*Env, error) {
	if s.db != nil && s.db.poisoned.Load() {
		return nil, ErrRecoveryFailed
	}
	if s.dw != nil {
		return nil, fmt.Errorf("thedb: RunSnapshot is not supported on the deterministic engine")
	}
	return s.w.RunSnapshot(procName, args...)
}

// SnapshotRead runs fn as an anonymous read-only snapshot transaction:
// fn's reads go through the usual OpCtx primitives against one
// epoch-consistent snapshot; writes fail with ErrReadOnlyTxn. fn runs
// exactly once — snapshot transactions never restart. Not available on
// the Deterministic engine.
func (s *Session) SnapshotRead(fn func(ctx OpCtx) error) error {
	if s.db != nil && s.db.poisoned.Load() {
		return ErrRecoveryFailed
	}
	if s.dw != nil {
		return fmt.Errorf("thedb: SnapshotRead is not supported on the deterministic engine")
	}
	return s.w.TransactSnapshot(fn)
}

// SetTraceContext primes the session's next transaction with
// caller-supplied trace context: the wire trace ID (0 = mint one
// locally), queue wait in microseconds, and the admission wall clock
// in nanoseconds (0 = stamp at first execution). A no-op when tracing
// is off or on the Deterministic engine.
func (s *Session) SetTraceContext(id uint64, queueUS, startNS int64) {
	if s.w != nil {
		s.w.SetTraceContext(id, queueUS, startNS)
	}
}

// LastTrace reports where the session's previous transaction landed
// in the trace ring: the slot (-1 when dropped by tail sampling or
// tracing is off) and its trace ID. The serving plane uses it to
// amend response-write time via Tracer.AmendResp.
func (s *Session) LastTrace() (slot int, id uint64) {
	if s.w != nil {
		return s.w.LastTrace()
	}
	return -1, 0
}

// Metrics returns this session's private counters.
func (s *Session) Metrics() *metrics.Worker {
	if s.dw != nil {
		return s.dw.Metrics()
	}
	return s.w.Metrics()
}
