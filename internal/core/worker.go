package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"thedb/internal/fault"
	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/proc"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

// Worker is one execution thread's context: its metrics collector,
// its commit-timestamp state, and its private log stream. A worker
// must be driven by at most one goroutine at a time.
type Worker struct {
	e        *Engine
	id       int
	m        metrics.Worker
	lastTS   uint64
	wlog     *wal.WorkerLog
	rngState uint64

	// curArgs holds the running procedure's argument vector for
	// command logging.
	curArgs []storage.Value

	// trace is the per-transaction scratch trace record; traceOn marks
	// it active for the transaction currently in runLoop. traceStart is
	// the monotonic instant phase offsets are measured from. The
	// scratch lives in the worker so the commit fast path records a
	// trace without allocating.
	trace      obs.Trace
	traceOn    bool
	traceStart time.Time

	// pendingTrace* carry caller-supplied trace context (a wire trace
	// ID, queue wait, admission wall clock) into the next runLoop;
	// consumed once by beginTrace.
	pendingTraceID uint64
	pendingQueueUS int64
	pendingStartNS int64

	// lastTraceSlot/lastTraceID report where the previous transaction's
	// trace landed in the tracer ring (slot -1 = dropped or tracing
	// off), so the serving plane can amend response-write time after
	// the fact.
	lastTraceSlot int
	lastTraceID   uint64
}

func newWorker(e *Engine, id int) *Worker {
	w := &Worker{e: e, id: id, rngState: uint64(id)*2685821657736338717 + 88172645463325252,
		lastTraceSlot: -1}
	if e.opts.Logger != nil {
		w.wlog = e.opts.Logger.Worker(id)
	}
	return w
}

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// Unlogged runs fn with this worker's commits kept out of the
// write-ahead log (command-log recovery re-executes commands that are
// still in the log it replays).
func (w *Worker) Unlogged(fn func() error) error {
	wlog := w.wlog
	w.wlog = nil
	defer func() { w.wlog = wlog }()
	return fn()
}

// Metrics returns the worker's collector.
func (w *Worker) Metrics() *metrics.Worker { return &w.m }

// event records a flight-recorder event on this worker's ring,
// stamped with the current global epoch. With tracing disabled
// (Options.Recorder nil, the default) the entire call is one pointer
// check and must stay allocation-free — the hot paths call it
// unconditionally.
//
//thedb:noalloc
func (w *Worker) event(k obs.Kind, a, b uint64) {
	if r := w.e.rec; r != nil {
		var tid uint64
		if w.traceOn {
			tid = w.trace.ID
		}
		r.RecordT(w.id, k, w.e.epoch.Current(), a, b, tid)
	}
}

// SetTraceContext primes the next transaction with caller-supplied
// trace context: the wire trace ID (0 = mint one locally), queue wait
// in microseconds, and the wall-clock admission instant in
// nanoseconds (0 = stamp at first execution). The context is consumed
// by the next Run/RunAdhoc/Transact and has no effect when tracing is
// off. Same single-goroutine contract as the run methods.
func (w *Worker) SetTraceContext(id uint64, queueUS, startNS int64) {
	w.pendingTraceID = id
	w.pendingQueueUS = queueUS
	w.pendingStartNS = startNS
}

// LastTrace reports where the previous transaction's trace landed:
// the tracer ring slot (-1 when it was dropped by tail sampling or
// tracing is off) and its trace ID, for post-response amendment via
// Tracer.AmendResp.
func (w *Worker) LastTrace() (slot int, id uint64) {
	return w.lastTraceSlot, w.lastTraceID
}

// beginTrace arms the worker's scratch trace for one transaction,
// consuming any pending caller context. Untraced callers get an ID
// minted from the worker-local xorshift (nonzero, so recorder events
// still correlate).
func (w *Worker) beginTrace(start time.Time, procName string) {
	id := w.pendingTraceID
	queueUS := w.pendingQueueUS
	startNS := w.pendingStartNS
	w.pendingTraceID, w.pendingQueueUS, w.pendingStartNS = 0, 0, 0
	if id == 0 {
		w.rngState = w.rngState*6364136223846793005 + 1442695040888963407
		id = w.rngState | 1
	}
	if startNS == 0 {
		startNS = start.UnixNano()
	}
	w.trace = obs.Trace{
		ID:      id,
		Proc:    procName,
		Worker:  int32(w.id),
		StartNS: startNS,
		QueueUS: queueUS,
	}
	w.traceStart = start
	w.traceOn = true
}

// finishTrace completes the scratch trace and offers it to the
// tracer's tail-retention ring. This sits on the commit fast path:
// with tracing off it is never reached (one nil check in runLoop);
// with tracing on it must not allocate.
//
//thedb:noalloc
func (w *Worker) finishTrace(outcome obs.TraceOutcome, lat time.Duration, attempts int) {
	w.trace.Outcome = outcome
	w.trace.TotalUS = int64(lat / time.Microsecond)
	w.trace.Attempts = uint32(attempts)
	w.trace.Epoch = w.e.epoch.Current()
	w.lastTraceSlot = w.e.tracer.Keep(&w.trace)
	w.lastTraceID = w.trace.ID
	w.traceOn = false
}

// tracePass records one completed healing pass in the scratch trace.
// Passes beyond MaxHealPasses are counted but lose their detail row.
func (w *Worker) tracePass(start, end time.Duration, restored, frontier int) {
	if n := w.trace.NPasses; n < obs.MaxHealPasses {
		w.trace.Passes[n] = obs.HealPass{
			StartUS:  int64(start / time.Microsecond),
			EndUS:    int64(end / time.Microsecond),
			Restored: uint32(restored),
			Frontier: uint32(frontier),
		}
	}
	w.trace.NPasses++
}

// Run executes the named stored procedure to completion under the
// engine's protocol, retrying aborted attempts (down the degradation
// ladder when Options.RetryBudget is set). It returns the final
// variable environment (query results) or the application abort
// error.
func (w *Worker) Run(procName string, args ...storage.Value) (*proc.Env, error) {
	return w.run(procName, args, false)
}

// RunAdhoc executes the procedure as an ad-hoc transaction (§4.8):
// no access cache is maintained and validation failures abort and
// restart under plain OCC, regardless of the engine protocol.
func (w *Worker) RunAdhoc(procName string, args ...storage.Value) (*proc.Env, error) {
	return w.run(procName, args, true)
}

// Transact executes fn as an anonymous ad-hoc transaction: fn's reads
// and writes go through the usual OpCtx primitives and the
// transaction commits under plain OCC with abort-and-restart (§4.8 —
// ad-hoc transactions carry no dependency information, so they cannot
// be healed). fn may run multiple times; it must be idempotent apart
// from its OpCtx effects.
func (w *Worker) Transact(fn func(ctx proc.OpCtx) error) error {
	spec := &proc.Spec{
		Name: "adhoc",
		Plan: func(b *proc.Builder, _ *proc.Env) {
			b.Op(proc.Op{Name: "adhoc", Body: fn})
		},
	}
	w.curArgs = nil
	_, err := w.runLoop(spec, "adhoc", true, proc.NewEnv)
	return err
}

func (w *Worker) run(procName string, args []storage.Value, adhoc bool) (*proc.Env, error) {
	spec, ok := w.e.specs[procName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchProc, procName)
	}
	w.curArgs = args
	return w.runLoop(spec, procName, adhoc, func() *proc.Env { return buildEnv(spec, args) })
}

// runLoop drives one transaction to commit or permanent failure down
// the degradation ladder: each rung retries under one protocol until
// its budget is spent, then the ladder escalates to a less optimistic
// rung; past the last rung the transaction fails with ErrContended.
// The loop also keeps the worker's epoch registration fresh, so the
// stuck-epoch watchdog can tell a worker wedged inside an attempt
// from one that is merely between transactions.
func (w *Worker) runLoop(spec *proc.Spec, procName string, adhoc bool, mkEnv func() *proc.Env) (*proc.Env, error) {
	start := time.Now()
	lad := newLadder(&w.e.opts, adhoc)
	if w.e.tracer != nil {
		w.beginTrace(start, procName)
	}
	defer w.e.epoch.Idle(w.id)
	for {
		w.e.epoch.Refresh(w.id)
		env := mkEnv()
		prog := spec.Instantiate(env)
		err := w.attempt(prog, env, procName, adhoc, lad)
		if err == nil {
			lat := time.Since(start)
			w.m.Inc(&w.m.Committed)
			w.m.ObserveLatency(lat)
			w.event(obs.KCommit, w.lastTS, uint64(lat/time.Microsecond))
			if w.traceOn {
				w.finishTrace(obs.TraceCommitted, lat, lad.total+1)
			}
			return env, nil
		}
		if errors.Is(err, errRestart) {
			w.m.Inc(&w.m.Restarts)
			prevRung := lad.idx
			if !lad.next(&w.m) {
				w.m.Inc(&w.m.BudgetExhausted)
				w.m.Inc(&w.m.Aborted)
				w.event(obs.KAbort, uint64(obs.AbortContended), uint64(lad.total))
				if w.traceOn {
					w.finishTrace(obs.TraceContended, time.Since(start), lad.total)
				}
				return env, fmt.Errorf("%w: %q gave up after %d attempts", ErrContended, procName, lad.total)
			}
			if lad.idx != prevRung {
				w.event(obs.KLadderEscalate, uint64(lad.rungs[prevRung].proto), uint64(lad.proto()))
				if w.traceOn {
					w.trace.Escalations++
				}
			}
			w.backoff(lad.spent)
			continue
		}
		// Application abort: permanent.
		w.m.Inc(&w.m.Aborted)
		w.event(obs.KAbort, uint64(obs.AbortUser), uint64(lad.total))
		if w.traceOn {
			w.finishTrace(obs.TraceAborted, time.Since(start), lad.total+1)
		}
		return env, err
	}
}

// rung is one step of the degradation ladder: a protocol and how many
// failed attempts it absorbs before the ladder escalates (0 = no
// bound).
type rung struct {
	proto  Protocol
	budget int
}

// ladder tracks a transaction's descent from optimistic to
// pessimistic execution (DESIGN.md §10): healing stops paying off
// once the same transaction keeps invalidating, plain OCC restarts
// stop paying off under sustained conflict, and 2PL is the rung that
// cannot livelock. With no retry budget configured the ladder reduces
// to the legacy policies — a single unbounded rung, or OCC-then-2PL
// for THEDB-HYBRID.
type ladder struct {
	rungs []rung
	idx   int
	spent int // failed attempts on the current rung
	total int // failed attempts overall
}

func newLadder(opts *Options, adhoc bool) *ladder {
	base := opts.Protocol
	if adhoc && (base == Healing || base == Hybrid) {
		// Ad-hoc transactions carry no dependency information (§4.8):
		// they run under plain OCC.
		base = OCC
	}
	budget := opts.RetryBudget
	if budget <= 0 {
		if base == Hybrid {
			// OCC first; after any OCC validation abort rerun under
			// 2PL (references [28, 52, 60]).
			return &ladder{rungs: []rung{{OCC, 1}, {TPL, 0}}}
		}
		return &ladder{rungs: []rung{{base, 0}}}
	}
	switch base {
	case Healing:
		return &ladder{rungs: []rung{{Healing, budget}, {OCC, budget}, {TPL, budget}}}
	case Hybrid:
		return &ladder{rungs: []rung{{OCC, budget}, {TPL, budget}}}
	case OCC, Silo:
		return &ladder{rungs: []rung{{base, budget}, {TPL, budget}}}
	case TPL:
		return &ladder{rungs: []rung{{TPL, budget}}}
	default:
		// The no-validate protocols never restart; a budget is moot.
		return &ladder{rungs: []rung{{base, 0}}}
	}
}

// proto returns the current rung's protocol.
func (l *ladder) proto() Protocol { return l.rungs[l.idx].proto }

// next consumes one failed attempt and reports whether another may
// run, escalating to the next rung — and resetting the per-rung
// attempt counter, so backoff jitter restarts from its shortest
// window — when the current budget is spent.
func (l *ladder) next(m *metrics.Worker) bool {
	l.total++
	l.spent++
	if b := l.rungs[l.idx].budget; b > 0 && l.spent >= b {
		l.idx++
		l.spent = 0
		if l.idx >= len(l.rungs) {
			return false
		}
		m.Inc(&m.HealingFallbacks)
	}
	return true
}

// backoff sleeps after a restart with capped exponential jitter. It
// breaks restart livelocks between symmetric transactions — the same
// role randomized backoff plays in production OCC and no-wait 2PL
// engines. The first couple of retries are free (short conflicts
// resolve on their own), and the sleep is cut short when the engine
// stops so shutdown is never held up by sleeping retriers.
func (w *Worker) backoff(attempt int) {
	if attempt < 2 {
		runtime.Gosched()
		return
	}
	shift := attempt
	if shift > 8 {
		shift = 8
	}
	// 1-2^shift µs of jitter from a cheap worker-local xorshift.
	w.rngState = w.rngState*6364136223846793005 + 1442695040888963407
	jitter := (w.rngState >> 33) % (uint64(1) << shift)
	w.sleepOrStop(time.Duration(1+jitter) * time.Microsecond)
}

// sleepOrStop sleeps for d or until the engine stops, whichever comes
// first.
func (w *Worker) sleepOrStop(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.e.stopC:
	}
}

// chaosPoint consults the chaos schedule (when configured) at a
// protocol checkpoint and obeys the drawn perturbation. ActRestart
// surfaces as errRestart, which the caller handles exactly like a
// validation abort.
func (w *Worker) chaosPoint(cp fault.Checkpoint) error {
	s := w.e.opts.Chaos
	if s == nil {
		return nil
	}
	act, d := s.At(w.id, cp)
	switch act {
	case fault.ActYield:
		runtime.Gosched()
	case fault.ActDelay, fault.ActStall:
		w.sleepOrStop(d)
	case fault.ActRestart:
		return errRestart
	}
	return nil
}

// attempt executes one try of the transaction under the ladder's
// current protocol. It returns nil on commit, errRestart when the
// attempt must be retried, or a permanent application error.
func (w *Worker) attempt(prog *proc.Program, env *proc.Env, procName string, adhoc bool, lad *ladder) error {
	proto := lad.proto()

	t := newTxn(w, prog, env, adhoc)
	t.useTPL = proto == TPL
	// A 2PL rung running under an optimistic engine protocol must
	// serialize with concurrent optimistic transactions, which only
	// respect the record meta lock — so it locks through that word.
	t.tplMeta = t.useTPL && w.e.opts.Protocol != TPL
	// Fallback rungs run a different protocol than the engine's: skip
	// the healing bookkeeping their validation will never consume.
	t.noTrack = proto != Healing
	// Liveness guard for the multicore-interleaving emulation: after
	// repeated restarts, run an attempt without yielding so its
	// conflict window collapses and it commits (a long transaction
	// such as TPC-C Delivery could otherwise starve forever under
	// stretched windows; real multicores do not stretch windows by
	// the worker count).
	t.noYield = lad.total > 8

	// Tracing needs the same phase clocks as detailed metrics; the
	// trace accumulates across attempts (a restarted attempt's work is
	// real latency), while the per-phase counters stay gated on
	// DetailedMetrics alone.
	detailed := w.e.opts.DetailedMetrics
	traced := w.traceOn
	timed := detailed || traced
	var tRead, tValidate, tHeal, tWrite time.Duration
	attemptStart := time.Now()

	fail := func(err error) error {
		t.finish(false)
		if detailed {
			w.m.AddPhase(metrics.PhaseAbort, time.Since(attemptStart))
		}
		return err
	}

	// Phase clocks are boundary timestamps: each phase ends where the
	// next begins, so a fully timed commit costs four clock reads per
	// attempt, not a start/stop pair per phase. A chaos stall drawn at
	// the pre-validation checkpoint lands in the validate phase, which
	// is exactly the window it stretches.
	err := t.readPhase()
	valStart := attemptStart
	if timed {
		valStart = time.Now()
		tRead = valStart.Sub(attemptStart)
	}
	if traced {
		w.trace.ExecUS += int64(tRead / time.Microsecond)
		w.trace.Proto = uint8(proto)
	}
	if err != nil {
		if errors.Is(err, errRestart) {
			return fail(errRestart) // 2PL no-wait conflict
		}
		return fail(err) // application abort
	}
	if err := w.chaosPoint(fault.PreValidation); err != nil {
		return fail(err)
	}

	switch proto {
	case Healing:
		err := t.validateHealing()
		writeStart := valStart
		if timed {
			writeStart = time.Now()
			tHeal = t.healDur
			tValidate = writeStart.Sub(valStart) - tHeal
		}
		if traced {
			w.trace.ValidateUS += int64(tValidate / time.Microsecond)
			w.trace.HealUS += int64(tHeal / time.Microsecond)
		}
		if err != nil {
			return fail(err)
		}
		err = t.commit(procName)
		if timed {
			tWrite = time.Since(writeStart)
		}
		if traced {
			w.trace.CommitUS += int64(tWrite / time.Microsecond)
		}
		if err != nil {
			return fail(err)
		}
	case OCC, OCCNoValidate, Silo, SiloNoValidate:
		var err error
		if proto == OCC || proto == OCCNoValidate {
			err = t.validateOCC(proto == OCCNoValidate)
		} else {
			err = t.validateSilo(proto == SiloNoValidate)
		}
		writeStart := valStart
		if timed {
			writeStart = time.Now()
			tValidate = writeStart.Sub(valStart)
		}
		if traced {
			w.trace.ValidateUS += int64(tValidate / time.Microsecond)
		}
		if err != nil {
			return fail(err)
		}
		err = t.commit(procName)
		if timed {
			tWrite = time.Since(writeStart)
		}
		if traced {
			w.trace.CommitUS += int64(tWrite / time.Microsecond)
		}
		if err != nil {
			return fail(err)
		}
	case TPL:
		// Locks were taken during the read phase; no validation, so
		// install directly.
		err := t.commit(procName)
		if timed {
			tWrite = time.Since(valStart)
		}
		if traced {
			w.trace.CommitUS += int64(tWrite / time.Microsecond)
		}
		if err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("core: unsupported protocol %v", proto))
	}

	if detailed {
		w.m.AddPhase(metrics.PhaseRead, tRead)
		w.m.AddPhase(metrics.PhaseValidate, tValidate)
		w.m.AddPhase(metrics.PhaseHeal, tHeal)
		w.m.AddPhase(metrics.PhaseWrite, tWrite)
	}
	return nil
}

// buildEnv seeds the environment with named parameters and positional
// aliases ($0, $1, ...) so variadic procedures can address argument
// tails beyond their named prefix.
func buildEnv(spec *proc.Spec, args []storage.Value) *proc.Env {
	env := proc.NewEnv()
	for i, a := range args {
		if i < len(spec.Params) {
			env.SetVal(spec.Params[i], a)
		}
		env.SetVal(fmt.Sprintf("$%d", i), a)
	}
	return env
}
