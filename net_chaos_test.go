package thedb_test

// Network chaos torture: a fleet of clients drives a deterministic
// per-client workload through a fault-injecting proxy (internal/
// netfault) at a WAL-backed server, while the server is killed and
// restarted from its WAL mid-run. The proxy cuts connections before,
// during and after CALL frames, delays, blackholes and duplicates
// them — manufacturing exactly the ambiguous windows the (session,
// seq) exactly-once machinery exists for.
//
// Invariants checked per seed:
//
//  1. No lost acked commit: every call the client saw succeed is in
//     the final state (keys are disjoint per client, so each client's
//     sequential model is authoritative for its keys).
//  2. No double-apply: KVInc is a read-modify-write, so a replayed or
//     duplicated application is arithmetically visible forever.
//  3. Ambiguity is honest: ErrMaybeCommitted outcomes reconcile to
//     exactly "applied" or "not applied" via read-back — never to a
//     third state.
//  4. Serializability: every incarnation's commit history passes the
//     offline oracle (thedb.Config.Oracle).
//
// The "kill" is a drained shutdown (sealed WAL), not a torn one: this
// test owns network/protocol/dedup semantics across restart;
// ack-vs-durability under torn WAL tails is recovery_torture_test's
// domain.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thedb"
	"thedb/client"
	"thedb/internal/netfault"
	"thedb/internal/oracle"
	"thedb/internal/server"
	"thedb/internal/statecheck"
)

const (
	netChaosClients = 4
	netChaosOps     = 40 // per client
	netChaosKeys    = 16 // per client, remapped to disjoint ranges
)

// chaosSchema registers the KV table and the three procedures the
// fleet drives: blind put, read-modify-write increment (the
// double-apply detector) and get.
func chaosSchema(db *thedb.DB) {
	db.MustCreateTable(thedb.Schema{
		Name:    "KV",
		Columns: []thedb.ColumnDef{{Name: "val", Kind: thedb.KindInt}},
	})
	db.MustRegister(&thedb.Spec{
		Name:   "KVPut",
		Params: []string{"key", "val"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "upsert",
				KeyReads: []string{"key"},
				ValReads: []string{"val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					k := thedb.Key(e.Int("key"))
					_, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					if ok {
						return ctx.Write("KV", k, []int{0}, []thedb.Value{e.Val("val")})
					}
					return ctx.Insert("KV", k, thedb.Tuple{e.Val("val")})
				},
			})
		},
	})
	db.MustRegister(&thedb.Spec{
		Name:   "KVInc",
		Params: []string{"key", "delta"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "inc",
				KeyReads: []string{"key"},
				ValReads: []string{"delta"},
				Writes:   []string{"val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					k := thedb.Key(e.Int("key"))
					row, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					next := e.Int("delta")
					if ok {
						next += row[0].Int()
					}
					e.SetInt("val", next)
					if ok {
						return ctx.Write("KV", k, []int{0}, []thedb.Value{thedb.Int(next)})
					}
					return ctx.Insert("KV", k, thedb.Tuple{thedb.Int(next)})
				},
			})
		},
	})
	db.MustRegister(&thedb.Spec{
		Name:   "KVGet",
		Params: []string{"key"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "get",
				KeyReads: []string{"key"},
				Writes:   []string{"found", "val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read("KV", thedb.Key(e.Int("key")), nil)
					if err != nil {
						return err
					}
					if !ok {
						e.SetInt("found", 0)
						e.SetInt("val", 0)
						return nil
					}
					e.SetInt("found", 1)
					e.SetVal("val", row[0])
					return nil
				},
			})
		},
	})
}

// chaosIncarnation is one server life: a WAL-backed database
// recovered from dir, serving on a loopback listener.
type chaosIncarnation struct {
	srv  *server.Server
	addr string
	done chan error
}

// bootIncarnation recovers a database from dir's WAL tail (exactly as
// cmd/thedb-server boots, minus the checkpoint image — none is ever
// written here) and starts a server on a fresh loopback port. All
// incarnations of one seed share rec: shutdowns are drained, so every
// recorded commit survives into the next life and later reads of
// recovered rows resolve against the earlier incarnations' writes.
func bootIncarnation(t *testing.T, dir string, workers int, rec *oracle.Recorder) *chaosIncarnation {
	t.Helper()
	fs, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		t.Fatalf("open wal set: %v", err)
	}
	db, err := thedb.Open(thedb.Config{
		Protocol:      thedb.Healing,
		Workers:       workers,
		WALSet:        fs,
		LogMode:       thedb.ValueLogging,
		EpochInterval: 2 * time.Millisecond,
		Oracle:        rec,
	})
	if err != nil {
		t.Fatalf("open db: %v", err)
	}
	chaosSchema(db)
	if _, err := db.Recover(nil, thedb.RecoverOptions{Salvage: true}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	db.Start()

	srv := server.New(db, server.Config{DedupWindow: 256})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	inc := &chaosIncarnation{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { inc.done <- srv.Serve(l) }()

	// Probe until the server answers a call: Serve is then provably
	// running, so a racing Shutdown cannot reach it first.
	probe, err := client.Dial(inc.addr, client.Options{})
	if err != nil {
		t.Fatalf("probe dial: %v", err)
	}
	if _, err := probe.Call(context.Background(), "KVGet", thedb.Int(0)); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if err := probe.Close(); err != nil {
		t.Errorf("probe close: %v", err)
	}
	return inc
}

// stop drains and shuts the incarnation down, sealing its WAL.
func (inc *chaosIncarnation) stop(t *testing.T, label string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := inc.srv.Shutdown(ctx); err != nil {
		t.Fatalf("%s: shutdown: %v", label, err)
	}
	if err := <-inc.done; err != nil {
		t.Fatalf("%s: serve: %v", label, err)
	}
}

// cell is one key's expected state in a client's sequential model.
type cell struct {
	present bool
	val     int64
}

// applyOp folds one model op into a cell.
func applyOp(c cell, op statecheck.Op) cell {
	switch op.Kind {
	case statecheck.OpPut:
		return cell{present: true, val: op.Val}
	case statecheck.OpInc:
		return cell{present: true, val: c.val + op.Val}
	}
	return c
}

// readBack resolves an ambiguous outcome by reading the key until the
// answer is definitive. Safe at this point: the ambiguous attempt is
// no longer pending anywhere — either its incarnation was drained
// before the client saw the ambiguity, or every retry was answered
// from the dedup window.
func readBack(ctx context.Context, cl *client.Client, key uint64) (cell, error) {
	var lastErr error
	for try := 0; try < 200; try++ {
		res, err := cl.Call(ctx, "KVGet", thedb.Int(int64(key)))
		if err == nil {
			if res.Val("found").Int() == 0 {
				return cell{}, nil
			}
			return cell{present: true, val: res.Val("val").Int()}, nil
		}
		lastErr = err
		if !errors.Is(err, client.ErrMaybeCommitted) {
			return cell{}, err
		}
		time.Sleep(2 * time.Millisecond) // reads are idempotent: just retry
	}
	return cell{}, fmt.Errorf("read-back never definitive: %w", lastErr)
}

// chaosClient runs one client's sequential workload through the
// proxy, maintaining its authoritative model over its disjoint key
// range and reconciling every ambiguous outcome.
func chaosClient(t *testing.T, proxyAddr string, cid int, ops []statecheck.Op, progress *atomic.Int64, dialed func()) (map[uint64]cell, int, error) {
	cl, err := client.Dial(proxyAddr, client.Options{
		Conns:         1,
		RetryAttempts: 300,
		RetryBase:     500 * time.Microsecond,
		RetryMax:      20 * time.Millisecond,
	})
	dialed()
	if err != nil {
		return nil, 0, fmt.Errorf("client %d: dial: %w", cid, err)
	}
	defer func() {
		if cerr := cl.Close(); cerr != nil {
			t.Errorf("client %d: close: %v", cid, cerr)
		}
	}()
	ctx := context.Background()
	model := make(map[uint64]cell)
	ambiguous := 0
	for i, op := range ops {
		key := uint64(cid)*1000 + op.Key
		var callErr error
		switch op.Kind {
		case statecheck.OpPut:
			_, callErr = cl.Call(ctx, "KVPut", thedb.Int(int64(key)), thedb.Int(op.Val))
		case statecheck.OpInc:
			_, callErr = cl.Call(ctx, "KVInc", thedb.Int(int64(key)), thedb.Int(op.Val))
		}
		progress.Add(1)
		if callErr == nil {
			model[key] = applyOp(model[key], op)
			continue
		}
		if !errors.Is(callErr, client.ErrMaybeCommitted) {
			return nil, 0, fmt.Errorf("client %d: op %d: unexpected definitive error: %w", cid, i, callErr)
		}
		ambiguous++
		ifApplied := applyOp(model[key], op)
		ifNot := model[key]
		if ifApplied == ifNot {
			// Both worlds agree on the state; the model is right either way.
			model[key] = ifApplied
			continue
		}
		got, err := readBack(ctx, cl, key)
		if err != nil {
			return nil, 0, fmt.Errorf("client %d: op %d: %w", cid, i, err)
		}
		switch got {
		case ifApplied:
			model[key] = ifApplied
		case ifNot:
			// Not applied; the model stands.
		default:
			return nil, 0, fmt.Errorf(
				"client %d: op %d (key %d): read-back %+v matches neither applied %+v nor not-applied %+v — partial or double apply",
				cid, i, key, got, ifApplied, ifNot)
		}
	}
	return model, ambiguous, nil
}

// netChaosSeed runs one seeded torture life: boot, fleet through the
// proxy, two mid-run kill+restarts, final model diff and oracle.
func netChaosSeed(t *testing.T, seed int64) {
	dir := t.TempDir()
	workers := 2
	rec := oracle.NewRecorder(workers)
	inc := bootIncarnation(t, dir, workers, rec)

	proxy, err := netfault.New(inc.addr, netfault.Config{
		Seed:       uint64(seed)*0x9E3779B97F4A7C15 + 1,
		PResetPre:  0.02,
		PResetMid:  0.02,
		PResetPost: 0.03,
		PDelay:     0.04,
		PBlackhole: 0.01,
		PDuplicate: 0.02,
		Delay:      time.Millisecond,
		Stall:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer func() {
		if cerr := proxy.Close(); cerr != nil {
			t.Logf("proxy close: %v", cerr)
		}
	}()

	var progress atomic.Int64
	total := int64(netChaosClients * netChaosOps)

	type fleetResult struct {
		model     map[uint64]cell
		ambiguous int
		err       error
	}
	results := make([]fleetResult, netChaosClients)
	var wg, dialed sync.WaitGroup
	dialed.Add(netChaosClients)
	for cid := 0; cid < netChaosClients; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			ops := statecheck.GenOps(seed*131+int64(cid), netChaosOps, netChaosKeys)
			m, amb, err := chaosClient(t, proxy.Addr(), cid, ops, &progress, dialed.Done)
			results[cid] = fleetResult{model: m, ambiguous: amb, err: err}
		}(cid)
	}

	// Kill + restart the server twice, at one-third and two-thirds of
	// fleet progress. The drained shutdown seals the WAL; the next
	// incarnation recovers from it and the proxy is retargeted, so
	// in-flight client retries land on a server with a different
	// incarnation and an empty dedup window — the ambiguity path.
	//
	// Restarts wait until every client has dialed: Dial validates the
	// server with one handshake and does not retry, so a client whose
	// first dial met a restart would fail for the harness's timing.
	dialed.Wait()
	restarts := 0
	for _, target := range []int64{total / 3, 2 * total / 3} {
		for progress.Load() < target {
			time.Sleep(5 * time.Millisecond)
		}
		inc.stop(t, fmt.Sprintf("seed %d incarnation %d", seed, restarts))
		inc = bootIncarnation(t, dir, workers, rec)
		proxy.Retarget(inc.addr)
		proxy.CutAll()
		restarts++
	}
	wg.Wait()

	totalAmbiguous := 0
	for cid := range results {
		if results[cid].err != nil {
			t.Fatalf("seed %d: %v", seed, results[cid].err)
		}
		totalAmbiguous += results[cid].ambiguous
	}

	// Final verification bypasses the proxy: a clean client against
	// the last incarnation reads every key any client ever touched
	// and diffs against the per-client sequential models.
	direct, err := client.Dial(inc.addr, client.Options{})
	if err != nil {
		t.Fatalf("seed %d: direct dial: %v", seed, err)
	}
	ctx := context.Background()
	mismatches := 0
	for cid := range results {
		ops := statecheck.GenOps(seed*131+int64(cid), netChaosOps, netChaosKeys)
		touched := make(map[uint64]bool)
		for _, op := range ops {
			touched[uint64(cid)*1000+op.Key] = true
		}
		for key := range touched {
			want := results[cid].model[key]
			res, err := direct.Call(ctx, "KVGet", thedb.Int(int64(key)))
			if err != nil {
				t.Fatalf("seed %d: final read key %d: %v", seed, key, err)
			}
			got := cell{present: res.Val("found").Int() == 1, val: res.Val("val").Int()}
			if !got.present {
				got.val = 0
			}
			if got != want {
				mismatches++
				t.Errorf("seed %d: client %d key %d: final state %+v, model %+v (lost ack or double apply)",
					seed, cid, key, got, want)
			}
		}
	}
	if err := direct.Close(); err != nil {
		t.Errorf("seed %d: direct close: %v", seed, err)
	}
	if mismatches != 0 {
		t.Fatalf("seed %d: %d key mismatches against the sequential models", seed, mismatches)
	}
	inc.stop(t, fmt.Sprintf("seed %d final incarnation", seed))

	// With every engine stopped, the whole multi-incarnation commit
	// history must be serializable.
	if viols := rec.Check(); len(viols) != 0 {
		for _, v := range viols {
			t.Errorf("seed %d: serializability violation: %+v", seed, v)
		}
		t.Fatalf("seed %d: %d serializability violations", seed, len(viols))
	}

	t.Logf("seed %d: %d ops, %d restarts, %d ambiguous outcomes reconciled, %d faults injected (pre=%d mid=%d post=%d delay=%d hole=%d dup=%d)",
		seed, total, restarts, totalAmbiguous, proxy.Injected(),
		proxy.Count(netfault.FaultResetPreWrite), proxy.Count(netfault.FaultResetMidWrite),
		proxy.Count(netfault.FaultResetPostWrite), proxy.Count(netfault.FaultDelay),
		proxy.Count(netfault.FaultBlackhole), proxy.Count(netfault.FaultDuplicate))
}

// TestNetChaosTorture drives the full matrix of seeds in parallel.
// Every seed replays deterministically on the fault side (the proxy's
// decision streams are seeded); scheduling noise only shifts which
// call meets which fault, never the invariants.
func TestNetChaosTorture(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			netChaosSeed(t, int64(seed))
		})
	}
}
