package server_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"thedb"
	"thedb/internal/obs"
	"thedb/internal/server"
	"thedb/internal/wire"
)

// registerKVInc adds a non-idempotent read-modify-write procedure: the
// one whose double execution the dedup window exists to prevent. KVPut
// cannot tell the story — replaying an upsert is invisible.
func registerKVInc(db *thedb.DB) {
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
					var cur int64
					if ok {
						cur = row[0].Int()
					}
					nv := cur + e.Int("delta")
					e.SetInt("val", nv)
					if ok {
						return ctx.Write("KV", k, []int{0}, []thedb.Value{thedb.Int(nv)})
					}
					return ctx.Insert("KV", k, thedb.Tuple{thedb.Int(nv)})
				},
			})
		},
	})
}

// rawDialSession is rawDial presenting an existing session token, the
// reconnect path of an exactly-once retry.
func rawDialSession(t *testing.T, addr string, session uint64) (net.Conn, *wire.Reader, wire.Welcome) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	if err := nc.SetDeadline(time.Now().Add(15 * time.Second)); err != nil {
		t.Fatalf("deadline: %v", err)
	}
	if _, err := nc.Write(wire.AppendHello(nil, wire.Hello{Client: "dedup-test", Session: session})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	fr := wire.NewReader(nc, wire.DefaultMaxFrame)
	f, err := fr.Next()
	if err != nil || f.Op != wire.OpWelcome {
		t.Fatalf("welcome: op=%d err=%v", f.Op, err)
	}
	w, err := wire.DecodeWelcome(f.Payload)
	if err != nil {
		t.Fatalf("decode welcome: %v", err)
	}
	return nc, fr, w
}

func writeFrames(t *testing.T, nc net.Conn, buf []byte) {
	t.Helper()
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func nextFrame(t *testing.T, fr *wire.Reader) wire.Frame {
	t.Helper()
	f, err := fr.Next()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return f
}

func resultInt(t *testing.T, f wire.Frame, name string) int64 {
	t.Helper()
	if f.Op != wire.OpResult {
		if f.Op == wire.OpError {
			re, _ := wire.DecodeError(f.Payload)
			t.Fatalf("id %d: error %+v, want result", f.ID, re)
		}
		t.Fatalf("id %d: op %s, want result", f.ID, wire.OpName(f.Op))
	}
	outs, err := wire.DecodeResult(f.Payload)
	if err != nil {
		t.Fatalf("decode result: %v", err)
	}
	for _, o := range outs {
		if o.Name == name && len(o.Vals) == 1 {
			return o.Vals[0].Int()
		}
	}
	t.Fatalf("output %q missing from %+v", name, outs)
	return 0
}

// TestDedupReplaysCachedResponse proves the exactly-once core: a
// retried (session, seq) is answered from the window under the new
// request id and the transaction does not run twice. The cached
// counters must also surface in the Prometheus rendering.
func TestDedupReplaysCachedResponse(t *testing.T) {
	db := newKVDB(t, 2, nil)
	registerKVInc(db)
	srv, addr := startServer(t, db, server.Config{})

	nc, fr, w := rawDialSession(t, addr, 0)
	if w.Session == 0 || w.Incarnation == 0 || w.DedupWindow == 0 {
		t.Fatalf("welcome missing session fields: %+v", w)
	}

	writeFrames(t, nc, wire.AppendCall(nil, 1, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(5), thedb.Int(10)},
	}))
	if v := resultInt(t, nextFrame(t, fr), "val"); v != 10 {
		t.Fatalf("first execution val = %d, want 10", v)
	}

	// Retry the same seq under a fresh request id.
	writeFrames(t, nc, wire.AppendCall(nil, 2, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(5), thedb.Int(10)},
	}))
	f := nextFrame(t, fr)
	if f.ID != 2 {
		t.Fatalf("replay answered id %d, want 2", f.ID)
	}
	if v := resultInt(t, f, "val"); v != 10 {
		t.Fatalf("replayed val = %d, want 10 (cached response)", v)
	}

	// The increment applied once: the row still reads 10.
	writeFrames(t, nc, wire.AppendCall(nil, 3, wire.Call{
		Proc: "KVGet", Seq: 2, Args: []thedb.Value{thedb.Int(5)},
	}))
	if v := resultInt(t, nextFrame(t, fr), "val"); v != 10 {
		t.Fatalf("row = %d after replayed retry, want 10 (double apply!)", v)
	}

	snap := srv.Stats().Snapshot()
	if snap.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", snap.DedupHits)
	}
	if snap.DedupEntries != 2 || snap.Sessions != 1 {
		t.Fatalf("DedupEntries = %d Sessions = %d, want 2 and 1", snap.DedupEntries, snap.Sessions)
	}

	var sb strings.Builder
	obs.WritePromServer(&sb, snap)
	out := sb.String()
	for _, want := range []string{
		"thedb_server_dedup_hits_total 1",
		"thedb_server_dedup_entries 2",
		"thedb_server_sessions 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestDedupSurvivesReconnect retries an answered call over a brand-new
// connection presenting the old session token — the actual shape of an
// ambiguous-failure retry after a connection reset.
func TestDedupSurvivesReconnect(t *testing.T) {
	db := newKVDB(t, 2, nil)
	registerKVInc(db)
	srv, addr := startServer(t, db, server.Config{})

	nc1, fr1, w := rawDialSession(t, addr, 0)
	writeFrames(t, nc1, wire.AppendCall(nil, 1, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(7), thedb.Int(3)},
	}))
	if v := resultInt(t, nextFrame(t, fr1), "val"); v != 3 {
		t.Fatalf("val = %d, want 3", v)
	}
	_ = nc1.Close()

	nc2, fr2, w2 := rawDialSession(t, addr, w.Session)
	if w2.Session != w.Session {
		t.Fatalf("rejoin bound session %#x, presented %#x", w2.Session, w.Session)
	}
	writeFrames(t, nc2, wire.AppendCall(nil, 9, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(7), thedb.Int(3)},
	}))
	if v := resultInt(t, nextFrame(t, fr2), "val"); v != 3 {
		t.Fatalf("replayed val = %d, want 3", v)
	}
	writeFrames(t, nc2, wire.AppendCall(nil, 10, wire.Call{
		Proc: "KVGet", Seq: 2, Args: []thedb.Value{thedb.Int(7)},
	}))
	if v := resultInt(t, nextFrame(t, fr2), "val"); v != 3 {
		t.Fatalf("row = %d after cross-connection retry, want 3 (double apply!)", v)
	}
	if got := srv.Stats().Snapshot().DedupHits; got != 1 {
		t.Fatalf("DedupHits = %d, want 1", got)
	}
}

// registerSlowInc adds an increment that sleeps ms milliseconds before
// touching the row, holding its execution open for a racing retry.
func registerSlowInc(db *thedb.DB) {
	db.MustRegister(&thedb.Spec{
		Name:   "SlowInc",
		Params: []string{"key", "ms"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "slowinc",
				KeyReads: []string{"key"},
				ValReads: []string{"ms"},
				Writes:   []string{"val"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					time.Sleep(time.Duration(e.Int("ms")) * time.Millisecond)
					k := thedb.Key(e.Int("key"))
					row, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					var cur int64
					if ok {
						cur = row[0].Int()
					}
					e.SetInt("val", cur+1)
					if ok {
						return ctx.Write("KV", k, []int{0}, []thedb.Value{thedb.Int(cur + 1)})
					}
					return ctx.Insert("KV", k, thedb.Tuple{thedb.Int(cur + 1)})
				},
			})
		},
	})
}

// TestDedupCoalescesConcurrentRetry parks a retry that arrives while
// the original attempt is still executing: both get the answer of the
// single execution.
func TestDedupCoalescesConcurrentRetry(t *testing.T) {
	db := newKVDB(t, 2, nil)
	registerSlowInc(db)
	srv, addr := startServer(t, db, server.Config{})

	ncA, frA, w := rawDialSession(t, addr, 0)
	ncB, frB, _ := rawDialSession(t, addr, w.Session)

	writeFrames(t, ncA, wire.AppendCall(nil, 1, wire.Call{
		Proc: "SlowInc", Seq: 4, Args: []thedb.Value{thedb.Int(1), thedb.Int(200)},
	}))
	time.Sleep(50 * time.Millisecond) // let the original start executing
	writeFrames(t, ncB, wire.AppendCall(nil, 2, wire.Call{
		Proc: "SlowInc", Seq: 4, Args: []thedb.Value{thedb.Int(1), thedb.Int(200)},
	}))

	if v := resultInt(t, nextFrame(t, frA), "val"); v != 1 {
		t.Fatalf("original val = %d, want 1", v)
	}
	if v := resultInt(t, nextFrame(t, frB), "val"); v != 1 {
		t.Fatalf("joined retry val = %d, want 1", v)
	}
	writeFrames(t, ncB, wire.AppendCall(nil, 3, wire.Call{
		Proc: "KVGet", Seq: 5, Args: []thedb.Value{thedb.Int(1)},
	}))
	if v := resultInt(t, nextFrame(t, frB), "val"); v != 1 {
		t.Fatalf("row = %d, want 1 (coalesced retry executed twice)", v)
	}
	if got := srv.Stats().Snapshot().DedupCoalesced; got != 1 {
		t.Fatalf("DedupCoalesced = %d, want 1", got)
	}
}

// TestDedupJoinsRetryWhileDraining: a retry (or a duplicated frame) of
// a call still executing when shutdown begins must join that execution,
// not be refused as draining. A draining refusal tells the client the
// call did not run; it would then re-send to the next incarnation,
// which has no dedup entry, and apply the call twice.
func TestDedupJoinsRetryWhileDraining(t *testing.T) {
	db := newKVDB(t, 2, nil)
	registerSlowInc(db)
	srv, addr := startServer(t, db, server.Config{})

	ncA, frA, w := rawDialSession(t, addr, 0)
	ncB, frB, _ := rawDialSession(t, addr, w.Session)
	writeFrames(t, ncA, wire.AppendCall(nil, 1, wire.Call{
		Proc: "SlowInc", Seq: 4, Args: []thedb.Value{thedb.Int(1), thedb.Int(300)},
	}))
	time.Sleep(50 * time.Millisecond) // let the original start executing
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let the drain begin
	writeFrames(t, ncB, wire.AppendCall(nil, 2, wire.Call{
		Proc: "SlowInc", Seq: 4, Args: []thedb.Value{thedb.Int(1), thedb.Int(300)},
	}))

	if v := resultInt(t, nextFrame(t, frA), "val"); v != 1 {
		t.Fatalf("original val = %d, want 1", v)
	}
	if v := resultInt(t, nextFrame(t, frB), "val"); v != 1 {
		t.Fatalf("retry during drain val = %d, want 1 (joined, not refused)", v)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDedupWindowEviction bounds the window: old completions fall out,
// and a retry of an evicted seq re-executes — the documented limit of
// the exactly-once guarantee.
func TestDedupWindowEviction(t *testing.T) {
	db := newKVDB(t, 2, nil)
	registerKVInc(db)
	srv, addr := startServer(t, db, server.Config{DedupWindow: 4})

	nc, fr, w := rawDialSession(t, addr, 0)
	if w.DedupWindow != 4 {
		t.Fatalf("advertised window = %d, want 4", w.DedupWindow)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		writeFrames(t, nc, wire.AppendCall(nil, seq, wire.Call{
			Proc: "KVInc", Seq: seq, Args: []thedb.Value{thedb.Int(int64(seq)), thedb.Int(1)},
		}))
		if v := resultInt(t, nextFrame(t, fr), "val"); v != 1 {
			t.Fatalf("seq %d val = %d, want 1", seq, v)
		}
	}
	snap := srv.Stats().Snapshot()
	if snap.DedupEvicted != 2 || snap.DedupEntries != 4 {
		t.Fatalf("DedupEvicted = %d DedupEntries = %d, want 2 and 4", snap.DedupEvicted, snap.DedupEntries)
	}

	// Seq 1 was evicted: its retry re-executes and the row shows it.
	writeFrames(t, nc, wire.AppendCall(nil, 7, wire.Call{
		Proc: "KVInc", Seq: 1, Args: []thedb.Value{thedb.Int(1), thedb.Int(1)},
	}))
	if v := resultInt(t, nextFrame(t, fr), "val"); v != 2 {
		t.Fatalf("evicted-seq retry val = %d, want 2 (re-execution)", v)
	}
}

// TestDeadlineBudgetRejectsQueuedCall queues a call with a tiny budget
// behind a slow transaction on a single dispatcher: by pickup time the
// budget is dead and the server must refuse to execute it.
func TestDeadlineBudgetRejectsQueuedCall(t *testing.T) {
	db := newKVDB(t, 1, nil)
	srv, addr := startServer(t, db, server.Config{})

	nc, fr, _ := rawDialSession(t, addr, 0)
	var buf []byte
	buf = wire.AppendCall(buf, 1, wire.Call{Proc: "Slow", Args: []thedb.Value{thedb.Int(150)}})
	buf = wire.AppendCall(buf, 2, wire.Call{Proc: "KVGet", BudgetUS: 2000, Args: []thedb.Value{thedb.Int(1)}})
	writeFrames(t, nc, buf)

	var sawDeadline bool
	for i := 0; i < 2; i++ {
		f := nextFrame(t, fr)
		switch f.ID {
		case 1:
			if f.Op != wire.OpResult {
				t.Fatalf("slow call op = %s, want result", wire.OpName(f.Op))
			}
		case 2:
			re, err := wire.DecodeError(f.Payload)
			if err != nil {
				t.Fatalf("id 2: op=%s err=%v, want deadline error", wire.OpName(f.Op), err)
			}
			if re.Code != wire.CodeDeadline {
				t.Fatalf("id 2 code = %s, want deadline", wire.CodeName(re.Code))
			}
			if re.Retryable() {
				t.Fatalf("deadline error marked retryable")
			}
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatalf("budgeted call was not deadline-rejected")
	}
	if got := srv.Stats().Snapshot().DeadlineRejected; got != 1 {
		t.Fatalf("DeadlineRejected = %d, want 1", got)
	}
}
