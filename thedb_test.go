package thedb_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"thedb"
	"thedb/internal/checkpoint"
)

// counterDB builds a tiny database with an Increment procedure.
func counterDB(t testing.TB, cfg thedb.Config) *thedb.DB {
	t.Helper()
	db, err := thedb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(thedb.Schema{
		Name:    "C",
		Columns: []thedb.ColumnDef{{Name: "v", Kind: thedb.KindInt}},
	})
	tab, _ := db.Table("C")
	for k := thedb.Key(0); k < 8; k++ {
		tab.Put(k, thedb.Tuple{thedb.Int(0)}, 0)
	}
	spec := &thedb.Spec{
		Name:   "Incr",
		Params: []string{"k"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "rmw",
				KeyReads: []string{"k"},
				Writes:   []string{"v"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read("C", thedb.Key(e.Int("k")), nil)
					if err != nil {
						return err
					}
					if !ok {
						return thedb.UserAbort("missing counter")
					}
					e.SetInt("v", row[0].Int()+1)
					return ctx.Write("C", thedb.Key(e.Int("k")), []int{0},
						[]thedb.Value{thedb.Int(e.Int("v"))})
				},
			})
		},
	}
	if cfg.Protocol == thedb.Deterministic {
		db.MustRegisterPartitioned(spec, func(args []thedb.Value) []int {
			return []int{int(args[0].Int()) % 2}
		})
	} else {
		db.MustRegister(spec)
	}
	return db
}

func TestEveryProtocolEndToEnd(t *testing.T) {
	protos := []thedb.Protocol{
		thedb.Healing, thedb.OCC, thedb.Silo, thedb.TPL, thedb.Hybrid, thedb.Deterministic,
	}
	for _, p := range protos {
		t.Run(p.String(), func(t *testing.T) {
			db := counterDB(t, thedb.Config{Protocol: p, Workers: 4, Partitions: 2})
			db.Start()
			defer db.Close()

			var wg sync.WaitGroup
			for wi := 0; wi < 4; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					s := db.Session(wi)
					for i := 0; i < 250; i++ {
						if _, err := s.Run("Incr", thedb.Int(int64(i%8))); err != nil {
							t.Error(err)
							return
						}
					}
				}(wi)
			}
			wg.Wait()

			tab, _ := db.Table("C")
			var total int64
			for k := thedb.Key(0); k < 8; k++ {
				rec, _ := tab.Peek(k)
				total += rec.Tuple()[0].Int()
			}
			if total != 1000 {
				t.Fatalf("total = %d, want 1000", total)
			}
			m := db.Metrics(0)
			if m.Committed != 1000 {
				t.Fatalf("committed = %d", m.Committed)
			}
		})
	}
}

func TestSessionRunReturnsOutputs(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing})
	db.Start()
	defer db.Close()
	env, err := db.Session(0).Run("Incr", thedb.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if env.Int("v") != 1 {
		t.Fatalf("output v = %d", env.Int("v"))
	}
}

func TestRunAdhoc(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing})
	db.Start()
	defer db.Close()
	if _, err := db.Session(0).RunAdhoc("Incr", thedb.Int(0)); err != nil {
		t.Fatal(err)
	}
	if db.Metrics(0).Committed != 1 {
		t.Fatal("adhoc txn not committed")
	}
}

func TestUnknownProcedure(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing})
	db.Start()
	defer db.Close()
	if _, err := db.Session(0).Run("DoesNotExist"); err == nil {
		t.Fatal("unknown procedure accepted")
	}
}

func TestDuplicateTable(t *testing.T) {
	db, _ := thedb.Open(thedb.Config{})
	db.MustCreateTable(thedb.Schema{Name: "X", Columns: []thedb.ColumnDef{{Name: "a", Kind: thedb.KindInt}}})
	if err := db.CreateTable(thedb.Schema{Name: "X"}); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestRegisterMismatch(t *testing.T) {
	db, _ := thedb.Open(thedb.Config{Protocol: thedb.Deterministic, Workers: 1})
	spec := &thedb.Spec{Name: "P", Plan: func(*thedb.Builder, *thedb.Env) {}}
	if err := db.Register(spec); err == nil ||
		!strings.Contains(err.Error(), "RegisterPartitioned") {
		t.Fatalf("deterministic Register: %v", err)
	}
	db2, _ := thedb.Open(thedb.Config{Protocol: thedb.Healing})
	if err := db2.RegisterPartitioned(spec, nil); err == nil {
		t.Fatal("RegisterPartitioned accepted on non-deterministic engine")
	}
}

// imageOf renders db's visible rows as a checkpoint image: equal
// images mean equal keys, tuples and commit timestamps.
func imageOf(t testing.TB, db *thedb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, _, err := checkpoint.Write(&buf, db.Catalog(), 0, checkpoint.Scan(db.Catalog()), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointAndRecoverThroughAPI(t *testing.T) {
	dir := t.TempDir()
	fs, err := thedb.OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := counterDB(t, thedb.Config{
		Protocol: thedb.Healing,
		Workers:  1,
		WALSet:   fs,
		LogMode:  thedb.ValueLogging,
	})
	db.Start()
	s := db.Session(0)
	for i := 0; i < 50; i++ {
		if _, err := s.Run("Incr", thedb.Int(int64(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	db.Close() // flush log
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	snap := imageOf(t, db)

	// Fresh instance: initial data + log replay must reproduce state.
	fs2, err := thedb.OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db2 := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1, WALSet: fs2})
	if _, err := db2.Recover(nil, thedb.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, imageOf(t, db2)) {
		t.Fatal("recovered state differs")
	}
	// A quiesced checkpoint of the recovered state, for the next boot.
	if _, err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint restore path, over a truly empty catalog:
	fs3, err := thedb.OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fs3.Close()
	db3e, _ := thedb.Open(thedb.Config{Protocol: thedb.Healing, WALSet: fs3})
	db3e.MustCreateTable(thedb.Schema{
		Name:    "C",
		Columns: []thedb.ColumnDef{{Name: "v", Kind: thedb.KindInt}},
	})
	rep, err := db3e.Recover(nil, thedb.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointPath == "" {
		t.Fatal("restart loaded no checkpoint image")
	}
	if !bytes.Equal(snap, imageOf(t, db3e)) {
		t.Fatal("checkpoint round trip differs")
	}
}

func TestProtocolNames(t *testing.T) {
	want := map[thedb.Protocol]string{
		thedb.Healing:       "THEDB",
		thedb.OCC:           "THEDB-OCC",
		thedb.Silo:          "THEDB-SILO",
		thedb.TPL:           "THEDB-2PL",
		thedb.Hybrid:        "THEDB-HYBRID",
		thedb.Deterministic: "THEDB-DT",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), name)
		}
	}
}

func TestCommandLogReplayThroughAPI(t *testing.T) {
	var log bytes.Buffer
	db := counterDB(t, thedb.Config{
		Protocol: thedb.Healing,
		Workers:  1,
		LogSink:  func(int) io.Writer { return &log },
		LogMode:  thedb.CommandLogging,
	})
	db.Start()
	s := db.Session(0)
	for i := 0; i < 60; i++ {
		if _, err := s.Run("Incr", thedb.Int(int64(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	// Fresh instance from the initial state: replay must rebuild the
	// counters exactly.
	db2 := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1})
	if _, err := db2.Recover([]io.Reader{bytes.NewReader(log.Bytes())}, thedb.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ta, _ := db.Table("C")
	tb, _ := db2.Table("C")
	for k := thedb.Key(0); k < 8; k++ {
		ra, _ := ta.Peek(k)
		rb, _ := tb.Peek(k)
		if ra.Tuple()[0].Int() != rb.Tuple()[0].Int() {
			t.Fatalf("counter %d: live=%d replayed=%d", k, ra.Tuple()[0].Int(), rb.Tuple()[0].Int())
		}
	}
}

// A command log whose replay fails leaves the store half rebuilt:
// Recover reports ErrRecoveryFailed and the database refuses all work.
func TestRecoverPoisonsOnFailedCommandReplay(t *testing.T) {
	var log bytes.Buffer
	db := counterDB(t, thedb.Config{
		Protocol: thedb.Healing,
		Workers:  1,
		LogSink:  func(int) io.Writer { return &log },
		LogMode:  thedb.CommandLogging,
	})
	tab, _ := db.Table("C")
	tab.Put(8, thedb.Tuple{thedb.Int(0)}, 0) // a counter the recovery target lacks
	db.Start()
	s := db.Session(0)
	for _, k := range []int64{0, 8, 1} {
		if _, err := s.Run("Incr", thedb.Int(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1})
	_, err := db2.Recover([]io.Reader{bytes.NewReader(log.Bytes())}, thedb.RecoverOptions{})
	if !errors.Is(err, thedb.ErrRecoveryFailed) {
		t.Fatalf("recover error = %v, want ErrRecoveryFailed", err)
	}
	if _, err := db2.Session(0).Run("Incr", thedb.Int(0)); !errors.Is(err, thedb.ErrRecoveryFailed) {
		t.Fatalf("Run on a poisoned database = %v, want ErrRecoveryFailed", err)
	}
}

// Command replay must not log the commands again: the WAL set keeps
// the originals until a checkpoint covers them, so a second restart
// without one would replay both copies.
func TestCommandReplayIsNotRelogged(t *testing.T) {
	dir := t.TempDir()
	for life := 0; life < 3; life++ {
		fs, err := thedb.OpenWALSet(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		db := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1, WALSet: fs, LogMode: thedb.CommandLogging})
		if _, err := db.Recover(nil, thedb.RecoverOptions{}); err != nil {
			t.Fatalf("life %d: recover: %v", life, err)
		}
		db.Start()
		if life == 0 {
			for i := 0; i < 3; i++ {
				if _, err := db.Session(0).Run("Incr", thedb.Int(0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		tab, _ := db.Table("C")
		rec, _ := tab.Peek(0)
		if got := rec.Tuple()[0].Int(); got != 3 {
			t.Fatalf("life %d: counter = %d, want 3", life, got)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplayCommandsOrdersByTimestamp(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 1})
	db.Start()
	defer db.Close()
	// Deliberately out-of-order command slice; replay must sort.
	cmds := []thedb.Command{
		{TS: 30, Proc: "Incr", Args: []thedb.Value{thedb.Int(0)}},
		{TS: 10, Proc: "Incr", Args: []thedb.Value{thedb.Int(0)}},
		{TS: 20, Proc: "Incr", Args: []thedb.Value{thedb.Int(0)}},
	}
	if err := db.ReplayCommands(cmds); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("C")
	rec, _ := tab.Peek(0)
	if got := rec.Tuple()[0].Int(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Unknown procedure surfaces an error.
	if err := db.ReplayCommands([]thedb.Command{{TS: 1, Proc: "Nope"}}); err == nil {
		t.Fatal("replay of unknown procedure accepted")
	}
}

func TestTransactAdhoc(t *testing.T) {
	db := counterDB(t, thedb.Config{Protocol: thedb.Healing, Workers: 2})
	db.Start()
	defer db.Close()

	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			s := db.Session(wi)
			for i := 0; i < 200; i++ {
				err := s.Transact(func(ctx thedb.OpCtx) error {
					row, _, err := ctx.Read("C", 0, nil)
					if err != nil {
						return err
					}
					return ctx.Write("C", 0, []int{0},
						[]thedb.Value{thedb.Int(row[0].Int() + 1)})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	tab, _ := db.Table("C")
	rec, _ := tab.Peek(0)
	if got := rec.Tuple()[0].Int(); got != 400 {
		t.Fatalf("counter = %d, want 400 (ad-hoc OCC lost updates)", got)
	}

	// User aborts surface unchanged.
	if err := db.Session(0).Transact(func(thedb.OpCtx) error {
		return thedb.UserAbort("nope")
	}); err == nil {
		t.Fatal("user abort swallowed")
	}

	// Deterministic engine rejects Transact.
	ddb := counterDB(t, thedb.Config{Protocol: thedb.Deterministic, Workers: 1, Partitions: 1})
	ddb.Start()
	defer ddb.Close()
	if err := ddb.Session(0).Transact(func(thedb.OpCtx) error { return nil }); err == nil {
		t.Fatal("deterministic Transact accepted")
	}
}
