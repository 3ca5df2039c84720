package thedb

// Model-vs-real crash-recovery torture: run a deterministic sequential
// workload through the real engine with online checkpoints and
// rotating WAL generations, kill the "machine" at an arbitrary instant
// — mid WAL write via a shared byte budget, or inside the checkpoint
// round at each of its crash points — recover from what is left on
// disk, and diff the recovered state against the sequential model's
// state after exactly the surviving operation prefix.
//
// Invariants checked per seed:
//
//  1. Prefix exactness: the recovered state equals the model state
//     after the first K operations, where K is read from the recovered
//     SEQ table — no partial transaction, no reordering, no resurrected
//     dropped group.
//  2. No lost acked commits: every operation whose commit epoch is at
//     or below the recovered durable cut (max of checkpoint watermark
//     and salvaged durable epoch) is inside that prefix.
//  3. Recovery always lands on a valid checkpoint + consistent tail,
//     no matter which crash point killed the checkpoint round.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/statecheck"
	"thedb/internal/storage"
)

const (
	tortureOps  = 200
	tortureKeys = 16
	seqKey      = Key(0)
)

// tortureSpec applies one model op and records its index in SEQ[0],
// all in one transaction — so the recovered SEQ value identifies the
// exact surviving prefix, and a partially applied transaction shows
// up as a KV/SEQ mismatch against the model.
func tortureSpec() *Spec {
	return &Spec{
		Name:   "TApply",
		Params: []string{"key", "val", "kind", "idx"},
		Plan: func(b *Builder, _ *Env) {
			b.Op(Op{
				Name:     "apply",
				KeyReads: []string{"key"},
				ValReads: []string{"val", "kind", "idx"},
				Body: func(ctx OpCtx) error {
					e := ctx.Env()
					k := Key(e.Int("key"))
					row, ok, err := ctx.Read("KV", k, nil)
					if err != nil {
						return err
					}
					next := e.Int("val")
					if e.Int("kind") == int64(statecheck.OpInc) {
						if ok {
							next += row[0].Int()
						}
					}
					if ok {
						if err := ctx.Write("KV", k, []int{0}, []Value{Int(next)}); err != nil {
							return err
						}
					} else if err := ctx.Insert("KV", k, Tuple{Int(next)}); err != nil {
						return err
					}
					_, sok, err := ctx.Read("SEQ", seqKey, nil)
					if err != nil {
						return err
					}
					if sok {
						return ctx.Write("SEQ", seqKey, []int{0}, []Value{Int(e.Int("idx"))})
					}
					return ctx.Insert("SEQ", seqKey, Tuple{Int(e.Int("idx"))})
				},
			})
		},
	}
}

func tortureSchema(db *DB) {
	db.MustCreateTable(Schema{
		Name:    "KV",
		Columns: []ColumnDef{{Name: "v", Kind: KindInt}},
	})
	db.MustCreateTable(Schema{
		Name:    "SEQ",
		Columns: []ColumnDef{{Name: "n", Kind: KindInt}},
	})
	db.MustRegister(tortureSpec())
}

// crashMode says when the machine dies.
type crashMode int

const (
	crashByteBudget crashMode = iota // WAL byte budget mid-run
	crashCheckpoint                  // inside a checkpoint round
	crashAtEnd                       // after the last op (buffered tail lost)
)

func (m crashMode) String() string {
	switch m {
	case crashByteBudget:
		return "byte-budget"
	case crashCheckpoint:
		return "checkpoint-point"
	default:
		return "at-end"
	}
}

// tortureSeed runs one seeded life: workload, crash, recovery, diff.
func tortureSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ops := statecheck.GenOps(seed, tortureOps, tortureKeys)

	mode := crashMode(seed % 3)
	var point checkpoint.CrashPoint
	crashRound := 1 + int(seed/3)%4
	if mode == crashCheckpoint {
		point = checkpoint.CrashPoint(seed / 3 % 4)
		if point == checkpoint.MidTruncate && crashRound < 2 {
			crashRound = 2 // the first round has no prior generation to truncate
		}
	}
	var budget int64
	if mode == crashByteBudget {
		budget = 200 + rng.Int63n(12000)
	}
	label := fmt.Sprintf("seed %d (%v", seed, mode)
	if mode == crashCheckpoint {
		label += fmt.Sprintf(" %v round %d", point, crashRound)
	}
	if mode == crashByteBudget {
		label += fmt.Sprintf(" budget %d", budget)
	}
	label += ")"

	dir := t.TempDir()
	crasher := statecheck.NewCrasher(budget)
	fs, err := checkpoint.OpenFileSet(dir, 1, func(_ int, f *os.File) io.Writer {
		return crasher.Wrap(f)
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	db, err := Open(Config{
		Protocol:      Healing,
		Workers:       1,
		WALSet:        fs,
		LogMode:       ValueLogging,
		EpochInterval: time.Millisecond,
		SyncRetries:   1,
		SyncBackoff:   10 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	tortureSchema(db)
	db.Start()

	// The checkpointer under test, with crash hooks armed for the
	// chosen round. A fired hook kills the whole machine (TripNow):
	// process and disk die at the same instant, as in a power failure.
	round := 0
	crashed := false
	hooks := checkpoint.Hooks{At: func(p checkpoint.CrashPoint) error {
		if mode == crashCheckpoint && round == crashRound && p == point {
			crasher.TripNow()
			crashed = true
			return statecheck.ErrCrashed
		}
		return nil
	}}
	ck, err := checkpoint.New(checkpoint.Source{
		Catalog:        db.catalog,
		CurrentEpoch:   db.eng.Epoch().Current,
		DurableEpoch:   db.eng.DurableEpoch,
		DurabilityLost: db.eng.DurabilityLost,
	}, checkpoint.Options{
		Dir:         dir,
		Files:       fs,
		Log:         db.logger,
		Stats:       &db.ckstats,
		Hooks:       hooks,
		GateTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}

	s := db.Session(0)
	seqTab, _ := db.Table("SEQ")
	epochs := make([]uint32, 0, len(ops))
	ranAfterTrip := false
	stride := 20 + rng.Intn(20)
	for i, op := range ops {
		if _, err := s.Run("TApply",
			Int(int64(op.Key)), Int(op.Val), Int(int64(op.Kind)), Int(int64(i))); err != nil {
			t.Fatalf("%s: op %d: %v", label, i, err)
		}
		rec, ok := seqTab.Peek(seqKey)
		if !ok {
			t.Fatalf("%s: SEQ row missing after op %d", label, i)
		}
		e, _ := storage.SplitTS(rec.Timestamp())
		epochs = append(epochs, e)

		if (i+1)%stride == 0 && !crashed {
			if crasher.Tripped() {
				// The disk is dead; run at most one more round to
				// exercise the must-not-publish path, then stop
				// checkpointing (each extra round costs a gate wait).
				if ranAfterTrip {
					continue
				}
				ranAfterTrip = true
			}
			round++
			if _, err := ck.RunOnce(); err != nil && !crasher.Tripped() {
				t.Fatalf("%s: checkpoint round %d: %v", label, round, err)
			}
			if crashed {
				break
			}
		}
		if rng.Intn(16) == 0 {
			time.Sleep(200 * time.Microsecond) // let epochs advance mid-run
		}
	}
	// The machine is now dead (or dies right here): buffered WAL bytes
	// and anything the engine still believes are lost.
	crasher.TripNow()
	_ = db.Close() // flushes land in the dead sink; errors expected

	// A post-trip round must never publish an image the WAL tail can't
	// back (its rows' epochs may exceed what is durable on disk).
	if mode == crashByteBudget && ranAfterTrip && db.ckstats.Failed.Load() == 0 {
		t.Fatalf("%s: checkpoint round after disk death did not abort", label)
	}

	// ---- Recovery, exactly as the server boots. ----
	fs2, err := checkpoint.OpenFileSet(dir, 1, nil)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer fs2.Close()
	db2, err := Open(Config{Protocol: Healing, Workers: 1, WALSet: fs2})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	tortureSchema(db2)
	rep, err := db2.Recover(nil, RecoverOptions{Salvage: true})
	if err != nil {
		t.Fatalf("%s: recovery: %v", label, err)
	}
	defer db2.Close()

	// ---- Diff against the model. ----
	applied := 0 // ops surviving = recovered SEQ value + 1
	if rec, ok := seqTab2(db2).Peek(seqKey); ok {
		ts, tup, visible := rec.StableSnapshot()
		_ = ts
		if visible {
			applied = int(tup[0].Int()) + 1
		}
	}
	want := statecheck.StateAfter(ops, applied)
	kvTab, _ := db2.Table("KV")
	got := make(map[uint64]int64)
	kvTab.ForEach(func(k storage.Key, rec *storage.Record) bool {
		_, tup, visible := rec.StableSnapshot()
		if visible {
			got[uint64(k)] = tup[0].Int()
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d keys, model has %d after %d ops\n got: %v\nwant: %v",
			label, len(got), len(want), applied, got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %d = %d after recovery, model says %d (prefix %d ops)",
				label, k, got[k], v, applied)
		}
	}

	// No lost acked commits: everything at or below the durable cut
	// must be inside the surviving prefix.
	cut := rep.DurableEpoch
	if rep.CheckpointPath != "" && rep.Watermark > cut {
		cut = rep.Watermark
	}
	floor := 0
	for i, e := range epochs {
		if e <= cut {
			floor = i + 1
		}
	}
	if applied < floor {
		t.Fatalf("%s: only %d ops survived but %d committed at or below the durable cut (epoch %d)",
			label, applied, floor, cut)
	}
	t.Logf("%s: %d/%d ops survived, durable floor %d, checkpoint=%v, groups applied=%d skipped=%d",
		label, applied, len(ops), floor, rep.CheckpointPath != "", rep.AppliedGroups, rep.SkippedGroups)
}

func seqTab2(db *DB) *storage.Table {
	tab, _ := db.Table("SEQ")
	return tab
}

func TestRecoveryTortureModelDiff(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%03d", seed), func(t *testing.T) {
			t.Parallel()
			tortureSeed(t, seed)
		})
	}
}
