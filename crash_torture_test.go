package thedb

// Crash-torture harness for the durability layer: drive a logged
// workload under controlled epochs, then simulate every way the log
// can die — truncation at each frame boundary, bit flips at random
// mid-frame positions — and check that salvage recovery restores an
// epoch-consistent committed prefix (verified against shadow
// snapshots taken during the original run) while strict recovery
// pinpoints the damage and leaves the catalog untouched.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/wal"
)

const (
	tortureAccounts = 8
	tortureInitial  = 1000
)

// xferSpec moves amt from src to dst (balances may go negative; only
// conservation matters here).
func xferSpec() *Spec {
	return &Spec{
		Name:   "Xfer",
		Params: []string{"src", "dst", "amt"},
		Plan: func(b *Builder, _ *Env) {
			b.Op(Op{
				Name:     "readSrc",
				KeyReads: []string{"src"},
				Writes:   []string{"sv"},
				Body: func(ctx OpCtx) error {
					row, _, err := ctx.Read("ACCT", Key(ctx.Env().Int("src")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("sv", row[0])
					return nil
				},
			})
			b.Op(Op{
				Name:     "readDst",
				KeyReads: []string{"dst"},
				Writes:   []string{"dv"},
				Body: func(ctx OpCtx) error {
					row, _, err := ctx.Read("ACCT", Key(ctx.Env().Int("dst")), []int{0})
					if err != nil {
						return err
					}
					ctx.Env().SetVal("dv", row[0])
					return nil
				},
			})
			b.Op(Op{
				Name:     "writeSrc",
				KeyReads: []string{"src"},
				ValReads: []string{"sv", "amt"},
				Body: func(ctx OpCtx) error {
					e := ctx.Env()
					return ctx.Write("ACCT", Key(e.Int("src")), []int{0},
						[]Value{Int(e.Int("sv") - e.Int("amt"))})
				},
			})
			b.Op(Op{
				Name:     "writeDst",
				KeyReads: []string{"dst"},
				ValReads: []string{"dv", "amt"},
				Body: func(ctx OpCtx) error {
					e := ctx.Env()
					return ctx.Write("ACCT", Key(e.Int("dst")), []int{0},
						[]Value{Int(e.Int("dv") + e.Int("amt"))})
				},
			})
		},
	}
}

// bankDB builds the torture fixture: one ACCT table pre-populated at
// timestamp 0 (population is not logged; recovery targets get the
// same baseline) plus the Xfer procedure.
func bankDB(t testing.TB, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable(Schema{
		Name:    "ACCT",
		Columns: []ColumnDef{{Name: "bal", Kind: KindInt}},
	})
	tab, _ := db.Table("ACCT")
	for k := Key(0); k < tortureAccounts; k++ {
		tab.Put(k, Tuple{Int(tortureInitial)}, 0)
	}
	db.MustRegister(xferSpec())
	return db
}

func checkpointOf(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, _, err := checkpoint.Write(&buf, db.catalog, 0, checkpoint.Scan(db.catalog), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func balanceTotal(t testing.TB, db *DB) int64 {
	t.Helper()
	tab, _ := db.Table("ACCT")
	var total int64
	for k := Key(0); k < tortureAccounts; k++ {
		rec, ok := tab.Peek(k)
		if !ok {
			t.Fatalf("account %d missing", k)
		}
		total += rec.Tuple()[0].Int()
	}
	return total
}

// tortureRun executes a single-worker logged workload under manual
// epoch control and returns the log bytes plus shadow[e]: the
// checkpoint image of the state once every epoch ≤ e had committed.
func tortureRun(t *testing.T, epochs uint32, txnsPerEpoch int) ([]byte, map[uint32][]byte) {
	t.Helper()
	var log bytes.Buffer
	db := bankDB(t, Config{
		Protocol: Healing,
		Workers:  1,
		LogSink:  func(int) io.Writer { return &log },
		LogMode:  ValueLogging,
		// The test advances epochs itself; keep the ticker out of it.
		EpochInterval: time.Hour,
	})
	shadow := map[uint32][]byte{0: checkpointOf(t, db)}
	db.Start()
	s := db.Session(0)
	rng := rand.New(rand.NewSource(7))
	for e := uint32(1); e <= epochs; e++ {
		if e > 1 {
			db.eng.Epoch().Advance()
		}
		for i := 0; i < txnsPerEpoch; i++ {
			src := rng.Int63n(tortureAccounts)
			dst := (src + 1 + rng.Int63n(tortureAccounts-1)) % tortureAccounts
			if _, err := s.Run("Xfer", Int(src), Int(dst), Int(rng.Int63n(20))); err != nil {
				t.Fatal(err)
			}
		}
		shadow[e] = checkpointOf(t, db)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return log.Bytes(), shadow
}

// sealPrefix[i] is the durable epoch of a stream holding exactly the
// first i frames: the maximum seal epoch among them.
func sealPrefix(frames []wal.FrameInfo) []uint32 {
	p := make([]uint32, len(frames)+1)
	for i, f := range frames {
		p[i+1] = p[i]
		if f.Kind == wal.KindSeal && f.SealEpoch > p[i+1] {
			p[i+1] = f.SealEpoch
		}
	}
	return p
}

// verifySalvage recovers stream into a fresh fixture in salvage mode
// and checks the result is exactly shadow[wantEpoch].
func verifySalvage(t *testing.T, stream []byte, wantEpoch uint32, shadow map[uint32][]byte, label string) *RecoveryReport {
	t.Helper()
	fresh := bankDB(t, Config{Protocol: Healing, Workers: 1})
	rep, err := fresh.Recover([]io.Reader{bytes.NewReader(stream)}, RecoverOptions{Salvage: true})
	if err != nil {
		t.Fatalf("%s: salvage failed: %v", label, err)
	}
	if rep.DurableEpoch != wantEpoch {
		t.Fatalf("%s: durable epoch = %d, want %d", label, rep.DurableEpoch, wantEpoch)
	}
	if got := checkpointOf(t, fresh); !bytes.Equal(got, shadow[wantEpoch]) {
		t.Fatalf("%s: salvaged state differs from the epoch-%d shadow snapshot", label, wantEpoch)
	}
	return rep
}

func TestCrashTortureFrameBoundarySweep(t *testing.T) {
	full, shadow := tortureRun(t, 6, 8)
	frames, damage, err := wal.InspectStream(bytes.NewReader(full))
	if err != nil || damage != nil {
		t.Fatalf("inspect: err=%v damage=%v", err, damage)
	}
	cut := sealPrefix(frames)

	// Simulate a crash at every frame boundary: the salvaged state
	// must be the shadow snapshot of the prefix's durable epoch.
	for i := 0; i <= len(frames); i++ {
		var end int64
		if i > 0 {
			end = frames[i-1].End
		}
		label := fmt.Sprintf("boundary %d/%d (byte %d)", i, len(frames), end)
		rep := verifySalvage(t, full[:end], cut[i], shadow, label)
		if len(rep.Damage) != 0 {
			t.Fatalf("%s: clean boundary truncation reported damage: %+v", label, rep.Damage)
		}
	}
	if cut[len(frames)] != 6 {
		t.Fatalf("full log seals epoch %d, want 6", cut[len(frames)])
	}
}

func TestCrashTortureRandomCorruption(t *testing.T) {
	full, shadow := tortureRun(t, 6, 8)
	frames, damage, err := wal.InspectStream(bytes.NewReader(full))
	if err != nil || damage != nil {
		t.Fatalf("inspect: err=%v damage=%v", err, damage)
	}
	cut := sealPrefix(frames)

	payloadPoints, headerPoints := 120, 24
	if testing.Short() {
		payloadPoints, headerPoints = 30, 8
	}
	rng := rand.New(rand.NewSource(11))

	flipAt := func(fi int, off int64, inPayload bool) {
		label := fmt.Sprintf("flip in frame %d at byte %d", fi, off)
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= byte(1 << uint(rng.Intn(8)))

		// Strict mode: precise damage report, catalog untouched.
		fresh := bankDB(t, Config{Protocol: Healing, Workers: 1})
		_, serr := fresh.Recover([]io.Reader{bytes.NewReader(corrupt)}, RecoverOptions{})
		var ce *CorruptionError
		if !errors.As(serr, &ce) {
			t.Fatalf("%s: strict error = %v, want *CorruptionError", label, serr)
		}
		if ce.Stream != 0 || ce.Offset != frames[fi].Offset {
			t.Fatalf("%s: reported stream %d offset %d, want stream 0 offset %d",
				label, ce.Stream, ce.Offset, frames[fi].Offset)
		}
		if inPayload {
			// A payload flip leaves the frame's length intact, so the
			// reader's position is exact: damage is a torn tail iff
			// the corrupted frame is the last one.
			if wantTail := fi == len(frames)-1; ce.Tail != wantTail {
				t.Fatalf("%s: tail=%v, want %v (%v)", label, ce.Tail, wantTail, ce)
			}
		}
		if got := checkpointOf(t, fresh); !bytes.Equal(got, shadow[0]) {
			t.Fatalf("%s: strict recovery mutated the catalog before failing", label)
		}

		// Salvage: epoch-consistent prefix of the frames before the
		// damage, and the damage report carries the same offset.
		rep := verifySalvage(t, corrupt, cut[fi], shadow, label)
		if len(rep.Damage) != 1 || rep.Damage[0].Offset != frames[fi].Offset {
			t.Fatalf("%s: salvage damage = %+v", label, rep.Damage)
		}
	}

	for p := 0; p < payloadPoints; p++ {
		fi := rng.Intn(len(frames))
		f := frames[fi]
		off := f.Offset + 8 + rng.Int63n(f.End-f.Offset-8) // within the payload
		flipAt(fi, off, true)
	}
	for p := 0; p < headerPoints; p++ {
		fi := rng.Intn(len(frames))
		f := frames[fi]
		off := f.Offset + rng.Int63n(8) // within the length/CRC header
		flipAt(fi, off, false)
	}
}

func TestCrashTortureMultiStream(t *testing.T) {
	const workers = 3
	logs := make([]bytes.Buffer, workers)
	db := bankDB(t, Config{
		Protocol:      Healing,
		Workers:       workers,
		LogSink:       func(i int) io.Writer { return &logs[i] },
		LogMode:       ValueLogging,
		EpochInterval: 2 * time.Millisecond, // real advancer: seals race appends
	})
	db.Start()
	perWorker := 400
	if testing.Short() {
		perWorker = 100
	}
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi)))
			s := db.Session(wi)
			for i := 0; i < perWorker; i++ {
				src := rng.Int63n(tortureAccounts)
				dst := (src + 1 + rng.Int63n(tortureAccounts-1)) % tortureAccounts
				if _, err := s.Run("Xfer", Int(src), Int(dst), Int(rng.Int63n(20))); err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	liveTotal := balanceTotal(t, db)
	if liveTotal != tortureAccounts*tortureInitial {
		t.Fatalf("live total = %d (transfers did not conserve)", liveTotal)
	}

	// Corrupt stream 1 three quarters of the way in.
	const victim = 1
	frames, damage, err := wal.InspectStream(bytes.NewReader(logs[victim].Bytes()))
	if err != nil || damage != nil || len(frames) < 4 {
		t.Fatalf("stream %d: frames=%d err=%v damage=%v", victim, len(frames), err, damage)
	}
	f := frames[3*len(frames)/4]
	corrupt := append([]byte(nil), logs[victim].Bytes()...)
	corrupt[f.Offset+8] ^= 0x40
	streamsFor := func() []io.Reader {
		rs := make([]io.Reader, workers)
		for i := range rs {
			if i == victim {
				rs[i] = bytes.NewReader(corrupt)
			} else {
				rs[i] = bytes.NewReader(logs[i].Bytes())
			}
		}
		return rs
	}

	// Strict recovery names the damaged stream and its offset.
	strictDB := bankDB(t, Config{Protocol: Healing, Workers: 1})
	_, serr := strictDB.Recover(streamsFor(), RecoverOptions{})
	var ce *CorruptionError
	if !errors.As(serr, &ce) {
		t.Fatalf("strict error = %v, want *CorruptionError", serr)
	}
	if ce.Stream != victim || ce.Offset != f.Offset {
		t.Fatalf("strict reported stream %d offset %d, want stream %d offset %d",
			ce.Stream, ce.Offset, victim, f.Offset)
	}

	// Salvage restores an epoch-consistent prefix: whole transactions
	// only, so money is conserved no matter where the cut landed.
	salvageDB := bankDB(t, Config{Protocol: Healing, Workers: 1})
	rep, err := salvageDB.Recover(streamsFor(), RecoverOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := balanceTotal(t, salvageDB); got != tortureAccounts*tortureInitial {
		t.Fatalf("salvaged total = %d, want %d (partial transaction applied)",
			got, tortureAccounts*tortureInitial)
	}
	if len(rep.Damage) != 1 || rep.Damage[0].Stream != victim {
		t.Fatalf("salvage damage = %+v, want one report for stream %d", rep.Damage, victim)
	}
}
