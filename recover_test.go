package thedb

import (
	"testing"
	"time"
)

// bootKV opens dir's WAL set and recovers a KV database (the restart
// benchmark's schema) from it.
func bootKV(t *testing.T, dir string, salvage bool) (*WALSet, *DB, *RecoveryReport) {
	t.Helper()
	fs, err := OpenWALSet(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(Config{Protocol: Healing, Workers: 1, WALSet: fs, LogMode: ValueLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	benchRestartSchema(db)
	rep, err := db.Recover(nil, RecoverOptions{Salvage: salvage})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return fs, db, rep
}

// A commit made after restarting from a quiesced checkpoint must land
// above the image's watermark. The watermark of a drain checkpoint is
// the current epoch, which runs ahead of the last seal in the WAL tail;
// seeding past the tail alone put the next commit at or below the
// watermark, where the following boot skipped it as already imaged.
func TestRecoverSeedsPastCheckpointWatermark(t *testing.T) {
	dir := t.TempDir()

	// Life 1: commits across many epochs, a drain, a quiesced image.
	fs, db, _ := bootKV(t, dir, false)
	db.Start()
	s := db.Session(0)
	for i := 0; i < 64; i++ {
		if _, err := s.Run("RPut", Int(int64(i%8)), Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			time.Sleep(3 * time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond) // the epoch runs ahead of the last commit
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: boot from the image, overwrite one imaged key, drain.
	fs, db, rep := bootKV(t, dir, false)
	if rep.CheckpointPath != info.Path || rep.Watermark != info.Watermark {
		t.Fatalf("boot loaded %q at watermark %d, want %q at %d", rep.CheckpointPath, rep.Watermark, info.Path, info.Watermark)
	}
	if rep.SeededEpoch <= rep.Watermark {
		t.Fatalf("seeded epoch %d is not above the image watermark %d", rep.SeededEpoch, rep.Watermark)
	}
	db.Start()
	if _, err := db.Session(0).Run("RPut", Int(3), Int(1000)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 3: the acknowledged write survives a salvage boot.
	fs, db, rep = bootKV(t, dir, true)
	defer fs.Close()
	if rep.SeededEpoch <= rep.Watermark {
		t.Fatalf("seeded epoch %d is not above the image watermark %d", rep.SeededEpoch, rep.Watermark)
	}
	tab, _ := db.Table("KV")
	rec, ok := tab.Peek(3)
	if !ok {
		t.Fatal("key 3 missing after restart")
	}
	if _, tup, visible := rec.StableSnapshot(); !visible || tup[0].Int() != 1000 {
		t.Fatalf("key 3 = %v after restart, want 1000 (acknowledged commit lost)", tup)
	}
}
