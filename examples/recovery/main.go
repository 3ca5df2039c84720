// Recovery demonstrates THEDB's durability path (paper Appendix C),
// all through DB.Recover: run transactions with value logging into a
// WAL set on disk with an online checkpoint mid-run, shut down, then
// restart from the checkpoint image plus the WAL tail and verify the
// recovered state is bit-identical. It repeats the exercise with
// command logging, where recovery re-executes the logged procedure
// calls instead of applying after-images, and finishes with a salvage
// demo: a log torn mid-frame by a crash is recovered back to its
// epoch-consistent committed prefix.
//
//	go run ./examples/recovery
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"thedb"
)

const accounts = 16

// workers each get a private log stream; sinks must never be shared.
const workers = 2

// build opens a database with cfg's durability settings and creates
// the ACCOUNTS schema and Deposit procedure.
func build(cfg thedb.Config) *thedb.DB {
	cfg.Protocol, cfg.Workers = thedb.Healing, workers
	db, err := thedb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	db.MustCreateTable(thedb.Schema{
		Name:    "ACCOUNTS",
		Columns: []thedb.ColumnDef{{Name: "balance", Kind: thedb.KindInt}},
	})
	db.MustRegister(&thedb.Spec{
		Name:   "Deposit",
		Params: []string{"acct", "amount"},
		Plan: func(b *thedb.Builder, _ *thedb.Env) {
			b.Op(thedb.Op{
				Name:     "rmw",
				KeyReads: []string{"acct"},
				ValReads: []string{"amount"},
				Body: func(ctx thedb.OpCtx) error {
					e := ctx.Env()
					row, ok, err := ctx.Read("ACCOUNTS", thedb.Key(e.Int("acct")), nil)
					if err != nil {
						return err
					}
					if !ok {
						return thedb.UserAbort("no such account")
					}
					return ctx.Write("ACCOUNTS", thedb.Key(e.Int("acct")), []int{0},
						[]thedb.Value{thedb.Int(row[0].Int() + e.Int("amount"))})
				},
			})
		},
	})
	return db
}

func populate(db *thedb.DB) {
	tab, _ := db.Table("ACCOUNTS")
	for k := thedb.Key(0); k < accounts; k++ {
		tab.Put(k, thedb.Tuple{thedb.Int(1000)}, 0)
	}
}

// runWorkload spreads deposits over both sessions so both log streams
// carry entries.
func runWorkload(db *thedb.DB, n int) {
	for i := 0; i < n; i++ {
		s := db.Session(i % workers)
		if _, err := s.Run("Deposit", thedb.Int(int64(i%accounts)), thedb.Int(int64(i%7+1))); err != nil {
			log.Fatal(err)
		}
	}
}

// streamsOf snapshots the per-worker log buffers as readers.
func streamsOf(logBufs []bytes.Buffer) []io.Reader {
	rs := make([]io.Reader, len(logBufs))
	for i := range logBufs {
		rs[i] = bytes.NewReader(logBufs[i].Bytes())
	}
	return rs
}

// valueDemo logs after-images into a WAL set on disk, takes an online
// checkpoint mid-run, and restarts from the checkpoint image plus the
// WAL tail above its watermark.
func valueDemo() {
	fmt.Println("--- value logging ---")
	dir, err := os.MkdirTemp("", "thedb-recovery-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fs, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		log.Fatal(err)
	}
	db := build(thedb.Config{LogMode: thedb.ValueLogging, WALSet: fs, EpochInterval: time.Millisecond})
	populate(db)
	db.Start()

	// Phase 1: work paced across epochs, then an online checkpoint (no
	// stall; the image is published once every epoch it may contain is
	// durable, and its watermark is the durable epoch at scan start).
	for batch := 0; batch < 3; batch++ {
		runWorkload(db, 100)
		time.Sleep(5 * time.Millisecond)
	}
	info, err := db.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}

	// Phase 2: more work, then a clean shutdown (Close seals, flushes
	// and syncs every stream; see the salvage demo for the crash case).
	runWorkload(db, 200)
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		log.Fatal(err)
	}

	// Restart: the image restores the baseline and phase 1; only the
	// WAL groups above its watermark are replayed on top.
	fs2, err := thedb.OpenWALSet(dir, workers)
	if err != nil {
		log.Fatal(err)
	}
	db2 := build(thedb.Config{LogMode: thedb.ValueLogging, WALSet: fs2})
	rep, err := db2.Recover(nil, thedb.RecoverOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		log.Fatal(err)
	}
	if err := fs2.Close(); err != nil {
		log.Fatal(err)
	}

	// Value replay installs the logged after-images with their
	// original commit timestamps: every row must match bit for bit.
	if !sameState(db, db2, true) {
		log.Fatal("RECOVERY MISMATCH (value log)")
	}
	fmt.Printf("recovered state identical (checkpoint: %d rows at watermark epoch %d; WAL tail: %d groups applied, %d skipped)\n",
		info.Rows, rep.Watermark, rep.AppliedGroups, rep.SkippedGroups)
}

// commandDemo logs procedure calls into in-memory streams and rebuilds
// the database by re-executing them over the initial state.
func commandDemo() {
	fmt.Println("--- command logging ---")
	logBufs := make([]bytes.Buffer, workers)
	db := build(thedb.Config{LogMode: thedb.CommandLogging, LogSink: func(i int) io.Writer { return &logBufs[i] }})
	populate(db)
	db.Start()
	runWorkload(db, 500)
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Command replay needs the initial state (commands rebuild
	// everything from it).
	db2 := build(thedb.Config{LogMode: thedb.CommandLogging})
	populate(db2)
	rep, err := db2.Recover(streamsOf(logBufs), thedb.RecoverOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		log.Fatal(err)
	}

	// Command replay re-executes the procedures, assigning fresh
	// commit timestamps, so compare data rather than timestamps.
	if !sameState(db, db2, false) {
		log.Fatal("RECOVERY MISMATCH (command replay)")
	}
	var logBytes int
	for i := range logBufs {
		logBytes += logBufs[i].Len()
	}
	fmt.Printf("recovered state identical (%d commands replayed from %d log bytes)\n",
		rep.CommandsReplayed, logBytes)
}

// salvageDemo crashes mid-write: one stream loses its tail mid-frame.
// Strict recovery refuses (and says where); salvage recovery restores
// the epoch-consistent committed prefix.
func salvageDemo() {
	fmt.Println("--- crash salvage ---")
	logBufs := make([]bytes.Buffer, workers)
	db := build(thedb.Config{LogMode: thedb.ValueLogging, LogSink: func(i int) io.Writer { return &logBufs[i] }})
	populate(db)
	db.Start()
	// Pace the workload across several epochs so the streams carry
	// intermediate seals — that is what lets salvage keep a prefix.
	for batch := 0; batch < 20; batch++ {
		runWorkload(db, 100)
		time.Sleep(2 * time.Millisecond)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// The crash: stream 0 loses the last 40% of its bytes, cutting a
	// frame in half.
	torn := logBufs[0].Bytes()
	torn = torn[:len(torn)*3/5]
	streams := func() []io.Reader {
		rs := streamsOf(logBufs)
		rs[0] = bytes.NewReader(torn)
		return rs
	}

	strictDB := build(thedb.Config{})
	populate(strictDB)
	if _, err := strictDB.Recover(streams(), thedb.RecoverOptions{}); err != nil {
		fmt.Printf("strict mode refuses the damaged log:\n  %v\n", err)
	} else {
		log.Fatal("strict recovery accepted a torn log")
	}

	salvageDB := build(thedb.Config{})
	populate(salvageDB)
	rep, err := salvageDB.Recover(streams(), thedb.RecoverOptions{Salvage: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("salvage: durable epoch %d, %d groups applied, %d dropped past the cut, %d torn\n",
		rep.DurableEpoch, rep.AppliedGroups, rep.DroppedGroups, rep.TornGroups)
	for _, d := range rep.Damage {
		fmt.Printf("  damage: %v\n", &d)
	}
	if err := salvageDB.Close(); err != nil {
		log.Fatal(err)
	}
}

// sameState reports whether both databases hold the same balances
// and, with withTS, the same commit timestamps on every account.
func sameState(a, b *thedb.DB, withTS bool) bool {
	ta, _ := a.Table("ACCOUNTS")
	tb, _ := b.Table("ACCOUNTS")
	for k := thedb.Key(0); k < accounts; k++ {
		ra, _ := ta.Peek(k)
		rb, ok := tb.Peek(k)
		if !ok || ra.Tuple()[0].Int() != rb.Tuple()[0].Int() {
			return false
		}
		if withTS && ra.Timestamp() != rb.Timestamp() {
			return false
		}
	}
	return true
}

func main() {
	valueDemo()
	commandDemo()
	salvageDemo()
}
