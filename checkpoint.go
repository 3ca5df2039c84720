package thedb

import (
	"fmt"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/metrics"
)

// WALSet manages a directory of per-worker WAL generation files. Open
// one with OpenWALSet, pass it as Config.WALSet, and the database logs
// into rotating generation files that checkpoints truncate — instead
// of a single ever-growing stream per worker.
type WALSet = checkpoint.FileSet

// CheckpointInfo describes a published or loaded checkpoint image.
type CheckpointInfo = checkpoint.Info

// OpenWALSet opens (or creates) dir as a WAL generation directory:
// existing generation files become the recovery tail DB.Recover
// replays, and a fresh generation is created for each worker's live
// stream.
func OpenWALSet(dir string, workers int) (*WALSet, error) {
	return checkpoint.OpenFileSet(dir, workers, nil)
}

// CheckpointStats exposes the checkpoint subsystem's counters (also
// served as thedb_checkpoint_* by the obs plane).
func (db *DB) CheckpointStats() *metrics.Checkpoint { return &db.ckstats }

// checkpointer builds a Checkpointer over this database, publishing
// into the WAL set's directory. A running engine gets online rounds,
// which need value logging (a fuzzy image plus command replay
// double-executes procedures; value replay is idempotent under the
// Thomas write rule), gate publication on the live durability
// frontier, and rotate and truncate the WAL set. A stopped or
// not-yet-started engine gets a quiesced round.
func (db *DB) checkpointer(interval time.Duration) (*checkpoint.Checkpointer, error) {
	db.ensureEngines()
	switch {
	case db.deng != nil:
		return nil, fmt.Errorf("thedb: checkpointing is not supported on the deterministic engine")
	case db.cfg.WALSet == nil:
		return nil, fmt.Errorf("thedb: checkpoints require Config.WALSet")
	}
	src := checkpoint.Source{Catalog: db.catalog, CurrentEpoch: db.eng.Epoch().Current, Quiesced: !db.started}
	opt := checkpoint.Options{Dir: db.cfg.WALSet.Dir(), Interval: interval, Stats: &db.ckstats}
	if db.started {
		if db.cfg.LogMode == CommandLogging {
			return nil, fmt.Errorf("thedb: online checkpoint requires value logging (command replay of a fuzzy image is not idempotent)")
		}
		src.DurableEpoch, src.DurabilityLost = db.eng.DurableEpoch, db.eng.DurabilityLost
		opt.Files, opt.Log = db.cfg.WALSet, db.logger
	}
	return checkpoint.New(src, opt)
}

// Checkpoint takes one checkpoint round into the WAL set's directory
// (Config.WALSet is required): scan every table, publish
// checkpoint-<seq>.ckpt crash-atomically (temp file, fsync, rename),
// prune to the two newest images, rotate the log onto a fresh
// generation, and delete generations the new watermark covers.
//
// Running engine: the scan is online (no stall; per-record seqlock
// snapshots) and the image is published only once every epoch it may
// contain is durable in the WAL. Stopped or not-yet-started engine:
// the scan is trivially consistent and the watermark is the current
// epoch.
func (db *DB) Checkpoint() (*CheckpointInfo, error) {
	c, err := db.checkpointer(0)
	if err != nil {
		return nil, err
	}
	info, err := c.RunOnce()
	if err != nil {
		return nil, err
	}
	// A quiesced round cannot rotate a stopped logger; closed
	// generations below the watermark are still safe to drop.
	if !db.started {
		if _, terr := db.cfg.WALSet.Truncate(info.Watermark, nil); terr != nil {
			return info, terr
		}
	}
	return info, nil
}

// CheckpointEvery starts a background checkpointer running one round
// every interval (see Checkpoint for round semantics). The database
// must be started with value logging. Stop it via StopCheckpoints or
// Close. Round failures are counted in CheckpointStats and retried
// next tick.
func (db *DB) CheckpointEvery(interval time.Duration) error {
	if !db.started {
		return fmt.Errorf("thedb: CheckpointEvery requires a started database")
	}
	if db.ck != nil {
		return fmt.Errorf("thedb: a background checkpointer is already running")
	}
	c, err := db.checkpointer(interval)
	if err != nil {
		return err
	}
	if err := c.Start(); err != nil {
		return err
	}
	db.ck = c
	return nil
}

// StopCheckpoints halts the background checkpointer, waiting out an
// in-flight round. No-op if none is running.
func (db *DB) StopCheckpoints() {
	if db.ck != nil {
		db.ck.Stop()
		db.ck = nil
	}
}
