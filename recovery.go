package thedb

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"thedb/internal/checkpoint"
	"thedb/internal/wal"
)

// Command is one decoded command-log entry (see CommandLogging).
type Command = wal.Command

// RecoverOptions selects strict or salvage recovery; see the wal
// package for the full contract.
type RecoverOptions = wal.RecoverOptions

// RecoveryReport is what Recover did: the checkpoint image it loaded,
// the log replay above the image's watermark (durable cut,
// applied/skipped/dropped/torn group counts, per-stream damage), the
// epoch it seeded and its wall time. Its JSON form is the boot line
// cmd/thedb-server prints and serves at /debug/recovery.
type RecoveryReport struct {
	CheckpointPath string `json:"checkpoint,omitempty"`
	CheckpointSeq  uint64 `json:"checkpoint_seq,omitempty"`
	Watermark      uint32 `json:"watermark_epoch"` // image watermark (0 without an image)
	CheckpointRows int64  `json:"checkpoint_rows"`
	Streams        int    `json:"wal_streams"`

	wal.RecoveryResult

	CommandsReplayed int     `json:"commands_replayed"`
	SeededEpoch      uint32  `json:"seeded_epoch"` // first epoch new commits use (0: nothing recovered)
	Salvaged         bool    `json:"salvaged"`
	WallMS           float64 `json:"wall_ms"`
}

// CorruptionError describes a damaged log frame: which stream, at
// what byte offset, and whether the damage is a torn tail (a crash
// mid-write) or mid-stream corruption (bit rot, truncation upstream).
type CorruptionError = wal.CorruptionError

// Syncer is the optional interface a LogSink can implement (os.File
// does) to participate in durable epoch advancement.
type Syncer = wal.Syncer

// Recover restores the database at boot — the paper's Appendix C
// procedure: load a checkpoint, replay the log above it, resume.
//
// With Config.WALSet, streams must be nil: Recover loads the newest
// valid checkpoint image in the set's directory (falling back past a
// damaged one), replays the set's pre-existing generations above the
// image's watermark, and bounds those generations for truncation.
// Without a WAL set it replays the given streams (an in-memory
// LogSink's bytes, say) over whatever the catalog holds.
//
// Strict recovery (the default) refuses a damaged log with a
// *CorruptionError before the log touches the catalog; Salvage
// restores the epoch-consistent committed prefix of a crashed log.
// Value-log entries apply under the Thomas write rule; command-log
// entries are re-executed through ReplayCommands, which starts the
// database. The epoch is then seeded past everything recovered — the
// image watermark, its newest row and the log's highest epoch — so new
// commits land above every recovered one and survive the next
// salvage.
//
// The database must hold the schema (tables created, procedures
// registered) and must not be serving transactions. A log error leaves
// the log unapplied (a loaded image stays in place). If command replay
// fails partway the store holds an undefined mix of replayed and
// missing effects: the engine is stopped and the database poisoned —
// every later transaction returns ErrRecoveryFailed, which the
// returned error wraps. Restore from scratch.
func (db *DB) Recover(streams []io.Reader, opts RecoverOptions) (*RecoveryReport, error) {
	start := time.Now()
	rep := &RecoveryReport{Salvaged: opts.Salvage}
	fs := db.cfg.WALSet
	var seed uint32
	closeStreams := func() error { return nil }
	if fs != nil {
		if streams != nil {
			return nil, errors.New("thedb: Recover reads the WAL set's own streams; pass nil streams with Config.WALSet")
		}
		info, err := checkpoint.LoadNewest(db.catalog, fs.Dir())
		if err != nil {
			return nil, err
		}
		if info != nil {
			rep.CheckpointPath, rep.CheckpointSeq = info.Path, info.Seq
			rep.Watermark, rep.CheckpointRows = info.Watermark, info.Rows
			seed = max(info.Watermark, info.MaxRowEpoch)
		}
		if streams, closeStreams, err = fs.BootStreams(); err != nil {
			return nil, err
		}
	}
	rep.Streams = len(streams)
	res, err := wal.RecoverStreams(db.catalog, streams, opts, rep.Watermark)
	if cerr := closeStreams(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.RecoveryResult = *res

	if seed = max(seed, res.MaxEpoch); seed > 0 {
		db.ensureEngines()
		if db.eng != nil {
			db.eng.Epoch().SeedTo(seed + 1)
		}
		rep.SeededEpoch = seed + 1
	}
	if fs != nil {
		// The adopted generations' groups all sit at or below seed:
		// a watermark of seed or higher proves them redundant.
		fs.SetRecoveredMax(seed)
	}
	if len(res.Commands) > 0 {
		db.Start() // command replay needs a running engine
		if err := db.ReplayCommands(res.Commands); err != nil {
			db.poisoned.Store(true)
			if cerr := db.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return rep, fmt.Errorf("%w: %w", ErrRecoveryFailed, err)
		}
		rep.CommandsReplayed = len(res.Commands)
	}

	wall := time.Since(start)
	rep.WallMS = float64(wall.Microseconds()) / 1000
	if fs != nil {
		db.ckstats.SetRestart(wall.Nanoseconds(), int64(res.AppliedGroups), int64(res.SkippedGroups))
	}
	return rep, nil
}

// ReplayCommands re-executes command-log entries in commit-timestamp
// order through session 0. Command logging records the procedure name
// and argument vector of each committed transaction; because stored
// procedures are deterministic given their arguments and the database
// state, replaying them in the original commit order reconstructs the
// database (the approach the paper compares against value logging in
// Appendix C).
//
// Commands with equal timestamps (possible across streams from
// different log generations) are replayed in their input-slice order:
// the sort is stable. Replay stops at the first command that fails;
// commands replayed before the failure remain applied, so the caller
// should treat an error as "restore from scratch", not retry.
//
// Replayed commits are not logged, just as value replay is not: the
// commands stay in the log being recovered, which remains the log of
// record, and logging them again would apply them twice at the next
// restart.
func (db *DB) ReplayCommands(cmds []Command) error {
	sorted := append([]Command(nil), cmds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TS < sorted[j].TS })
	s := db.Session(0)
	replay := func() error {
		for _, c := range sorted {
			if _, err := s.Run(c.Proc, c.Args...); err != nil {
				return fmt.Errorf("thedb: replaying %s@%d: %w", c.Proc, c.TS, err)
			}
		}
		return nil
	}
	if s.w == nil {
		return replay() // the deterministic engine never logs
	}
	return s.w.Unlogged(replay)
}
