package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"thedb/internal/storage"
)

// Command is one decoded command-log entry.
type Command struct {
	TS   uint64
	Proc string
	Args []storage.Value
}

// RecoverOptions selects the recovery contract.
type RecoverOptions struct {
	// Salvage tolerates crash damage: each stream is truncated at
	// its first unreadable frame, trailing record groups without a
	// commit entry are dropped, and only groups whose commit epoch
	// is at or below the durable epoch — the minimum sealed epoch
	// across all non-empty streams — are applied, so the restored
	// state is an epoch-consistent committed prefix of the original
	// execution.
	//
	// Without Salvage (strict mode) recovery verifies every stream
	// end to end before touching the catalog: any torn tail,
	// checksum mismatch or incomplete commit group aborts with a
	// *CorruptionError carrying the stream index and byte offset,
	// and the catalog is guaranteed unmodified. Strict mode applies
	// every commit group of a verified log, seals or not — it is
	// the mode for logs that were closed cleanly.
	Salvage bool
}

// RecoveryResult reports what log replay did. In salvage mode it is
// the audit trail of how much of the log survived. The JSON keys are
// those of the server's boot recovery line.
type RecoveryResult struct {
	// Commands holds decoded command-log entries for the caller to
	// re-execute in timestamp order (command logging only).
	Commands []Command `json:"-"`

	// DurableEpoch is the epoch-consistent cut: the minimum sealed
	// epoch across all non-empty streams. Salvage mode applies
	// exactly the commit groups with epoch ≤ DurableEpoch.
	DurableEpoch uint32 `json:"durable_epoch"`

	// AppliedGroups counts commit groups applied to the catalog
	// (plus command groups handed back via Commands).
	AppliedGroups int `json:"groups_applied"`

	// DroppedGroups counts complete commit groups discarded in
	// salvage mode because their epoch exceeds DurableEpoch.
	DroppedGroups int `json:"groups_dropped"`

	// SkippedGroups counts commit groups at or below the watermark,
	// already covered by the caller's checkpoint image.
	SkippedGroups int `json:"groups_skipped"`

	// MaxEpoch is the highest epoch observed anywhere in the intact
	// portion of the streams — commit groups (applied, dropped or
	// skipped), seals, and torn trailing entries. A new engine
	// serving the recovered state must seed its epoch above it so
	// commit timestamps stay monotone across process generations.
	MaxEpoch uint32 `json:"-"`

	// TornGroups counts streams that ended in a record group with
	// no commit entry (the group's entries are never applied).
	TornGroups int `json:"torn_tails"`

	// Damage lists the per-stream corruption that truncated salvage
	// (empty when every stream read cleanly to EOF).
	Damage []CorruptionError `json:"damage,omitempty"`
}

// logEntry is one decoded wire entry. For KindSeal, ts holds the
// sealed epoch.
type logEntry struct {
	kind  byte
	ts    uint64
	table int
	key   storage.Key
	cols  []int
	vals  []storage.Value
	tuple storage.Tuple
	proc  string
	args  []storage.Value
}

// commitGroup is one transaction's record group, terminated by its
// commit entry with timestamp ts.
type commitGroup struct {
	ts      uint64
	entries []logEntry
}

// streamScan is the verification pass over one stream.
type streamScan struct {
	groups   []commitGroup
	maxSeal  uint32
	maxEpoch uint32 // highest epoch in any intact frame (seals, groups, torn entries)
	damage   *CorruptionError
	torn     int   // entries in the trailing commit-less group
	tornOff  int64 // offset of that group's first entry
	empty    bool  // stream held no bytes at all
}

// scanStream decodes one stream up to its first unreadable frame.
// Only genuine I/O errors of the reader surface as errors; damage is
// recorded in the scan.
func scanStream(idx int, r io.Reader) (*streamScan, error) {
	fr := newFrameReader(r)
	sc := &streamScan{}
	var pending []logEntry
	pendingOff := int64(-1)
	sawFrame := false
	for {
		payload, off, err := fr.next()
		if err == io.EOF {
			break
		}
		var ce *CorruptionError
		if errors.As(err, &ce) {
			ce.Stream = idx
			sc.damage = ce
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wal: reading stream %d: %w", idx, err)
		}
		sawFrame = true
		e, derr := decodeEntry(payload)
		if derr != nil {
			// A CRC-valid frame that fails to decode is a writer bug
			// or format mismatch, not crash damage — but for salvage
			// purposes it truncates the stream the same way.
			sc.damage = &CorruptionError{Stream: idx, Offset: off, Tail: fr.atEOF(), Reason: derr.Error()}
			break
		}
		switch e.kind {
		case KindSeal:
			if epoch := uint32(e.ts); epoch > sc.maxSeal {
				sc.maxSeal = epoch
			}
			if epoch := uint32(e.ts); epoch > sc.maxEpoch {
				sc.maxEpoch = epoch
			}
		case KindCommit:
			if epoch, _ := storage.SplitTS(e.ts); epoch > sc.maxEpoch {
				sc.maxEpoch = epoch
			}
			sc.groups = append(sc.groups, commitGroup{ts: e.ts, entries: pending})
			pending = nil
			pendingOff = -1
		default:
			if epoch, _ := storage.SplitTS(e.ts); epoch > sc.maxEpoch {
				sc.maxEpoch = epoch
			}
			if pendingOff < 0 {
				pendingOff = off
			}
			pending = append(pending, e)
		}
	}
	sc.torn = len(pending)
	sc.tornOff = pendingOff
	sc.empty = !sawFrame && sc.damage == nil
	return sc, nil
}

// decodeEntry parses one frame payload into a logEntry.
func decodeEntry(payload []byte) (logEntry, error) {
	if len(payload) == 0 {
		return logEntry{}, errors.New("empty frame payload")
	}
	rd := &reader{r: bytes.NewReader(payload[1:])}
	e := logEntry{kind: payload[0]}
	var err error
	switch e.kind {
	case KindWrite:
		if e.ts, err = rd.uvarint(); err != nil {
			return e, err
		}
		var tid, key, n uint64
		if tid, err = rd.uvarint(); err != nil {
			return e, err
		}
		if key, err = rd.uvarint(); err != nil {
			return e, err
		}
		if n, err = rd.uvarint(); err != nil {
			return e, err
		}
		e.table, e.key = int(tid), storage.Key(key)
		e.cols = make([]int, n)
		e.vals = make([]storage.Value, n)
		for i := range e.cols {
			c, err := rd.uvarint()
			if err != nil {
				return e, err
			}
			v, err := rd.value()
			if err != nil {
				return e, err
			}
			e.cols[i], e.vals[i] = int(c), v
		}
	case KindInsert:
		if e.ts, err = rd.uvarint(); err != nil {
			return e, err
		}
		var tid, key, n uint64
		if tid, err = rd.uvarint(); err != nil {
			return e, err
		}
		if key, err = rd.uvarint(); err != nil {
			return e, err
		}
		if n, err = rd.uvarint(); err != nil {
			return e, err
		}
		e.table, e.key = int(tid), storage.Key(key)
		e.tuple = make(storage.Tuple, n)
		for i := range e.tuple {
			if e.tuple[i], err = rd.value(); err != nil {
				return e, err
			}
		}
	case KindDelete:
		if e.ts, err = rd.uvarint(); err != nil {
			return e, err
		}
		var tid, key uint64
		if tid, err = rd.uvarint(); err != nil {
			return e, err
		}
		if key, err = rd.uvarint(); err != nil {
			return e, err
		}
		e.table, e.key = int(tid), storage.Key(key)
	case KindCommand:
		if e.ts, err = rd.uvarint(); err != nil {
			return e, err
		}
		if e.proc, err = rd.str(); err != nil {
			return e, err
		}
		var n uint64
		if n, err = rd.uvarint(); err != nil {
			return e, err
		}
		e.args = make([]storage.Value, n)
		for i := range e.args {
			if e.args[i], err = rd.value(); err != nil {
				return e, err
			}
		}
	case KindCommit, KindSeal:
		if e.ts, err = rd.uvarint(); err != nil {
			return e, err
		}
	default:
		return e, fmt.Errorf("bad entry kind %d", e.kind)
	}
	return e, nil
}

// validateAgainst checks decoded groups against the catalog's schema
// so a mismatched log errors out before any mutation, in both modes.
func validateAgainst(catalog *storage.Catalog, scans []*streamScan) error {
	ntab := len(catalog.Tables())
	for i, sc := range scans {
		for _, g := range sc.groups {
			for _, e := range g.entries {
				if e.kind == KindCommand {
					continue
				}
				if e.table < 0 || e.table >= ntab {
					return fmt.Errorf("wal: stream %d: entry references table %d, catalog has %d tables", i, e.table, ntab)
				}
				ncols := len(catalog.TableByID(e.table).Schema().Columns)
				for _, c := range e.cols {
					if c < 0 || c >= ncols {
						return fmt.Errorf("wal: stream %d: entry references column %d of table %d (%d columns)", i, c, e.table, ncols)
					}
				}
			}
		}
	}
	return nil
}

// RecoverStreams replays log streams into the catalog under the
// chosen recovery contract (see RecoverOptions for the strict and
// salvage semantics). Value-log entries apply under the Thomas write
// rule — a logged write lands only if its timestamp exceeds the
// record's current one, so streams may be replayed in any order
// (Appendix C.1); command-log entries are returned in the result for
// the caller to re-execute, since that needs the procedure registry.
//
// Commit groups with epoch ≤ watermark are skipped, not applied: the
// checkpoint image loaded first already holds their effects. For value
// logs the skip is an optimization (the Thomas write rule would
// discard the stale writes anyway); for command logs it is required,
// since re-running a command the image already holds double-applies
// it. Zero skips nothing.
//
// The returned result is non-nil iff err is nil; on error the catalog
// has not been modified.
func RecoverStreams(catalog *storage.Catalog, streams []io.Reader, opts RecoverOptions, watermark uint32) (*RecoveryResult, error) {
	scans := make([]*streamScan, len(streams))
	for i, s := range streams {
		sc, err := scanStream(i, s)
		if err != nil {
			return nil, err
		}
		scans[i] = sc
	}

	if !opts.Salvage {
		for i, sc := range scans {
			if sc.damage != nil {
				return nil, sc.damage
			}
			if sc.torn > 0 {
				return nil, &CorruptionError{Stream: i, Offset: sc.tornOff, Tail: true,
					Reason: fmt.Sprintf("incomplete commit group (%d entries without a commit entry)", sc.torn)}
			}
		}
	}
	if err := validateAgainst(catalog, scans); err != nil {
		return nil, err
	}

	res := &RecoveryResult{}
	// The durable epoch is the epoch-consistent cut: the minimum
	// sealed epoch across streams. Entirely empty streams carry no
	// information (an idle worker that never logged) and impose no
	// constraint.
	haveCut := false
	for _, sc := range scans {
		if sc.empty {
			continue
		}
		if !haveCut || sc.maxSeal < res.DurableEpoch {
			res.DurableEpoch = sc.maxSeal
			haveCut = true
		}
	}

	for _, sc := range scans {
		if sc.damage != nil {
			res.Damage = append(res.Damage, *sc.damage)
		}
		if sc.torn > 0 {
			res.TornGroups++
		}
		if sc.maxEpoch > res.MaxEpoch {
			res.MaxEpoch = sc.maxEpoch
		}
		for _, g := range sc.groups {
			epoch, _ := storage.SplitTS(g.ts)
			if watermark > 0 && epoch <= watermark {
				res.SkippedGroups++
				continue
			}
			if opts.Salvage && epoch > res.DurableEpoch {
				res.DroppedGroups++
				continue
			}
			res.AppliedGroups++
			for i := range g.entries {
				e := &g.entries[i]
				if e.kind == KindCommand {
					res.Commands = append(res.Commands, Command{TS: e.ts, Proc: e.proc, Args: e.args})
					continue
				}
				applyEntry(catalog, e)
			}
		}
	}
	return res, nil
}

// applyEntry installs one value-log entry under the Thomas write
// rule.
func applyEntry(catalog *storage.Catalog, e *logEntry) {
	tab := catalog.TableByID(e.table)
	switch e.kind {
	case KindWrite:
		rec, ok := tab.Peek(e.key)
		if !ok {
			// Write to a record whose insert entry lives in another
			// stream not yet replayed: materialize it.
			rec = tab.Put(e.key, make(storage.Tuple, len(tab.Schema().Columns)), 0)
		}
		if rec.Timestamp() > e.ts {
			// Thomas write rule: discard strictly older writes.
			// Entries with equal timestamps belong to the same
			// transaction's record group and apply in log order.
			return
		}
		t := rec.Tuple().Clone()
		for i, c := range e.cols {
			t[c] = e.vals[i]
		}
		rec.SetTuple(t)
		rec.SetTimestamp(e.ts)
		rec.SetVisible(true)
	case KindInsert:
		if rec, ok := tab.Peek(e.key); ok {
			if rec.Timestamp() > e.ts {
				return
			}
			rec.SetTuple(e.tuple)
			rec.SetTimestamp(e.ts)
			rec.SetVisible(true)
			return
		}
		tab.Put(e.key, e.tuple, e.ts)
	case KindDelete:
		rec, ok := tab.Peek(e.key)
		if !ok {
			// Delete of a record inserted in a not-yet-replayed
			// stream: materialize an invisible tombstone carrying
			// the timestamp.
			rec = tab.Put(e.key, make(storage.Tuple, len(tab.Schema().Columns)), 0)
		}
		if rec.Timestamp() > e.ts {
			return
		}
		rec.SetTimestamp(e.ts)
		rec.SetVisible(false)
	}
}
