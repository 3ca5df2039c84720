package core

import "runtime"

// tplMode values for Element.tplMode.
const (
	tplNone uint8 = iota
	tplR
	tplW
)

// tplLock acquires the 2PL lock for an element at access time
// (THEDB-2PL, §5): shared for reads, exclusive for writes, upgrading
// when a read is followed by a write. All acquisitions are no-wait —
// the most scalable deadlock-prevention policy per the paper's
// reference [61] — so any failure signals abort-and-restart.
//
// THEDB-HYBRID's lock-based leg runs concurrently with OCC
// transactions, which only respect the record meta lock; that leg
// therefore locks through the meta word (exclusive only) so the two
// protocols serialize against each other.
//
// Each new acquisition re-reads the R-timestamp: acquire captured it
// before the lock, and a commit landing in between would leave the
// footprint naming an older version than the one read under the lock.
func (t *Txn) tplLock(el *Element, write bool) error {
	if t.tplMeta {
		if el.locked {
			return nil
		}
		// The hybrid's lock-based rerun follows Herlihy's scheme,
		// where the lock-based execution waits for locks. Waiting in
		// access order can deadlock, so spin only a bounded while
		// before giving up and restarting.
		for i := 0; i < 512; i++ {
			if el.rec.TryLock() {
				el.locked = true
				t.locked = append(t.locked, el)
				el.rts, _, el.seenVisible = el.rec.Meta()
				return nil
			}
			if i%8 == 7 {
				runtime.Gosched()
			}
		}
		return errRestart
	}
	rw := el.rec.RW()
	if !write {
		if el.tplMode != tplNone {
			return nil
		}
		if !rw.TryRLock() {
			return errRestart
		}
		el.tplMode = tplR
		el.rts, _, el.seenVisible = el.rec.Meta()
		return nil
	}
	switch el.tplMode {
	case tplW:
		return nil
	case tplR:
		if !rw.TryUpgrade() {
			return errRestart
		}
		el.tplMode = tplW
		return nil
	default:
		if !rw.TryWLock() {
			return errRestart
		}
		el.tplMode = tplW
		el.rts, _, el.seenVisible = el.rec.Meta()
		return nil
	}
}

// releaseTPL drops an element's 2PL lock (commit or abort).
func releaseTPL(el *Element) {
	switch el.tplMode {
	case tplR:
		el.rec.RW().RUnlock()
	case tplW:
		el.rec.RW().WUnlock()
	}
	el.tplMode = tplNone
}
