package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"thedb/internal/metrics"
	"thedb/internal/storage"
	"thedb/internal/wal"
)

// CrashPoint names a kill site inside the checkpoint round. The
// torture harness arms Hooks to return an error at one of these and
// verifies recovery lands on a valid checkpoint plus a consistent WAL
// tail no matter where the round died.
type CrashPoint int

const (
	// MidWrite fires after the first slot frame of the temp image.
	MidWrite CrashPoint = iota
	// PreRename fires after the temp image is fsynced, before rename.
	PreRename
	// PostRename fires after the image is published, before WAL
	// rotation and truncation.
	PostRename
	// MidTruncate fires after the first WAL generation is deleted.
	MidTruncate
)

func (p CrashPoint) String() string {
	switch p {
	case MidWrite:
		return "mid-write"
	case PreRename:
		return "pre-rename"
	case PostRename:
		return "post-rename"
	case MidTruncate:
		return "mid-truncate"
	default:
		return fmt.Sprintf("crashpoint(%d)", int(p))
	}
}

// Hooks injects failures at crash points. At returning a non-nil
// error aborts the round there, leaving the disk state exactly as a
// crash at that instant would.
type Hooks struct {
	At func(CrashPoint) error
}

func (h Hooks) at(p CrashPoint) error {
	if h.At == nil {
		return nil
	}
	return h.At(p)
}

// ErrStopped reports a round aborted because the checkpointer was
// stopped while waiting for durability to catch up.
var ErrStopped = errors.New("checkpoint: checkpointer stopped")

// ErrDurabilityLost reports a round aborted because the engine latched
// durability-lost: the WAL can no longer certify the epochs the fuzzy
// scan may have captured, so the image must not be published.
var ErrDurabilityLost = errors.New("checkpoint: durability lost, image not published")

// Source is the engine surface a Checkpointer snapshots. Closures
// keep the package decoupled from internal/core.
type Source struct {
	Catalog *storage.Catalog
	// CurrentEpoch returns the global epoch.
	CurrentEpoch func() uint32
	// DurableEpoch returns the group-commit durability frontier.
	// Required unless Quiesced.
	DurableEpoch func() uint32
	// DurabilityLost reports whether group commit gave up on syncing
	// (the frontier will never advance). Optional.
	DurabilityLost func() bool
	// Quiesced asserts no writer is concurrent with the scan (engine
	// not started, or stopped). The watermark is then the current
	// epoch and no publication gate is needed.
	Quiesced bool
}

// Options configures a Checkpointer.
type Options struct {
	// Dir is where checkpoint-<seq>.ckpt images are published.
	Dir string
	// Interval is the cadence of the background loop (Start). Zero
	// with Start is an error; RunOnce ignores it.
	Interval time.Duration
	// Keep is how many published images to retain (default 2: the
	// newest plus one fallback should the newest be corrupt).
	Keep int
	// Files, when set, is rotated and truncated after each publish so
	// the WAL tail stays bounded. Requires Log.
	Files *FileSet
	// Log is the live logger rotated through Files.
	Log *wal.Logger
	// Stats, when set, receives counters for the obs plane.
	Stats *metrics.Checkpoint
	// Hooks injects crash points (tests only).
	Hooks Hooks
	// GatePoll is the publication-gate polling interval (default 1ms).
	GatePoll time.Duration
	// GateTimeout bounds the publication-gate wait (default 30s); an
	// advancer that never reaches the gate epoch means group commit is
	// wedged and the round aborts rather than hangs.
	GateTimeout time.Duration
}

// Checkpointer takes checkpoints of a Source, either on demand
// (RunOnce) or on a background cadence (Start/Stop).
//
// The round's correctness argument: the watermark W is the durable
// epoch at scan start — every group with epoch ≤ W is both on disk in
// the WAL and fully installed in memory (commit installs memory
// effects before its WAL append; the frontier only advances past
// epochs whose groups are complete), so the fuzzy scan can only see
// those groups in full. Rows from epochs in (W, E_gate] (E_gate = the
// current epoch when the scan finished) may be captured partially;
// before publishing, the round waits until the durable frontier
// reaches E_gate, so any replay that starts from this image finds all
// of those groups in the WAL tail and re-applies them whole
// (value-log replay is idempotent under the Thomas write rule).
// Truncation then deletes only generations with max epoch ≤ W.
type Checkpointer struct {
	src Source
	opt Options

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// New validates the wiring and builds a Checkpointer.
func New(src Source, opt Options) (*Checkpointer, error) {
	if src.Catalog == nil || src.CurrentEpoch == nil {
		return nil, fmt.Errorf("checkpoint: source needs Catalog and CurrentEpoch")
	}
	if !src.Quiesced && src.DurableEpoch == nil {
		return nil, fmt.Errorf("checkpoint: online source needs DurableEpoch")
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("checkpoint: options need Dir")
	}
	if opt.Files != nil && opt.Log == nil {
		return nil, fmt.Errorf("checkpoint: Files requires Log to rotate")
	}
	if opt.Keep <= 0 {
		opt.Keep = 2
	}
	if opt.GatePoll <= 0 {
		opt.GatePoll = time.Millisecond
	}
	if opt.GateTimeout <= 0 {
		opt.GateTimeout = 30 * time.Second
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Checkpointer{src: src, opt: opt}, nil
}

// Start launches the background loop, one round every Interval.
// Round errors are counted in Stats and retried next tick.
func (c *Checkpointer) Start() error {
	if c.opt.Interval <= 0 {
		return fmt.Errorf("checkpoint: Start needs a positive Interval")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return nil
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(c.opt.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = c.RunOnce() // errors are visible via Stats.Failed
			}
		}
	}()
	return nil
}

// Stop halts the background loop, waiting out an in-flight round.
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// stopped reports whether Stop has been requested (nil-safe when the
// loop never started).
func (c *Checkpointer) stopped() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stop
}

// RunOnce executes one checkpoint round: scan, write temp image, wait
// the publication gate, fsync, rename into place, prune old images,
// rotate the WAL onto a fresh generation and truncate generations the
// new watermark covers. On error nothing is published (a dead temp
// file may remain; it is never loaded and is overwritten next round).
func (c *Checkpointer) RunOnce() (*Info, error) {
	start := time.Now()
	info, err := c.runOnce()
	if c.opt.Stats != nil {
		if err != nil {
			c.opt.Stats.Failed.Add(1)
		} else {
			c.opt.Stats.Taken.Add(1)
			c.opt.Stats.LastWatermark.Store(info.Watermark)
			c.opt.Stats.LastRows.Store(info.Rows)
			c.opt.Stats.LastBytes.Store(info.Bytes)
			c.opt.Stats.LastDurationNS.Store(time.Since(start).Nanoseconds())
		}
	}
	return info, err
}

func (c *Checkpointer) runOnce() (*Info, error) {
	var watermark uint32
	if c.src.Quiesced {
		watermark = c.src.CurrentEpoch()
	} else {
		watermark = c.src.DurableEpoch()
	}

	images := Scan(c.src.Catalog)

	tmp := filepath.Join(c.opt.Dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.Close() //thedb:nolint:syncerr error-path cleanup; the success path Syncs and Closes explicitly before rename
		}
	}()
	midSlot := func() error { return c.opt.Hooks.at(MidWrite) }
	rows, bytes_, maxRowEpoch, err := Write(f, c.src.Catalog, watermark, images, midSlot)
	if err != nil {
		return nil, err
	}

	// Publication gate: the scan may have captured partial effects of
	// epochs up to the current one. Wait until every epoch the image
	// can contain is durable in the WAL, so a restart from this image
	// always finds the full groups in the tail.
	gate := c.src.CurrentEpoch()
	if !c.src.Quiesced {
		if err := c.waitGate(gate); err != nil {
			return nil, err
		}
	}

	if err := f.Sync(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		f = nil
		return nil, err
	}
	f = nil

	if err := c.opt.Hooks.at(PreRename); err != nil {
		return nil, err
	}

	seq := nextSeq(c.opt.Dir)
	final := ckptPath(c.opt.Dir, seq)
	if err := os.Rename(tmp, final); err != nil {
		return nil, err
	}
	if err := syncDir(c.opt.Dir); err != nil {
		return nil, err
	}
	info := &Info{
		Path: final, Seq: seq,
		Watermark: watermark, MaxRowEpoch: maxRowEpoch,
		Rows: rows, Bytes: bytes_, Tables: len(c.src.Catalog.Tables()),
	}

	if err := c.opt.Hooks.at(PostRename); err != nil {
		return info, err
	}

	if err := pruneCheckpoints(c.opt.Dir, c.opt.Keep); err != nil {
		return info, err
	}

	if c.opt.Files != nil {
		if _, err := c.opt.Files.Rotate(c.opt.Log); err != nil {
			return info, err
		}
		midTrunc := func() error { return c.opt.Hooks.at(MidTruncate) }
		removed, err := c.opt.Files.Truncate(watermark, midTrunc)
		if c.opt.Stats != nil {
			c.opt.Stats.WALGensRemoved.Add(int64(removed))
		}
		if err != nil {
			return info, err
		}
	}
	return info, nil
}

// waitGate polls until the durable frontier reaches gate.
func (c *Checkpointer) waitGate(gate uint32) error {
	deadline := time.Now().Add(c.opt.GateTimeout)
	stop := c.stopped()
	for {
		if c.src.DurabilityLost != nil && c.src.DurabilityLost() {
			return ErrDurabilityLost
		}
		if c.src.DurableEpoch() >= gate {
			return nil
		}
		if stop != nil {
			select {
			case <-stop:
				return ErrStopped
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("checkpoint: publication gate timed out (durable %d, need %d)", c.src.DurableEpoch(), gate)
		}
		time.Sleep(c.opt.GatePoll)
	}
}

var ckptFileRE = regexp.MustCompile(`^checkpoint-(\d+)\.ckpt$`)

func ckptPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%06d.ckpt", seq))
}

// listCheckpoints returns published images sorted newest first.
func listCheckpoints(dir string) (seqs []uint64, paths []string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	for _, e := range entries {
		m := ckptFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		s, _ := strconv.ParseUint(m[1], 10, 64)
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, s := range seqs {
		paths = append(paths, ckptPath(dir, s))
	}
	return seqs, paths
}

func nextSeq(dir string) uint64 {
	seqs, _ := listCheckpoints(dir)
	if len(seqs) == 0 {
		return 1
	}
	return seqs[0] + 1
}

// pruneCheckpoints deletes all but the keep newest images.
func pruneCheckpoints(dir string, keep int) error {
	_, paths := listCheckpoints(dir)
	if len(paths) <= keep {
		return nil
	}
	for _, p := range paths[keep:] {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return syncDir(dir)
}

// LoadNewest finds the newest valid checkpoint in dir and applies it
// to the catalog: images are tried newest first, and one that fails
// validation (torn write the rename protocol should prevent, bit rot,
// schema drift) is skipped in favor of the next — a checkpoint is an
// optimization over replaying the full WAL, so falling back to an
// older image is always safe for value logs. Returns (nil, nil) if
// dir holds no images at all; an error only if images exist and none
// validates.
func LoadNewest(catalog *storage.Catalog, dir string) (*Info, error) {
	seqs, paths := listCheckpoints(dir)
	if len(paths) == 0 {
		return nil, nil
	}
	var firstErr error
	for i, p := range paths {
		info, err := loadFile(catalog, p)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("checkpoint: %s: %w", filepath.Base(p), err)
			}
			continue
		}
		info.Path = p
		info.Seq = seqs[i]
		return info, nil
	}
	return nil, fmt.Errorf("checkpoint: no valid image in %s: %w", dir, firstErr)
}

func loadFile(catalog *storage.Catalog, path string) (*Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //thedb:nolint:syncerr read-only fd; nothing to lose on close
	return Load(catalog, bufio.NewReaderSize(f, 1<<15))
}
