package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"thedb/internal/storage"
	"thedb/internal/wal"
)

func newCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name: "kv",
		Columns: []storage.ColumnDef{
			{Name: "v", Kind: storage.KindInt},
			{Name: "s", Kind: storage.KindString},
		},
	})
	cat.MustCreateTable(storage.Schema{
		Name:    "seq",
		Columns: []storage.ColumnDef{{Name: "n", Kind: storage.KindInt}},
	})
	return cat
}

func fill(cat *storage.Catalog, rows int) {
	kv := cat.Tables()[0]
	for i := 0; i < rows; i++ {
		kv.Put(storage.Key(i), storage.Tuple{storage.Int(int64(i * 3)), storage.Str(fmt.Sprintf("row-%d", i))}, storage.MakeTS(uint32(1+i%5), uint32(i)))
	}
	cat.Tables()[1].Put(7, storage.Tuple{storage.Int(42)}, storage.MakeTS(9, 1))
}

func imageBytes(t *testing.T, cat *storage.Catalog, watermark uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, _, err := Write(&buf, cat, watermark, Scan(cat), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameCatalog(t *testing.T, a, b *storage.Catalog) {
	t.Helper()
	for ti, ta := range a.Tables() {
		tb := b.Tables()[ti]
		if ta.Len() != tb.Len() {
			t.Fatalf("table %d: %d rows vs %d", ti, ta.Len(), tb.Len())
		}
		ta.ForEach(func(k storage.Key, ra *storage.Record) bool {
			rb, ok := tb.Peek(k)
			if !ok {
				t.Fatalf("table %d key %d missing", ti, k)
			}
			tsa, tua, _ := ra.StableSnapshot()
			tsb, tub, _ := rb.StableSnapshot()
			if tsa != tsb || !tua.Equal(tub) {
				t.Fatalf("table %d key %d differs: (%d,%v) vs (%d,%v)", ti, k, tsa, tua, tsb, tub)
			}
			return true
		})
	}
}

func TestImageRoundTrip(t *testing.T) {
	cat := newCatalog()
	fill(cat, 1500) // > slotRows so multiple slots per table
	img := imageBytes(t, cat, 4)

	cat2 := newCatalog()
	info, err := Load(cat2, bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if info.Watermark != 4 {
		t.Fatalf("watermark = %d, want 4", info.Watermark)
	}
	if info.Rows != 1501 {
		t.Fatalf("rows = %d, want 1501", info.Rows)
	}
	if info.MaxRowEpoch != 9 {
		t.Fatalf("max row epoch = %d, want 9", info.MaxRowEpoch)
	}
	sameCatalog(t, cat, cat2)
}

func TestImageBytesIndependentOfInsertionOrder(t *testing.T) {
	build := func(keys []int64) *storage.Catalog {
		cat := newCatalog()
		for _, i := range keys {
			cat.Tables()[0].Put(storage.Key(i), storage.Tuple{storage.Int(i), storage.Str("s")}, storage.MakeTS(1, uint32(i)))
		}
		return cat
	}
	a := imageBytes(t, build([]int64{5, 1, 9, 3}), 1)
	b := imageBytes(t, build([]int64{3, 9, 1, 5}), 1)
	if !bytes.Equal(a, b) {
		t.Fatal("image bytes depend on insertion order")
	}
}

func TestImageSkipsInvisibleRows(t *testing.T) {
	cat := newCatalog()
	fill(cat, 10)
	rec, _ := cat.Tables()[0].Peek(3)
	rec.Lock()
	rec.SetVisible(false)
	rec.Unlock()

	cat2 := newCatalog()
	info, err := Load(cat2, bytes.NewReader(imageBytes(t, cat, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 10 { // 9 kv + 1 seq
		t.Fatalf("rows = %d, want 10", info.Rows)
	}
	if _, ok := cat2.Tables()[0].Peek(3); ok {
		t.Fatal("invisible row resurfaced in the image")
	}
}

func TestLoadRejectsCorruptionWithoutApplying(t *testing.T) {
	cat := newCatalog()
	fill(cat, 800)
	img := imageBytes(t, cat, 2)

	cases := map[string]func([]byte) []byte{
		"bit flip in slot":  func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncated":         func(b []byte) []byte { return b[:len(b)-20] },
		"missing footer":    func(b []byte) []byte { return b[:len(b)-30] },
		"empty":             func(b []byte) []byte { return nil },
		"header corruption": func(b []byte) []byte { b[10] ^= 0xff; return b },
	}
	for name, mutate := range cases {
		cat2 := newCatalog()
		mutated := mutate(append([]byte(nil), img...))
		if _, err := Load(cat2, bytes.NewReader(mutated)); err == nil {
			t.Fatalf("%s: Load accepted a damaged image", name)
		}
		for _, tab := range cat2.Tables() {
			if tab.Len() != 0 {
				t.Fatalf("%s: Load applied %d rows from a damaged image", name, tab.Len())
			}
		}
	}
}

func TestLoadRejectsSchemaDrift(t *testing.T) {
	cat := newCatalog()
	fill(cat, 5)
	img := imageBytes(t, cat, 1)

	drifted := storage.NewCatalog()
	drifted.MustCreateTable(storage.Schema{
		Name:    "kv",
		Columns: []storage.ColumnDef{{Name: "v", Kind: storage.KindInt}}, // column dropped
	})
	drifted.MustCreateTable(storage.Schema{
		Name:    "seq",
		Columns: []storage.ColumnDef{{Name: "n", Kind: storage.KindInt}},
	})
	if _, err := Load(drifted, bytes.NewReader(img)); err == nil {
		t.Fatal("Load accepted an image from a different schema")
	}
}

func quiescedSource(cat *storage.Catalog, epoch uint32) Source {
	return Source{
		Catalog:      cat,
		CurrentEpoch: func() uint32 { return epoch },
		Quiesced:     true,
	}
}

func TestRunOncePublishesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	cat := newCatalog()
	fill(cat, 100)
	c, err := New(quiescedSource(cat, 7), Options{Dir: dir, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		info, err := c.RunOnce()
		if err != nil {
			t.Fatal(err)
		}
		if info.Watermark != 7 {
			t.Fatalf("watermark = %d, want 7", info.Watermark)
		}
	}
	_, paths := listCheckpoints(dir)
	if len(paths) != 2 {
		t.Fatalf("retained %d images, want 2 (prune failed): %v", len(paths), paths)
	}
	if filepath.Base(paths[0]) != "checkpoint-000004.ckpt" {
		t.Fatalf("newest = %s, want checkpoint-000004.ckpt", paths[0])
	}

	cat2 := newCatalog()
	info, err := LoadNewest(cat2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 4 {
		t.Fatalf("loaded seq %d, want 4", info.Seq)
	}
	sameCatalog(t, cat, cat2)
}

func TestLoadNewestFallsBackPastCorruptImage(t *testing.T) {
	dir := t.TempDir()
	cat := newCatalog()
	fill(cat, 50)
	c, err := New(quiescedSource(cat, 3), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunOnce(); err != nil {
		t.Fatal(err)
	}
	// Second image is newer but will be damaged on disk.
	cat.Tables()[0].Put(999, storage.Tuple{storage.Int(1), storage.Str("late")}, storage.MakeTS(3, 9))
	info2, err := c.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(info2.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(info2.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cat2 := newCatalog()
	info, err := LoadNewest(cat2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 {
		t.Fatalf("loaded seq %d, want fallback to 1", info.Seq)
	}
	if _, ok := cat2.Tables()[0].Peek(999); ok {
		t.Fatal("fallback image contains the newer row")
	}
}

func TestLoadNewestEmptyDirIsNotAnError(t *testing.T) {
	info, err := LoadNewest(newCatalog(), t.TempDir())
	if err != nil || info != nil {
		t.Fatalf("LoadNewest(empty) = (%v, %v), want (nil, nil)", info, err)
	}
}

func TestCrashPointsNeverPublishTornImages(t *testing.T) {
	for _, point := range []CrashPoint{MidWrite, PreRename} {
		dir := t.TempDir()
		cat := newCatalog()
		fill(cat, 700)
		boom := errors.New("injected crash")
		c, err := New(quiescedSource(cat, 2), Options{
			Dir: dir,
			Hooks: Hooks{At: func(p CrashPoint) error {
				if p == point {
					return boom
				}
				return nil
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunOnce(); !errors.Is(err, boom) {
			t.Fatalf("%v: RunOnce error = %v, want injected crash", point, err)
		}
		if _, paths := listCheckpoints(dir); len(paths) != 0 {
			t.Fatalf("%v: crash before publish left visible images: %v", point, paths)
		}
		// Recovery sees no checkpoint at all — full-WAL replay territory.
		if info, err := LoadNewest(newCatalog(), dir); err != nil || info != nil {
			t.Fatalf("%v: LoadNewest = (%v, %v), want (nil, nil)", point, info, err)
		}
		// The next round must succeed over the leftover temp file.
		c.opt.Hooks = Hooks{}
		if _, err := c.RunOnce(); err != nil {
			t.Fatalf("%v: retry after crash failed: %v", point, err)
		}
		if info, err := LoadNewest(newCatalog(), dir); err != nil || info == nil {
			t.Fatalf("%v: retry did not publish: (%v, %v)", point, info, err)
		}
	}
}

func TestCrashAfterRenameKeepsImageValid(t *testing.T) {
	dir := t.TempDir()
	cat := newCatalog()
	fill(cat, 80)
	boom := errors.New("injected crash")
	c, err := New(quiescedSource(cat, 2), Options{
		Dir: dir,
		Hooks: Hooks{At: func(p CrashPoint) error {
			if p == PostRename {
				return boom
			}
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunOnce(); !errors.Is(err, boom) {
		t.Fatalf("RunOnce error = %v, want injected crash", err)
	}
	cat2 := newCatalog()
	info, err := LoadNewest(cat2, dir)
	if err != nil || info == nil {
		t.Fatalf("image published before the crash must load: (%v, %v)", info, err)
	}
	sameCatalog(t, cat, cat2)
}

func TestFileSetRotateAndTruncate(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileSet(dir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	lg := wal.NewLogger(wal.ValueLogging, 2, func(i int) io.Writer { return fs.Sink(i) })

	write := func(worker int, epoch uint32) {
		wl := lg.Worker(worker)
		ts := storage.MakeTS(epoch, uint32(worker))
		if err := wl.BeginCommit(ts); err != nil {
			t.Fatal(err)
		}
		if err := wl.LogInsert(ts, 0, storage.Key(epoch), storage.Tuple{storage.Int(1), storage.Str("x")}); err != nil {
			t.Fatal(err)
		}
		if err := wl.EndCommit(ts); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 3)
	write(1, 3)
	if err := lg.SealAndSync(3); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Rotate(lg); err != nil {
		t.Fatal(err)
	}
	write(0, 5)
	write(1, 5)
	if err := lg.SealAndSync(5); err != nil {
		t.Fatal(err)
	}
	if got := fs.ClosedGens(); got != 2 {
		t.Fatalf("closed gens = %d, want 2", got)
	}

	// Watermark 2 covers nothing; watermark 3 covers generation 1.
	if n, err := fs.Truncate(2, nil); err != nil || n != 0 {
		t.Fatalf("Truncate(2) = (%d, %v), want (0, nil)", n, err)
	}
	if n, err := fs.Truncate(3, nil); err != nil || n != 2 {
		t.Fatalf("Truncate(3) = (%d, %v), want (2, nil)", n, err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// The surviving generation must still replay cleanly.
	fs2, err := OpenFileSet(dir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	streams, closeAll, err := fs2.BootStreams()
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll()
	if len(streams) != 2 {
		t.Fatalf("boot streams = %d, want 2", len(streams))
	}
	cat := newCatalog()
	rep, err := wal.RecoverStreams(cat, streams, wal.RecoverOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppliedGroups != 2 {
		t.Fatalf("applied %d groups from tail, want 2", rep.AppliedGroups)
	}
	if _, ok := cat.Tables()[0].Peek(5); !ok {
		t.Fatal("epoch-5 row missing after tail replay")
	}
	if _, ok := cat.Tables()[0].Peek(3); ok {
		t.Fatal("epoch-3 row reappeared — truncated generation was replayed?")
	}
}

func TestFileSetAdoptedGensTruncateOnlyAfterBound(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileSet(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	lg := wal.NewLogger(wal.ValueLogging, 1, func(i int) io.Writer { return fs.Sink(i) })
	wl := lg.Worker(0)
	ts := storage.MakeTS(4, 0)
	if err := wl.BeginCommit(ts); err != nil {
		t.Fatal(err)
	}
	if err := wl.LogInsert(ts, 0, 1, storage.Tuple{storage.Int(1), storage.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if err := wl.EndCommit(ts); err != nil {
		t.Fatal(err)
	}
	if err := lg.SealAndSync(4); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileSet(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	// Unknown max epoch: a huge watermark still must not delete it.
	if n, err := fs2.Truncate(1<<30, nil); err != nil || n != 0 {
		t.Fatalf("Truncate before SetRecoveredMax = (%d, %v), want (0, nil)", n, err)
	}
	fs2.SetRecoveredMax(4)
	if n, err := fs2.Truncate(3, nil); err != nil || n != 0 {
		t.Fatalf("Truncate(3) = (%d, %v), want (0, nil): bound is 4", n, err)
	}
	if n, err := fs2.Truncate(4, nil); err != nil || n != 1 {
		t.Fatalf("Truncate(4) = (%d, %v), want (1, nil)", n, err)
	}
}

func TestSchemaDigestSensitivity(t *testing.T) {
	base := SchemaDigest(newCatalog())
	if SchemaDigest(newCatalog()) != base {
		t.Fatal("digest is not deterministic")
	}
	renamed := storage.NewCatalog()
	renamed.MustCreateTable(storage.Schema{
		Name: "kv2",
		Columns: []storage.ColumnDef{
			{Name: "v", Kind: storage.KindInt},
			{Name: "s", Kind: storage.KindString},
		},
	})
	renamed.MustCreateTable(storage.Schema{
		Name:    "seq",
		Columns: []storage.ColumnDef{{Name: "n", Kind: storage.KindInt}},
	})
	if SchemaDigest(renamed) == base {
		t.Fatal("digest ignores table names")
	}
}
