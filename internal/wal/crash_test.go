package wal

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"thedb/internal/fault"
	"thedb/internal/storage"
)

// oneWorkerStream builds a single-worker value-log stream with one
// commit group per epoch in epochs, writing key base+epoch := epoch.
// closed selects Logger.Close (seals the final epoch) versus a bare
// flush (the final epoch stays unsealed, as after a crash).
func oneWorkerStream(t *testing.T, base int64, epochs []uint32, closed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	for _, e := range epochs {
		ts := storage.MakeTS(e, 1)
		if err := wl.BeginCommit(ts); err != nil {
			t.Fatal(err)
		}
		if err := wl.LogWrite(ts, 0, storage.Key(base+int64(e)), []int{0},
			[]storage.Value{storage.Int(int64(e))}); err != nil {
			t.Fatal(err)
		}
		if err := wl.EndCommit(ts); err != nil {
			t.Fatal(err)
		}
	}
	if closed {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	} else if err := wl.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameMap inspects a stream and fails the test on damage.
func frameMap(t *testing.T, stream []byte) []FrameInfo {
	t.Helper()
	frames, damage, err := InspectStream(bytes.NewReader(stream))
	if err != nil || damage != nil {
		t.Fatalf("inspect: err=%v damage=%v", err, damage)
	}
	return frames
}

func keyVisible(t *testing.T, cat *storage.Catalog, key int64) bool {
	t.Helper()
	tab, _ := cat.Table("T")
	rec, ok := tab.Peek(storage.Key(key))
	return ok && rec.Visible()
}

func TestSalvageTornTailCutsAtDurableEpoch(t *testing.T) {
	// Epoch-1 and epoch-2 groups; Close seals both. Tear the stream
	// inside its final frame (the epoch-2 seal): the epoch-2 group is
	// intact but no longer covered by a seal, so salvage must drop it.
	stream := oneWorkerStream(t, 100, []uint32{1, 2}, true)
	frames := frameMap(t, stream)
	last := frames[len(frames)-1]
	if last.Kind != KindSeal || last.SealEpoch != 2 {
		t.Fatalf("final frame = %+v, want seal(2)", last)
	}
	torn := stream[:last.Offset+3] // mid-header tear of the final seal

	cat := newCatalog()
	res, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(torn)}, RecoverOptions{Salvage: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableEpoch != 1 {
		t.Fatalf("durable epoch = %d, want 1", res.DurableEpoch)
	}
	if res.AppliedGroups != 1 || res.DroppedGroups != 1 {
		t.Fatalf("applied=%d dropped=%d, want 1/1", res.AppliedGroups, res.DroppedGroups)
	}
	if len(res.Damage) != 1 || !res.Damage[0].Tail {
		t.Fatalf("damage = %+v, want one torn-tail report", res.Damage)
	}
	if !keyVisible(t, cat, 101) || keyVisible(t, cat, 102) {
		t.Fatal("salvage did not restore exactly the epoch-1 prefix")
	}
}

func TestStrictErrorLeavesCatalogUntouched(t *testing.T) {
	stream := oneWorkerStream(t, 100, []uint32{1, 2}, true)
	corrupt := append([]byte(nil), stream...)
	corrupt[frameHeaderSize] ^= 0x01 // first payload byte of frame 0

	cat := newCatalog()
	cmds, err := recoverStrict(cat, []io.Reader{bytes.NewReader(corrupt)})
	if cmds != nil {
		t.Fatal("strict recovery returned commands alongside an error")
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptionError", err)
	}
	if ce.Tail || ce.Stream != 0 || ce.Offset != 0 {
		t.Fatalf("corruption = %+v, want mid-stream at offset 0 of stream 0", ce)
	}
	tab, _ := cat.Table("T")
	if tab.Len() != 0 {
		t.Fatal("strict recovery mutated the catalog before failing")
	}

	// Salvage over the same damage: everything after the corrupt
	// frame is unreachable, so nothing applies — but it reports
	// rather than errors.
	res, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(corrupt)}, RecoverOptions{Salvage: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppliedGroups != 0 || len(res.Damage) != 1 || res.Damage[0].Tail {
		t.Fatalf("salvage of head-corrupted stream: %+v", res)
	}
	if tab.Len() != 0 {
		t.Fatal("salvage applied groups past the corruption point")
	}
}

func TestTailVersusMidStreamClassification(t *testing.T) {
	stream := oneWorkerStream(t, 100, []uint32{1, 2, 3}, true)
	frames := frameMap(t, stream)
	mid := frames[1] // a frame with intact frames after it
	fin := frames[len(frames)-1]

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		wantTail bool
		wantOff  int64
	}{
		{"truncated header", func(b []byte) []byte { return b[:fin.Offset+3] }, true, fin.Offset},
		{"truncated body", func(b []byte) []byte { return b[:fin.Offset+frameHeaderSize+1] }, true, fin.Offset},
		{"payload flip mid-stream", func(b []byte) []byte {
			b[mid.Offset+frameHeaderSize] ^= 0x80
			return b
		}, false, mid.Offset},
		{"payload flip in final frame", func(b []byte) []byte {
			b[fin.Offset+frameHeaderSize] ^= 0x80
			return b
		}, true, fin.Offset},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			damaged := tc.mutate(append([]byte(nil), stream...))
			_, err := recoverStrict(newCatalog(), []io.Reader{bytes.NewReader(damaged)})
			var ce *CorruptionError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CorruptionError", err)
			}
			if ce.Tail != tc.wantTail || ce.Offset != tc.wantOff {
				t.Fatalf("got tail=%v offset=%d, want tail=%v offset=%d (%v)",
					ce.Tail, ce.Offset, tc.wantTail, tc.wantOff, ce)
			}
		})
	}
}

func TestDurableEpochIsMinimumAcrossStreams(t *testing.T) {
	// Stream A reached epoch 3 and was sealed there; stream B crashed
	// with only epoch 1 sealed (its epoch-2 group has no covering
	// seal). The cut is epoch 1: anything later may be missing from B,
	// so even A's intact epoch-2/3 groups must not apply.
	a := oneWorkerStream(t, 100, []uint32{1, 2, 3}, true)
	b := oneWorkerStream(t, 200, []uint32{1, 2}, false)

	cat := newCatalog()
	res, err := RecoverStreams(cat, []io.Reader{
		bytes.NewReader(a), bytes.NewReader(b), bytes.NewReader(nil), // plus an idle worker's empty stream
	}, RecoverOptions{Salvage: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableEpoch != 1 {
		t.Fatalf("durable epoch = %d, want min(3, 1) = 1", res.DurableEpoch)
	}
	if res.AppliedGroups != 2 || res.DroppedGroups != 3 {
		t.Fatalf("applied=%d dropped=%d, want 2/3", res.AppliedGroups, res.DroppedGroups)
	}
	for _, k := range []int64{101, 201} {
		if !keyVisible(t, cat, k) {
			t.Fatalf("epoch-1 key %d missing", k)
		}
	}
	for _, k := range []int64{102, 103, 202} {
		if keyVisible(t, cat, k) {
			t.Fatalf("key %d from beyond the durable epoch was applied", k)
		}
	}
}

func TestStrictRejectsIncompleteCommitGroup(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	ts := storage.MakeTS(1, 1)
	_ = wl.BeginCommit(ts)
	_ = wl.LogWrite(ts, 0, 1, []int{0}, []storage.Value{storage.Int(7)})
	_ = wl.Flush() // crash before EndCommit

	cat := newCatalog()
	_, err := recoverStrict(cat, []io.Reader{bytes.NewReader(buf.Bytes())})
	var ce *CorruptionError
	if !errors.As(err, &ce) || !ce.Tail || !strings.Contains(ce.Reason, "incomplete commit group") {
		t.Fatalf("err = %v, want torn-tail incomplete-commit-group", err)
	}

	res, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(buf.Bytes())}, RecoverOptions{Salvage: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TornGroups != 1 || res.AppliedGroups != 0 {
		t.Fatalf("torn=%d applied=%d, want 1/0", res.TornGroups, res.AppliedGroups)
	}
	if tab, _ := cat.Table("T"); tab.Len() != 0 {
		t.Fatal("entries of a commit-less group were applied")
	}
}

func TestSchemaMismatchRejectedBeforeMutation(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	ts := storage.MakeTS(1, 1)
	_ = wl.BeginCommit(ts)
	_ = wl.LogWrite(ts, 0, 1, []int{0}, []storage.Value{storage.Int(7)})
	_ = wl.LogWrite(ts, 9, 1, []int{0}, []storage.Value{storage.Int(8)}) // table 9 does not exist
	_ = wl.EndCommit(ts)
	_ = l.Close()

	for _, salvage := range []bool{false, true} {
		cat := newCatalog()
		_, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(buf.Bytes())}, RecoverOptions{Salvage: salvage}, 0)
		if err == nil || !strings.Contains(err.Error(), "table 9") {
			t.Fatalf("salvage=%v: err = %v, want schema mismatch", salvage, err)
		}
		if tab, _ := cat.Table("T"); tab.Len() != 0 {
			t.Fatalf("salvage=%v: catalog mutated despite schema mismatch", salvage)
		}
	}
}

func TestCloseAggregatesPerStreamErrors(t *testing.T) {
	errA, errB := errors.New("disk A gone"), errors.New("disk B gone")
	sinks := []*fault.Writer{
		fault.NewWriter(io.Discard),
		fault.NewWriter(io.Discard),
	}
	sinks[0].FailAt(0, fault.WriteError, errA)
	sinks[1].FailAt(0, fault.WriteError, errB)
	l := NewLogger(ValueLogging, 2, func(i int) io.Writer { return sinks[i] })
	for i := 0; i < 2; i++ {
		wl := l.Worker(i)
		ts := storage.MakeTS(1, uint32(1+i))
		_ = wl.BeginCommit(ts)
		_ = wl.LogWrite(ts, 0, storage.Key(i), []int{0}, []storage.Value{storage.Int(1)})
		_ = wl.EndCommit(ts) // buffered; nothing has hit the sinks yet
	}
	err := l.Close()
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("Close must aggregate both stream failures, got: %v", err)
	}
	if !strings.Contains(err.Error(), "stream 0") || !strings.Contains(err.Error(), "stream 1") {
		t.Fatalf("error does not name both streams: %v", err)
	}
}

func TestSealAndSyncAggregatesSinkErrors(t *testing.T) {
	errA, errB := errors.New("fsync A"), errors.New("fsync B")
	sinks := []*fault.Writer{
		fault.NewWriter(io.Discard),
		fault.NewWriter(io.Discard),
	}
	sinks[0].ScriptSync(errA)
	sinks[1].ScriptSync(errB)
	l := NewLogger(ValueLogging, 2, func(i int) io.Writer { return sinks[i] })
	for i := 0; i < 2; i++ {
		wl := l.Worker(i)
		ts := storage.MakeTS(1, uint32(1+i))
		_ = wl.BeginCommit(ts)
		_ = wl.LogWrite(ts, 0, storage.Key(i), []int{0}, []storage.Value{storage.Int(1)})
		_ = wl.EndCommit(ts)
	}
	err := l.SealAndSync(1)
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("SealAndSync must aggregate both sink failures, got: %v", err)
	}
	// The seals landed even though the syncs failed; a retry that
	// syncs cleanly completes the hardening.
	if err := l.SealAndSync(1); err != nil {
		t.Fatalf("retry after transient sync failure: %v", err)
	}
	if sinks[0].SyncCalls() != 2 || sinks[1].SyncCalls() != 2 {
		t.Fatalf("sync calls = %d/%d, want 2/2", sinks[0].SyncCalls(), sinks[1].SyncCalls())
	}
}

func TestSealAndSyncMakesEpochDurable(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	ts := storage.MakeTS(2, 1)
	_ = wl.BeginCommit(ts)
	_ = wl.LogWrite(ts, 0, 7, []int{0}, []storage.Value{storage.Int(42)})
	_ = wl.EndCommit(ts)
	if err := l.SealAndSync(2); err != nil {
		t.Fatal(err)
	}
	// What reached the sink so far must already salvage to epoch 2,
	// as if the process died right after the sync.
	cat := newCatalog()
	res, err := RecoverStreams(cat, []io.Reader{bytes.NewReader(buf.Bytes())}, RecoverOptions{Salvage: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableEpoch != 2 || res.AppliedGroups != 1 {
		t.Fatalf("durable=%d applied=%d, want 2/1", res.DurableEpoch, res.AppliedGroups)
	}
	if !keyVisible(t, cat, 7) {
		t.Fatal("synced group not recovered")
	}
}
