package wal

import (
	"bytes"
	"io"
	"testing"

	"thedb/internal/storage"
)

func newCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	cat.MustCreateTable(storage.Schema{
		Name: "T",
		Columns: []storage.ColumnDef{
			{Name: "a", Kind: storage.KindInt},
			{Name: "b", Kind: storage.KindString},
		},
	})
	return cat
}

// recoverStrict replays streams in strict mode and returns the
// command-log entries (nil on error).
func recoverStrict(cat *storage.Catalog, streams []io.Reader) ([]Command, error) {
	res, err := RecoverStreams(cat, streams, RecoverOptions{}, 0)
	if err != nil {
		return nil, err
	}
	return res.Commands, nil
}

func TestValueLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)

	ts := storage.MakeTS(1, 5)
	if err := wl.BeginCommit(ts); err != nil {
		t.Fatal(err)
	}
	if err := wl.LogInsert(ts, 0, 7, storage.Tuple{storage.Int(10), storage.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := wl.LogWrite(ts, 0, 7, []int{0}, []storage.Value{storage.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if err := wl.EndCommit(ts); err != nil {
		t.Fatal(err)
	}
	ts2 := storage.MakeTS(1, 9)
	if err := wl.BeginCommit(ts2); err != nil {
		t.Fatal(err)
	}
	if err := wl.LogDelete(ts2, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := wl.EndCommit(ts2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cat := newCatalog()
	tab, _ := cat.Table("T")
	tab.Put(3, storage.Tuple{storage.Int(1), storage.Str("gone")}, 0)
	cmds, err := recoverStrict(cat, []io.Reader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 0 {
		t.Fatalf("value log produced %d commands", len(cmds))
	}
	rec, ok := tab.Peek(7)
	if !ok || !rec.Visible() {
		t.Fatal("inserted record missing after recovery")
	}
	if got := rec.Tuple()[0].Int(); got != 11 {
		t.Fatalf("a = %d, want 11 (write after insert)", got)
	}
	if got := rec.Tuple()[1].Str(); got != "x" {
		t.Fatalf("b = %q", got)
	}
	if drec, _ := tab.Peek(3); drec.Visible() {
		t.Fatal("deleted record still visible")
	}
}

func TestThomasWriteRule(t *testing.T) {
	mkStream := func(ts uint64, val int64) []byte {
		var buf bytes.Buffer
		l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
		wl := l.Worker(0)
		_ = wl.BeginCommit(ts)
		_ = wl.LogWrite(ts, 0, 1, []int{0}, []storage.Value{storage.Int(val)})
		_ = wl.EndCommit(ts)
		_ = l.Close()
		return buf.Bytes()
	}
	newer := mkStream(storage.MakeTS(2, 1), 222)
	older := mkStream(storage.MakeTS(1, 1), 111)

	// Replay newer first, then older: the older write must be
	// discarded, so stream replay order does not matter.
	cat := newCatalog()
	tab, _ := cat.Table("T")
	tab.Put(1, storage.Tuple{storage.Int(0), storage.Str("")}, 0)
	if _, err := recoverStrict(cat, []io.Reader{bytes.NewReader(newer), bytes.NewReader(older)}); err != nil {
		t.Fatal(err)
	}
	rec, _ := tab.Peek(1)
	if got := rec.Tuple()[0].Int(); got != 222 {
		t.Fatalf("value = %d, want 222 (Thomas write rule)", got)
	}
	if rec.Timestamp() != storage.MakeTS(2, 1) {
		t.Fatal("timestamp not advanced to the newest writer")
	}
}

func TestRecoveryOrderIndependence(t *testing.T) {
	mk := func(order []uint64) storage.Tuple {
		streams := make([][]byte, len(order))
		for i, ts := range order {
			var buf bytes.Buffer
			l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
			wl := l.Worker(0)
			_ = wl.BeginCommit(ts)
			_ = wl.LogWrite(ts, 0, 1, []int{0}, []storage.Value{storage.Int(int64(ts))})
			_ = wl.EndCommit(ts)
			_ = l.Close()
			streams[i] = buf.Bytes()
		}
		cat := newCatalog()
		tab, _ := cat.Table("T")
		tab.Put(1, storage.Tuple{storage.Int(0), storage.Str("")}, 0)
		var readers []io.Reader
		for _, s := range streams {
			readers = append(readers, bytes.NewReader(s))
		}
		if _, err := recoverStrict(cat, readers); err != nil {
			t.Fatal(err)
		}
		rec, _ := tab.Peek(1)
		return rec.Tuple()
	}
	a := mk([]uint64{5, 9, 3})
	b := mk([]uint64{3, 5, 9})
	c := mk([]uint64{9, 3, 5})
	if !a.Equal(b) || !b.Equal(c) {
		t.Fatalf("recovery depends on stream order: %v %v %v", a, b, c)
	}
	if a[0].Int() != 9 {
		t.Fatalf("final value = %d, want 9", a[0].Int())
	}
}

func TestCommandLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(CommandLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)
	ts := storage.MakeTS(1, 1)
	_ = wl.BeginCommit(ts)
	if err := wl.LogCommand(ts, "Transfer", []storage.Value{storage.Int(1), storage.Str("x"), storage.Float(2.5)}); err != nil {
		t.Fatal(err)
	}
	_ = wl.EndCommit(ts)
	_ = l.Close()

	cmds, err := recoverStrict(newCatalog(), []io.Reader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 {
		t.Fatalf("commands = %d", len(cmds))
	}
	c := cmds[0]
	if c.TS != ts || c.Proc != "Transfer" || len(c.Args) != 3 {
		t.Fatalf("command = %+v", c)
	}
	if c.Args[0].Int() != 1 || c.Args[1].Str() != "x" || c.Args[2].Float() != 2.5 {
		t.Fatalf("args = %v", c.Args)
	}
}

func TestEpochGroupCommitFlushes(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(ValueLogging, 1, func(int) io.Writer { return &buf })
	wl := l.Worker(0)

	// Entries within one epoch stay buffered (nothing reaches the
	// sink before the group boundary or an explicit flush).
	ts1 := storage.MakeTS(1, 1)
	_ = wl.BeginCommit(ts1)
	_ = wl.LogWrite(ts1, 0, 1, []int{0}, []storage.Value{storage.Int(1)})
	_ = wl.EndCommit(ts1)
	if buf.Len() != 0 {
		t.Fatal("entries reached the sink before the epoch closed")
	}
	// Crossing into epoch 2 flushes the epoch-1 group.
	ts2 := storage.MakeTS(2, 1)
	_ = wl.BeginCommit(ts2)
	if buf.Len() == 0 {
		t.Fatal("epoch boundary did not flush the previous group")
	}
	_ = l.Close()
}
