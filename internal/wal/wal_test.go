package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/faultinject"
)

// appendRows writes one record of (int, float, string) rows.
func appendRows(t testing.TB, l *Log, epoch uint64, batchID string, rows [][3]interface{}) {
	t.Helper()
	e := NewEncoder(epoch, batchID, len(rows))
	for _, r := range rows {
		e.Int64(r[0].(int64))
		e.Float64(r[1].(float64))
		e.String(r[2].(string))
	}
	if err := l.Append(e); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

type row struct {
	i int64
	f float64
	s string
}

func replayAll(t *testing.T, path string) ([]row, []string, ReplayResult) {
	t.Helper()
	var rows []row
	var ids []string
	res, err := Replay(path, func(r *Record) error {
		ids = append(ids, r.BatchID)
		for n := 0; n < r.NRows; n++ {
			rows = append(rows, row{r.Int64(), r.Float64(), r.String()})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return rows, ids, res
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "orders", SyncEvery())
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 3, "b-1", [][3]interface{}{
		{int64(1), 1.5, "alpha"},
		{int64(-2), -0.0, ""},
	})
	appendRows(t, l, 4, "", [][3]interface{}{
		{int64(9), 2.25, "βeta"},
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir, "orders")
	if err != nil || len(segs) != 1 {
		t.Fatalf("ListSegments = %v, %v; want 1 segment", segs, err)
	}
	rows, ids, res := replayAll(t, segs[0].Path)
	if res.Records != 2 || res.Rows != 3 || res.DroppedBytes != 0 {
		t.Fatalf("replay result %+v", res)
	}
	if ids[0] != "b-1" || ids[1] != "" {
		t.Fatalf("batch ids %v", ids)
	}
	want := []row{{1, 1.5, "alpha"}, {-2, -0.0, ""}, {9, 2.25, "βeta"}}
	for i, w := range want {
		if rows[i] != w {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

// TestTornTail cuts the file mid-record: replay must keep the intact
// prefix, truncate the tail, and count the drop.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t", NoSync())
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 1, "", [][3]interface{}{{int64(1), 1.0, "keep"}})
	appendRows(t, l, 1, "", [][3]interface{}{{int64(2), 2.0, "lost"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName("t", 1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	rows, _, res := replayAll(t, path)
	if len(rows) != 1 || rows[0].s != "keep" {
		t.Fatalf("rows after torn tail: %+v", rows)
	}
	if res.DroppedBytes == 0 || res.DroppedRecords != 1 {
		t.Fatalf("expected drop counted, got %+v", res)
	}
	// The file must now end at the intact boundary, and a second
	// replay must be clean.
	fi2, _ := os.Stat(path)
	if fi2.Size() != res.ValidSize {
		t.Fatalf("file size %d, want %d", fi2.Size(), res.ValidSize)
	}
	rows2, _, res2 := replayAll(t, path)
	if len(rows2) != 1 || res2.DroppedBytes != 0 {
		t.Fatalf("second replay not clean: %d rows, %+v", len(rows2), res2)
	}
}

// TestBitFlip corrupts a byte inside the last record's payload: the
// checksum must reject it, replay keeps earlier records.
func TestBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t", NoSync())
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 1, "", [][3]interface{}{{int64(1), 1.0, "keep"}})
	appendRows(t, l, 1, "", [][3]interface{}{{int64(2), 2.0, "flip"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName("t", 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rows, _, res := replayAll(t, path)
	if len(rows) != 1 || rows[0].s != "keep" {
		t.Fatalf("rows after bit flip: %+v", rows)
	}
	if res.DroppedBytes == 0 {
		t.Fatalf("expected dropped bytes, got %+v", res)
	}
}

// TestGarbageFile: a file that isn't a WAL at all gets emptied, not
// fatal-errored.
func TestGarbageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g-1.wal")
	if err := os.WriteFile(path, []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Replay(path, func(*Record) error { t.Fatal("fn called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedBytes == 0 || res.ValidSize != 0 {
		t.Fatalf("garbage replay %+v", res)
	}
}

func TestRotateAndDelete(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t", NoSync())
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 1, "", [][3]interface{}{{int64(1), 0.0, "a"}})
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 1 || l.Seq() != 2 {
		t.Fatalf("cut %d seq %d", cut, l.Seq())
	}
	appendRows(t, l, 2, "", [][3]interface{}{{int64(2), 0.0, "b"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := DeleteThrough(dir, "t", cut); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir, "t")
	if err != nil || len(segs) != 1 || segs[0].Seq != 2 {
		t.Fatalf("segments after delete: %v, %v", segs, err)
	}
	rows, _, _ := replayAll(t, segs[0].Path)
	if len(rows) != 1 || rows[0].i != 2 {
		t.Fatalf("rows in surviving segment: %+v", rows)
	}

	// Reopen resumes the highest-numbered segment.
	l2, err := Open(dir, "t", NoSync())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 2 {
		t.Fatalf("reopened seq %d", l2.Seq())
	}
	appendRows(t, l2, 3, "", [][3]interface{}{{int64(3), 0.0, "c"}})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rows, _, _ = replayAll(t, segs[0].Path)
	if len(rows) != 2 || rows[1].i != 3 {
		t.Fatalf("rows after reopen append: %+v", rows)
	}
}

// TestShortWriteInjection: an injected short write must leave the log
// usable — the torn half-record is truncated away and later appends
// replay cleanly.
func TestShortWriteInjection(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := Open(dir, "t", SyncEvery())
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 1, "", [][3]interface{}{{int64(1), 0.0, "good"}})
	faultinject.Arm(PointWrite, faultinject.Fault{Mode: faultinject.ModeError, Times: 1})
	e := NewEncoder(1, "", 1)
	e.Int64(2)
	e.Float64(0)
	e.String("torn")
	if err := l.Append(e); err == nil {
		t.Fatal("expected injected write error")
	}
	faultinject.Reset()
	appendRows(t, l, 1, "", [][3]interface{}{{int64(3), 0.0, "after"}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rows, _, res := replayAll(t, filepath.Join(dir, segName("t", 1)))
	if len(rows) != 2 || rows[0].s != "good" || rows[1].s != "after" {
		t.Fatalf("rows after short write: %+v", rows)
	}
	if res.DroppedBytes != 0 {
		t.Fatalf("torn record should have been truncated at append time: %+v", res)
	}
}

func TestSyncErrorInjection(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := Open(dir, "t", SyncEvery())
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(PointSync, faultinject.Fault{Mode: faultinject.ModeError, Times: 1})
	e := NewEncoder(1, "", 1)
	e.Int64(1)
	e.Float64(0)
	e.String("x")
	if err := l.Append(e); err == nil {
		t.Fatal("expected injected sync error")
	}
	// The record is written but unsynced; a later Sync succeeds.
	if err := l.Sync(); err != nil {
		t.Fatalf("recovering sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		mode SyncMode
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"interval:10ms", SyncInterval, true},
		{"group:1s", SyncInterval, true},
		{"none", SyncNone, true},
		{"bogus", 0, false},
		{"interval:nope", 0, false},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParsePolicy(%q) err=%v", c.in, err)
		}
		if c.ok && p.Mode != c.mode {
			t.Fatalf("ParsePolicy(%q) mode=%v", c.in, p.Mode)
		}
	}
}

func TestCounters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t", SyncEvery())
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, l, 1, "", [][3]interface{}{{int64(1), 0.0, "x"}})
	rec, bytes, syncs := l.Counters()
	if rec != 1 || bytes == 0 || syncs != 1 {
		t.Fatalf("counters %d %d %d", rec, bytes, syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzWALReplay feeds arbitrary bytes to the segment parser behind
// Replay, reading every record as (int, float, string) rows. It is
// seeded with a real segment and its torn prefixes. The parser never
// panics, never allocates more than a small multiple of its input,
// accounts for every byte as intact or dropped, and replaying the
// intact prefix it reports (what Replay truncates to) drops nothing.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, "orders", NoSync())
	if err != nil {
		f.Fatal(err)
	}
	appendRows(f, l, 3, "b-1", [][3]interface{}{{int64(1), 1.5, "alpha"}, {int64(-2), -0.0, ""}})
	appendRows(f, l, 4, "", [][3]interface{}{{int64(9), 2.25, "βeta"}})
	appendRows(f, l, 5, "b-2", nil)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := ListSegments(dir, "orders")
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments %v: %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0].Path)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(seg), len(seg) - 3, len(seg) / 2, 11, 0} {
		f.Add(seg[:n])
	}
	read := func(r *Record) error {
		for n := 0; n < r.NRows && r.Err() == nil; n++ {
			r.Int64()
			r.Float64()
			_ = r.String()
		}
		return nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := parse(data, read)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if limit := uint64(1<<20 + 16*len(data)); after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("parsing %d bytes allocated %d", len(data), after.TotalAlloc-before.TotalAlloc)
		}
		if res.ValidSize+res.DroppedBytes != int64(len(data)) {
			t.Fatalf("%d bytes: valid %d, dropped %d bytes in %d records", len(data), res.ValidSize, res.DroppedBytes, res.DroppedRecords)
		}
		if res.ValidSize == 0 {
			return
		}
		again, err := parse(data[:res.ValidSize], read)
		if err != nil || again.DroppedRecords != 0 || again.Records != res.Records || again.Rows != res.Rows {
			t.Fatalf("intact prefix replays as %+v (%v), first pass %+v", again, err, res)
		}
	})
}
