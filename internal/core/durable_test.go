package core

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/storage"
	"repro/internal/wal"
)

func durableEngine(t *testing.T, dir string, policy wal.Policy) *Engine {
	t.Helper()
	return New(WithDurability(dir, policy))
}

func mkEvents(t *testing.T, e *Engine) *storage.Table {
	t.Helper()
	tab, err := e.CreateTable(storage.Schema{Name: "events", Cols: []storage.ColumnDef{
		{Name: "id", Kind: storage.Int64, Role: storage.Key, PK: true},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "tag", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func sumV(t *testing.T, e *Engine) (int, float64) {
	t.Helper()
	res, err := e.Query("SELECT count(*) AS c, sum(v) AS s FROM events")
	if err != nil {
		t.Fatal(err)
	}
	return int(res.Cols[0].Float(0)), res.Cols[1].Float(0)
}

// TestDurableRecovery drives the full acked-write-survives contract
// in-process: appends pre- and post-freeze, a compaction snapshot in
// the middle, then a "crash" (drop the engine, reopen the dir) and a
// bit-exact comparison of query results.
func TestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	e1 := durableEngine(t, dir, wal.SyncEvery())
	tab := mkEvents(t, e1)
	for i := 0; i < 40; i++ {
		if err := tab.Append(int64(i), float64(i%97), "pre"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Freeze(); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 70; i++ {
		if _, err := e1.IngestRows(context.Background(), "events",
			[][]interface{}{{int64(i), float64(i % 97), "post"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 70; i < 90; i++ {
		if err := tab.Append(int64(i), float64(i%97), "tail"); err != nil {
			t.Fatal(err)
		}
	}
	c1, s1 := sumV(t, e1)
	if c1 != 90 {
		t.Fatalf("pre-crash count %d", c1)
	}

	// "Crash": no Drain, no close. SyncEvery means everything acked is
	// on disk already.
	e2 := durableEngine(t, dir, wal.SyncEvery())
	if err := e2.RecoveryError(); err != nil {
		t.Fatalf("recovery error: %v", err)
	}
	if !e2.Recovered() {
		t.Fatal("Recovered() = false after non-empty recovery")
	}
	c2, s2 := sumV(t, e2)
	if c2 != c1 || math.Float64bits(s2) != math.Float64bits(s1) {
		t.Fatalf("recovered (%d, %v), want (%d, %v)", c2, s2, c1, s1)
	}

	// Appends keep working after recovery and survive another cycle.
	if err := e2.Catalog().Table("events").Append(int64(90), 4.0, "again"); err != nil {
		t.Fatal(err)
	}
	e2.Drain(context.Background())
	e3 := durableEngine(t, dir, wal.SyncEvery())
	c3, _ := sumV(t, e3)
	if c3 != 91 {
		t.Fatalf("second recovery count %d, want 91", c3)
	}
}

// TestDurableGroupCommitCrash: under the group-commit default, a
// process crash (as opposed to power loss) must still lose nothing —
// records are written per append, only the fsync is deferred.
func TestDurableGroupCommitCrash(t *testing.T) {
	dir := t.TempDir()
	e1 := durableEngine(t, dir, wal.GroupCommit(0))
	tab := mkEvents(t, e1)
	for i := 0; i < 25; i++ {
		if err := tab.Append(int64(i), 1.0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	// No drain, no sync interval elapsed: simulated SIGKILL.
	e2 := durableEngine(t, dir, wal.GroupCommit(0))
	c, _ := sumV(t, e2)
	if c != 25 {
		t.Fatalf("recovered %d rows, want 25", c)
	}
	e2.BeginShutdown()
	e2.Drain(context.Background())
}

// TestDurableCorruptTail: a bit-flipped WAL tail truncates, counts,
// and never prevents startup.
func TestDurableCorruptTail(t *testing.T) {
	dir := t.TempDir()
	e1 := durableEngine(t, dir, wal.SyncEvery())
	tab := mkEvents(t, e1)
	for i := 0; i < 10; i++ {
		if err := tab.Append(int64(i), 1.0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := wal.ListSegments(dir, "events")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := segs[len(segs)-1].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := durableEngine(t, dir, wal.SyncEvery())
	if err := e2.RecoveryError(); err != nil {
		t.Fatalf("corruption must not fail startup: %v", err)
	}
	c, _ := sumV(t, e2)
	if c != 9 {
		t.Fatalf("recovered %d rows, want 9 (last record corrupt)", c)
	}
	if got := e2.durCounters()["wal_records_dropped"]; got == 0 {
		t.Fatal("wal_records_dropped not incremented")
	}
	// The engine accepts writes again and the truncated tail never
	// resurfaces.
	if err := e2.Catalog().Table("events").Append(int64(50), 1.0, "y"); err != nil {
		t.Fatal(err)
	}
	e3 := durableEngine(t, dir, wal.SyncEvery())
	if c, _ := sumV(t, e3); c != 10 {
		t.Fatalf("third generation count %d, want 10", c)
	}
}

// TestIngestBatchDedup: batch ids dedupe live, across recovery (ids
// replayed from the WAL), and across snapshots (ids in the manifest).
func TestIngestBatchDedup(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e1 := durableEngine(t, dir, wal.SyncEvery())
	mkEvents(t, e1)
	row := [][]interface{}{{int64(1), 2.0, "a"}}
	if n, dup, err := e1.IngestBatch(ctx, "events", "batch-1", row); n != 1 || dup || err != nil {
		t.Fatalf("first: %d %v %v", n, dup, err)
	}
	if n, dup, err := e1.IngestBatch(ctx, "events", "batch-1", row); n != 0 || !dup || err != nil {
		t.Fatalf("retry not deduped: %d %v %v", n, dup, err)
	}

	// Recovery from WAL alone.
	e2 := durableEngine(t, dir, wal.SyncEvery())
	if n, dup, err := e2.IngestBatch(ctx, "events", "batch-1", row); n != 0 || !dup || err != nil {
		t.Fatalf("post-recovery retry not deduped: %d %v %v", n, dup, err)
	}
	if c, _ := sumV(t, e2); c != 1 {
		t.Fatalf("count %d, want 1", c)
	}
	// Snapshot carries the set past WAL truncation.
	if err := e2.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	e3 := durableEngine(t, dir, wal.SyncEvery())
	if n, dup, err := e3.IngestBatch(ctx, "events", "batch-1", row); n != 0 || !dup || err != nil {
		t.Fatalf("post-snapshot retry not deduped: %d %v %v", n, dup, err)
	}
}

// TestDurableCatalogCreate: tables created directly on the catalog
// (the dataset-generator path, bypassing Engine.CreateTable) must
// still get a WAL attached and their rows recovered.
func TestDurableCatalogCreate(t *testing.T) {
	dir := t.TempDir()
	e1 := durableEngine(t, dir, wal.SyncEvery())
	tab, err := e1.Catalog().Create(storage.Schema{Name: "gen", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, PK: true},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.WAL() == nil {
		t.Fatal("catalog-created table has no WAL attached")
	}
	for i := 0; i < 5; i++ {
		if err := tab.Append(int64(i), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	e2 := durableEngine(t, dir, wal.SyncEvery())
	res, err := e2.Query("SELECT count(*) AS c FROM gen")
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.Cols[0].Float(0)); got != 5 {
		t.Fatalf("recovered %d rows, want 5", got)
	}
}

// TestDurableFreshDirIsEmpty: durability on an empty dir changes
// nothing about engine behavior.
func TestDurableFreshDirIsEmpty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	e := durableEngine(t, dir, wal.NoSync())
	if e.Recovered() {
		t.Fatal("Recovered() on fresh dir")
	}
	if err := e.RecoveryError(); err != nil {
		t.Fatal(err)
	}
	mkEvents(t, e)
	if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err != nil {
		t.Fatalf("catalog.json not written: %v", err)
	}
}

// TestRejectedSnapshotReported: when the newest snapshot passes its
// checksums but will not rebuild, recovery reports it by name. The WAL
// segments that snapshot covered are gone, so its rows cannot come
// back; a silent WAL-only start would lose them without a trace.
func TestRejectedSnapshotReported(t *testing.T) {
	dir := t.TempDir()
	e1 := durableEngine(t, dir, wal.SyncEvery())
	mkEvents(t, e1)
	if err := e1.Freeze(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			id := int64(round*20 + i)
			if _, err := e1.IngestRows(context.Background(), "events",
				[][]interface{}{{id, float64(id), "t" + strconv.Itoa(i%3)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e1.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if c, _ := sumV(t, e1); c != 40 {
		t.Fatalf("acked %d rows, want 40", c)
	}

	// Set the newest snapshot's tag codes past their dictionary and
	// recompute the section's CRC, so every checksum still passes.
	loaded, _, err := snapshot.Load(dir)
	if err != nil || loaded == nil {
		t.Fatalf("Load: %v", err)
	}
	data, err := os.ReadFile(loaded.Path)
	if err != nil {
		t.Fatal(err)
	}
	m := loaded.Manifest
	want := 1 + len(m.Domains) + len(m.AnnDicts) + 2 // events.tag: third column
	off := len("LHSNAP01")
	for i := 0; i < want; i++ {
		off += 12 + int(binary.LittleEndian.Uint64(data[off:]))
	}
	n := int(binary.LittleEndian.Uint64(data[off:]))
	payload := data[off+12 : off+12+n]
	if payload[0] != 3 || n != 9+4*m.Tables[0].Rows {
		t.Fatalf("section %d is not events.tag's codes (tag %d, %d bytes)", want, payload[0], n)
	}
	for i := 9; i < n; i += 4 {
		binary.LittleEndian.PutUint32(payload[i:], 1000)
	}
	binary.LittleEndian.PutUint32(data[off+8:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(loaded.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, invalid, err := snapshot.Load(dir); err != nil || invalid != 0 || l.Path != loaded.Path {
		t.Fatalf("tampered snapshot did not pass its checksums: %v invalid=%d", err, invalid)
	} else if _, err := snapshot.BuildCatalog(l); err == nil {
		t.Fatal("codes past the dictionary rebuilt")
	}

	e2 := durableEngine(t, dir, wal.SyncEvery())
	err = e2.RecoveryError()
	if err == nil || !strings.Contains(err.Error(), filepath.Base(loaded.Path)) {
		t.Fatalf("RecoveryError() = %v, want an error naming %s", err, filepath.Base(loaded.Path))
	}

	// Rows acked after the degraded start survive the next restart: the
	// next snapshot supersedes the rejected one.
	for i := 0; i < 10; i++ {
		if _, err := e2.IngestRows(context.Background(), "events",
			[][]interface{}{{int64(100 + i), 1.0, "late"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	e2.Drain(context.Background())
	e3 := durableEngine(t, dir, wal.SyncEvery())
	defer e3.Drain(context.Background())
	if err := e3.RecoveryError(); err != nil {
		t.Fatalf("restart after the degraded start: %v", err)
	}
	if c, s := sumV(t, e3); c != 10 || s != 10 {
		t.Fatalf("after restart: %d rows summing to %v, want the 10 acked after the degraded start", c, s)
	}
}
