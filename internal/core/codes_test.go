package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// stringsSchema has a string key in its own domain and a string
// annotation beside an int key.
var stringsSchema = storage.Schema{Name: "labels", Cols: []storage.ColumnDef{
	{Name: "id", Kind: storage.Int64, Role: storage.Key, PK: true},
	{Name: "grp", Kind: storage.String, Role: storage.Key, Domain: "grp"},
	{Name: "tag", Kind: storage.String, Role: storage.Annotation},
}}

// labelRow is row i of the labels table; rows from 30 on bring key and
// annotation values the first 30 do not hold.
func labelRow(i int) []interface{} {
	grp, tag := fmt.Sprintf("g%d", i%5), fmt.Sprintf("t%d", i%7)
	if i >= 30 {
		grp, tag = fmt.Sprintf("new-g%d", i%3), fmt.Sprintf("new-t%d", i%4)
	}
	return []interface{}{int64(i), grp, tag}
}

// checkStringCodes asserts the stored form of the labels table as the
// engine's current snapshot resolves it: every String column holds no
// staged values and one code per row, and reads back rows [0, n).
func checkStringCodes(t *testing.T, state string, e *Engine, n int) {
	t.Helper()
	tab := e.Catalog().Snapshot().Resolve(e.Catalog().Table("labels"))
	if tab.NumRows != n {
		t.Fatalf("%s: %d rows, want %d", state, tab.NumRows, n)
	}
	for ci, col := range tab.Cols {
		if col.Def.Kind != storage.String {
			continue
		}
		codes := col.KeyCodes()
		if col.Strs != nil || len(codes) != n {
			t.Fatalf("%s: %s keeps %d values beside %d codes for %d rows", state, col.Def.Name, len(col.Strs), len(codes), n)
		}
		for i := 0; i < n; i++ {
			if got, want := col.Str(i), labelRow(i)[ci].(string); got != want {
				t.Fatalf("%s: %s row %d = %q, want %q", state, col.Def.Name, i, got, want)
			}
		}
	}
}

func appendLabels(t *testing.T, e *Engine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := e.IngestRows(context.Background(), "labels", [][]interface{}{labelRow(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStringColumnsCodesOnly: a frozen String column's codes are its
// only stored form in every state a table reaches: after Freeze, in an
// appended generation, after Compact, restored from a snapshot and
// rebuilt from the WAL alone.
func TestStringColumnsCodesOnly(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, wal.NoSync())
	if _, err := e.CreateTable(stringsSchema); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, e, 0, 30)
	if err := e.Freeze(); err != nil {
		t.Fatal(err)
	}
	checkStringCodes(t, "freeze", e, 30)
	appendLabels(t, e, 30, 40)
	checkStringCodes(t, "appended generation", e, 40)
	if err := e.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkStringCodes(t, "compact", e, 40)
	appendLabels(t, e, 40, 45)
	e.Drain(context.Background())

	restored := durableEngine(t, dir, wal.NoSync())
	if !restored.Recovered() || restored.RecoveryError() != nil {
		t.Fatalf("snapshot recovery: %v", restored.RecoveryError())
	}
	checkStringCodes(t, "snapshot restore", restored, 45)
	restored.Drain(context.Background())

	walDir := t.TempDir()
	w := durableEngine(t, walDir, wal.NoSync())
	if _, err := w.CreateTable(stringsSchema); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, w, 0, 30)
	if err := w.Freeze(); err != nil {
		t.Fatal(err)
	}
	appendLabels(t, w, 30, 40)
	w.Drain(context.Background())
	replayed := durableEngine(t, walDir, wal.NoSync())
	if !replayed.Recovered() || replayed.RecoveryError() != nil {
		t.Fatalf("wal recovery: %v", replayed.RecoveryError())
	}
	if err := replayed.Freeze(); err != nil {
		t.Fatal(err)
	}
	checkStringCodes(t, "wal-only recovery", replayed, 40)
	replayed.Drain(context.Background())
}
