package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// TestDurableTailSemijoin: on a durable engine whose bases are cached,
// an acked lineitem batch is a tail past lineitem's base. q3 then derives
// from base plus tail over its semijoin-reduced selections, and answers
// bit-identically to a fresh in-memory engine holding the same rows,
// which builds every trie directly.
func TestDurableTailSemijoin(t *testing.T) {
	dur := New(WithDurability(t.TempDir(), wal.SyncEvery()))
	mem := New()
	for _, e := range []*Engine{dur, mem} {
		if _, err := tpch.Populate(e.Catalog(), 0.002, 5); err != nil {
			t.Fatal(err)
		}
		if err := e.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	if err := dur.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	q3 := tpch.Queries["q3"]
	for i := 0; i < 3; i++ { // the second run caches the bases
		if _, err := dur.Query(q3); err != nil {
			t.Fatal(err)
		}
	}
	// Copies of lineitem rows, so the tail joins and filters like the base.
	li := dur.Catalog().Snapshot().Resolve(dur.Catalog().Table("lineitem"))
	var batch [][]interface{}
	for r := 0; r < li.NumRows; r += li.NumRows / 20 {
		var row []interface{}
		for _, col := range li.Cols {
			switch col.Def.Kind {
			case storage.Int64, storage.Date:
				row = append(row, col.Ints[r])
			case storage.Float64:
				row = append(row, col.Floats[r])
			case storage.String:
				row = append(row, col.Str(r))
			}
		}
		batch = append(batch, row)
	}
	if _, _, err := dur.IngestBatch(context.Background(), "lineitem", "tail-1", batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.IngestBatch(context.Background(), "lineitem", "", batch); err != nil {
		t.Fatal(err)
	}
	got, err := dur.Query(q3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Query(q3)
	if err != nil {
		t.Fatal(err)
	}
	if err := bitEqual(got, want); err != nil {
		t.Fatal(err)
	}
	st := got.Stats
	reduced := false
	for _, sj := range st.Semijoins {
		reduced = reduced || sj.Rel == "lineitem" && sj.Reduced < sj.Selected
	}
	if st.TriesDerived == 0 || !reduced {
		t.Fatalf("derived %d, semijoins %+v: want a reduced lineitem derived with its tail", st.TriesDerived, st.Semijoins)
	}
}

// bitEqual reports the first cell where two results differ, floats
// compared by bit pattern.
func bitEqual(a, b *exec.Result) error {
	if a.NumRows != b.NumRows || len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.NumRows, len(a.Cols), b.NumRows, len(b.Cols))
	}
	for ci, ca := range a.Cols {
		cb := b.Cols[ci]
		same := ca.Name == cb.Name && slices.Equal(ca.I64, cb.I64) && slices.Equal(ca.Str, cb.Str) &&
			slices.EqualFunc(ca.F64, cb.F64, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		if !same {
			return fmt.Errorf("column %d (%s) differs", ci, ca.Name)
		}
	}
	return nil
}
