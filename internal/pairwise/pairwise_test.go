package pairwise

import (
	"math"
	"testing"

	"repro/internal/storage"
)

func TestUnknownQuery(t *testing.T) {
	e := New(storage.NewCatalog())
	if _, err := e.RunTPCH("nope"); err == nil {
		t.Error("unknown query should error")
	}
}

func laTables(t *testing.T) *Engine {
	t.Helper()
	cat := storage.NewCatalog()
	m, err := cat.Create(storage.Schema{Name: "matrix", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := cat.Create(storage.Schema{Name: "vec", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// [[1 2] [0 3]] and x = [10, 100]
	_ = m.Append(int64(0), int64(0), 1.0)
	_ = m.Append(int64(0), int64(1), 2.0)
	_ = m.Append(int64(1), int64(1), 3.0)
	_ = vec.Append(int64(0), 10.0)
	_ = vec.Append(int64(1), 100.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return New(cat)
}

func TestSpMVKnownAnswer(t *testing.T) {
	e := laTables(t)
	y, err := e.SpMV("matrix", "vec")
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 210 || y[1] != 300 {
		t.Fatalf("y = %v", y)
	}
}

func TestSpMMKnownAnswer(t *testing.T) {
	e := laTables(t)
	// A² = [[1 8] [0 9]]
	nnz, sum, err := e.SpMM("matrix", "matrix", 0)
	if err != nil {
		t.Fatal(err)
	}
	if nnz != 3 {
		t.Fatalf("nnz = %d", nnz)
	}
	// checksum = Σ v·(i + 2j + 1): 1·1 + 8·3 + 9·4 = 61.
	if math.Abs(sum-61) > 1e-12 {
		t.Fatalf("checksum = %v", sum)
	}
}

func TestSpMMBudget(t *testing.T) {
	e := laTables(t)
	if _, _, err := e.SpMM("matrix", "matrix", 1); err == nil {
		t.Error("tiny budget should abort")
	}
}

func TestRowsHelpers(t *testing.T) {
	r := &Rows{Data: map[string][]float64{"b": {1}, "a": {2}}}
	if r.NumRows() != 2 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	keys := r.SortedKeys()
	if keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("SortedKeys = %v", keys)
	}
}
