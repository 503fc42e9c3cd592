package exec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costopt"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// smvCatalog builds a sparse matrix + full dense vector over a shared
// domain, returning the ground-truth y = A·x.
func smvCatalog(t *testing.T, n, nnz int, seed int64) (*storage.Catalog, []float64) {
	t.Helper()
	cat := storage.NewCatalog()
	m, _ := cat.Create(storage.Schema{Name: "m", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	vec, _ := cat.Create(storage.Schema{Name: "vec", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	r := rand.New(rand.NewSource(seed))
	dense := make([]float64, n*n)
	// Diagonal guarantees the full domain.
	for d := 0; d < n; d++ {
		dense[d*n+d] = r.NormFloat64()
		_ = m.Append(int64(d), int64(d), dense[d*n+d])
	}
	for k := 0; k < nnz; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if dense[i*n+j] != 0 {
			continue
		}
		dense[i*n+j] = r.NormFloat64()
		_ = m.Append(int64(i), int64(j), dense[i*n+j])
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[k] = r.NormFloat64()
		_ = vec.Append(int64(k), x[k])
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i] += dense[i*n+j] * x[j]
		}
	}
	return cat, want
}

const smvSQL = `SELECT m.i, sum(m.v * vec.x) as y FROM m, vec WHERE m.j = vec.k GROUP BY m.i`

func checkSMV(t *testing.T, res *Result, want []float64, label string) {
	t.Helper()
	got := make([]float64, len(want))
	for r := 0; r < res.NumRows; r++ {
		got[res.Col("i").I64[r]] = res.Col("y").F64[r]
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// smvVertices discovers the planner's vertex naming for the SMV query:
// the group item holds the output vertex, the other bag vertex is the
// shared one.
func smvVertices(t *testing.T, cat *storage.Catalog) (iV, jV string) {
	t.Helper()
	q, err := sqlparse.Parse(smvSQL)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	iV = p.Groups[0].Vertex
	for _, v := range p.GHD.Root.Bag {
		if v != iV {
			jV = v
		}
	}
	return iV, jV
}

func TestSpMVFastPathScatterMatchesGeneric(t *testing.T) {
	cat, want := smvCatalog(t, 40, 250, 1)
	// Default optimizer picks the relaxed [j, i] order → scatter kernel.
	fast := run(t, cat, smvSQL, Options{}, costopt.Options{})
	checkSMV(t, fast, want, "scatter fastpath")
	generic := run(t, cat, smvSQL, Options{NoFastPath: true}, costopt.Options{})
	checkSMV(t, generic, want, "generic engine")
	if fast.NumRows != generic.NumRows {
		t.Fatalf("row counts differ: %d vs %d", fast.NumRows, generic.NumRows)
	}
}

func TestSpMVFastPathGatherMatchesGeneric(t *testing.T) {
	cat, want := smvCatalog(t, 35, 200, 2)
	iV, jV := smvVertices(t, cat)
	// Forcing the non-relaxed [i, j] order exercises the gather kernel
	// (exec applies the fast path whenever the shape matches; only the
	// engine facade disables it for forced orders).
	res := run(t, cat, smvSQL, Options{}, costopt.Options{Forced: []string{iV, jV}})
	checkSMV(t, res, want, "gather fastpath")
	generic := run(t, cat, smvSQL, Options{NoFastPath: true}, costopt.Options{Forced: []string{iV, jV}})
	checkSMV(t, generic, want, "generic forced [i,j]")
}

func TestSpMVFastPathFallsBackOnPartialVector(t *testing.T) {
	// A vector covering only part of the domain must not take the fast
	// path (and the answer must still be right).
	cat := storage.NewCatalog()
	m, _ := cat.Create(storage.Schema{Name: "m", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	vec, _ := cat.Create(storage.Schema{Name: "vec", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	_ = m.Append(int64(0), int64(0), 2.0)
	_ = m.Append(int64(0), int64(3), 5.0)
	_ = m.Append(int64(2), int64(3), 7.0)
	// Vector misses k=0 and k=2: only j=3 contributes.
	_ = vec.Append(int64(3), 10.0)
	_ = vec.Append(int64(1), 1.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	res := run(t, cat, smvSQL, Options{}, costopt.Options{})
	got := map[int64]float64{}
	for r := 0; r < res.NumRows; r++ {
		got[res.Col("i").I64[r]] = res.Col("y").F64[r]
	}
	if got[0] != 50 || got[2] != 70 || len(got) != 2 {
		t.Fatalf("partial vector smv = %v", got)
	}
}

func TestDenseDispatchFallsBackOnRaggedMatrix(t *testing.T) {
	// One short row breaks rectangular density: the BLAS dispatch must
	// decline and the WCOJ answer must match the dense result elsewhere.
	cat := storage.NewCatalog()
	m, _ := cat.Create(storage.Schema{Name: "m", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	n := 6
	r := rand.New(rand.NewSource(3))
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == n-1 && j == n-1 {
				continue // the missing corner
			}
			dense[i*n+j] = r.Float64() + 0.1
			_ = m.Append(int64(i), int64(j), dense[i*n+j])
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT m1.i, m2.j, sum(m1.v * m2.v) as v FROM m m1, m m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`
	res := run(t, cat, sql, Options{}, costopt.Options{})
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				want[i*n+j] += dense[i*n+k] * dense[k*n+j]
			}
		}
	}
	for r2 := 0; r2 < res.NumRows; r2++ {
		i, j := res.Col("i").I64[r2], res.Col("j").I64[r2]
		if math.Abs(res.Col("v").F64[r2]-want[i*int64(n)+j]) > 1e-9 {
			t.Fatalf("ragged C[%d,%d] = %v, want %v", i, j, res.Col("v").F64[r2], want[i*int64(n)+j])
		}
	}
}
