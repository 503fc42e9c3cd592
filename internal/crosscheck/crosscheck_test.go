// Package crosscheck_test validates that all engines in this repository
// — LevelHeaded (WCOJ), pairwise (HyPer-sim) and colstore (MonetDB-sim)
// — produce identical answers on the paper's benchmark queries, and
// that the LA queries agree with the BLAS kernels. This is the
// repository's strongest end-to-end correctness gate.
package crosscheck_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/blas"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pairwise"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// groupCols lists, per query, the group columns in cross-engine key
// order (matching the baseline engines' key construction).
var groupCols = map[string][]string{
	"q1":  {"l_returnflag", "l_linestatus"},
	"q3":  {"l_orderkey", "o_orderdate", "o_shippriority"},
	"q5":  {"n_name"},
	"q6":  {},
	"q8":  {"o_year"},
	"q9":  {"n_name", "o_year"},
	"q10": {"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
}

func fm(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// toRows converts a LevelHeaded result to the comparable key → values
// form used by the baseline engines.
func toRows(t *testing.T, res *exec.Result, groups []string) map[string][]float64 {
	t.Helper()
	var keyCols []*exec.Column
	for _, g := range groups {
		c := res.Col(g)
		if c == nil {
			t.Fatalf("missing group column %s (have %v)", g, colNames(res))
		}
		keyCols = append(keyCols, c)
	}
	groupSet := map[string]bool{}
	for _, g := range groups {
		groupSet[g] = true
	}
	var valCols []*exec.Column
	for _, c := range res.Cols {
		if !groupSet[c.Name] {
			valCols = append(valCols, c)
		}
	}
	out := map[string][]float64{}
	for i := 0; i < res.NumRows; i++ {
		key := ""
		for gi, c := range keyCols {
			if gi > 0 {
				key += "|"
			}
			switch c.Kind {
			case exec.KindString:
				key += c.Str[i]
			case exec.KindInt:
				key += strconv.FormatInt(c.I64[i], 10)
			default:
				key += fm(c.F64[i])
			}
		}
		var vals []float64
		for _, c := range valCols {
			vals = append(vals, c.Float(i))
		}
		out[key] = vals
	}
	return out
}

func colNames(res *exec.Result) []string {
	var out []string
	for _, c := range res.Cols {
		out = append(out, c.Name)
	}
	return out
}

func compareRows(t *testing.T, label string, got, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Errorf("%s: missing group %q", label, k)
			continue
		}
		if len(gv) != len(wv) {
			t.Errorf("%s: group %q has %d values, want %d", label, k, len(gv), len(wv))
			continue
		}
		for i := range wv {
			if math.Abs(gv[i]-wv[i]) > 1e-6*math.Max(1, math.Abs(wv[i])) {
				t.Errorf("%s: group %q value %d = %v, want %v", label, k, i, gv[i], wv[i])
			}
		}
	}
}

func TestTPCHAllEnginesAgree(t *testing.T) {
	eng := core.New()
	if _, err := tpch.Populate(eng.Catalog(), 0.003, 11); err != nil {
		t.Fatal(err)
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	pw := pairwise.New(eng.Catalog())
	cs := colstore.New(eng.Catalog())

	for _, name := range tpch.QueryNames {
		name := name
		t.Run(name, func(t *testing.T) {
			pwRows, err := pw.RunTPCH(name)
			if err != nil {
				t.Fatal(err)
			}
			csRows, err := cs.RunTPCH(name)
			if err != nil {
				t.Fatal(err)
			}
			compareRows(t, name+" colstore-vs-pairwise", csRows.Data, pwRows.Data)

			res, err := eng.Query(tpch.Queries[name])
			if err != nil {
				t.Fatalf("levelheaded %s: %v", name, err)
			}
			lhRows := toRows(t, res, groupCols[name])
			compareRows(t, name+" levelheaded-vs-pairwise", lhRows, pwRows.Data)
		})
	}
}

func TestTPCHAblationsAgree(t *testing.T) {
	base := core.New()
	if _, err := tpch.Populate(base.Catalog(), 0.002, 12); err != nil {
		t.Fatal(err)
	}
	if err := base.Freeze(); err != nil {
		t.Fatal(err)
	}
	pw := pairwise.New(base.Catalog())

	variants := map[string]*core.Engine{}
	// The ablation engines share the already-populated catalog via fresh
	// engines over the same data? Engines own their catalogs, so rebuild.
	mk := func(opts ...core.Option) *core.Engine {
		e := core.New(opts...)
		if _, err := tpch.Populate(e.Catalog(), 0.002, 12); err != nil {
			t.Fatal(err)
		}
		return e
	}
	variants["noattrelim"] = mk(core.WithAttributeElimination(false))
	variants["nocostopt"] = mk(core.WithCostOptimizer(false))
	variants["worst"] = mk(core.WithWorstOrder(true))

	for _, name := range []string{"q1", "q3", "q5", "q6", "q10"} {
		want, err := pw.RunTPCH(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, eng := range variants {
			res, err := eng.Query(tpch.Queries[name])
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			compareRows(t, name+" "+label, toRows(t, res, groupCols[name]), want.Data)
		}
	}
}

// laCatalog loads a random sparse matrix and vector into a catalog.
func laCatalog(t *testing.T, n, nnz int, seed int64) (*core.Engine, *blas.CSR, []float64) {
	t.Helper()
	eng := core.New()
	cat := eng.Catalog()
	m, err := cat.Create(storage.Schema{Name: "m", Cols: []storage.ColumnDef{
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
	r := rand.New(rand.NewSource(seed))
	used := map[int]bool{}
	var ci, cj []int32
	var cv []float64
	add := func(i, j int, v float64) {
		used[i*n+j] = true
		ci = append(ci, int32(i))
		cj = append(cj, int32(j))
		cv = append(cv, v)
		if err := m.Append(int64(i), int64(j), v); err != nil {
			t.Fatal(err)
		}
	}
	// Ensure the full domain [0, n) exists via the diagonal.
	for d := 0; d < n; d++ {
		add(d, d, r.Float64()+0.5)
	}
	for k := 0; k < nnz; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if used[i*n+j] {
			continue
		}
		add(i, j, r.Float64())
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[k] = r.Float64()
		if err := vec.Append(int64(k), x[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	coo, _ := blas.NewCOO(n, n, ci, cj, cv)
	return eng, blas.CompressCOO(coo), x
}

func TestSpMVAllEnginesAgree(t *testing.T) {
	n := 40
	eng, csr, x := laCatalog(t, n, 300, 21)
	// Reference: CSR SpMV.
	want := make([]float64, n)
	blas.SpMV(csr, x, want)

	res, err := eng.Query(`SELECT m.i, sum(m.v * vec.x) as y FROM m, vec WHERE m.j = vec.k GROUP BY m.i`)
	if err != nil {
		t.Fatal(err)
	}
	lh := make([]float64, n)
	for r := 0; r < res.NumRows; r++ {
		lh[res.Col("i").I64[r]] = res.Col("y").F64[r]
	}
	pw := pairwise.New(eng.Catalog())
	pwY, err := pw.SpMV("m", "vec")
	if err != nil {
		t.Fatal(err)
	}
	cs := colstore.New(eng.Catalog())
	csY, err := cs.SpMV("m", "vec")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for label, got := range map[string]float64{"levelheaded": lh[i], "pairwise": pwY[int64(i)], "colstore": csY[int64(i)]} {
			if math.Abs(got-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("%s y[%d] = %v, want %v", label, i, got, want[i])
			}
		}
	}
}

func TestSpMMAllEnginesAgree(t *testing.T) {
	n := 25
	eng, csr, _ := laCatalog(t, n, 150, 22)
	want := blas.SpGEMM(csr, csr)
	wantSum := 0.0
	wantNNZ := 0
	for r := 0; r < want.Rows; r++ {
		for p := want.RowPtr[r]; p < want.RowPtr[r+1]; p++ {
			if want.Vals[p] != 0 {
				wantNNZ++
			}
			wantSum += want.Vals[p] * float64(int64(r)+2*int64(want.ColIdx[p])+1)
		}
	}
	res, err := eng.Query(`SELECT m1.i, m2.j, sum(m1.v * m2.v) as v
		FROM m as m1, m as m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`)
	if err != nil {
		t.Fatal(err)
	}
	lhSum := 0.0
	for r := 0; r < res.NumRows; r++ {
		lhSum += res.Col("v").F64[r] * float64(res.Col("i").I64[r]+2*res.Col("j").I64[r]+1)
	}
	if math.Abs(lhSum-wantSum) > 1e-6*math.Abs(wantSum) {
		t.Fatalf("levelheaded SpMM checksum %v, want %v", lhSum, wantSum)
	}
	pw := pairwise.New(eng.Catalog())
	nnz, sum, err := pw.SpMM("m", "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-wantSum) > 1e-6*math.Abs(wantSum) {
		t.Fatalf("pairwise SpMM checksum %v, want %v (nnz %d vs %d)", sum, wantSum, nnz, wantNNZ)
	}
	cs := colstore.New(eng.Catalog())
	_, sum2, err := cs.SpMM("m", "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum2-wantSum) > 1e-6*math.Abs(wantSum) {
		t.Fatalf("colstore SpMM checksum %v, want %v", sum2, wantSum)
	}
}

func TestSpMMOOMBudget(t *testing.T) {
	eng, _, _ := laCatalog(t, 20, 150, 23)
	pw := pairwise.New(eng.Catalog())
	if _, _, err := pw.SpMM("m", "m", 5); err == nil {
		t.Error("pairwise SpMM should exceed a tiny budget")
	}
	cs := colstore.New(eng.Catalog())
	if _, _, err := cs.SpMM("m", "m", 5); err == nil {
		t.Error("colstore SpMM should exceed a tiny budget")
	}
}

func TestConvertToCSRMatchesData(t *testing.T) {
	n := 15
	eng, csr, _ := laCatalog(t, n, 60, 24)
	cs := colstore.New(eng.Catalog())
	got, err := cs.ConvertToCSR("m", n, n)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != csr.NNZ() {
		t.Fatalf("nnz = %d, want %d", got.NNZ(), csr.NNZ())
	}
	for r := 0; r <= n; r++ {
		if got.RowPtr[r] != csr.RowPtr[r] {
			t.Fatalf("rowptr[%d] = %d, want %d", r, got.RowPtr[r], csr.RowPtr[r])
		}
	}
}

func TestExplainRendersPlans(t *testing.T) {
	eng := core.New()
	if _, err := tpch.Populate(eng.Catalog(), 0.001, 13); err != nil {
		t.Fatal(err)
	}
	for _, name := range tpch.QueryNames {
		s, err := eng.Explain(tpch.Queries[name])
		if err != nil {
			t.Fatalf("explain %s: %v", name, err)
		}
		if s == "" {
			t.Fatalf("empty explain for %s", name)
		}
	}
	_ = fmt.Sprint() // keep fmt imported for debugging helpers
}
