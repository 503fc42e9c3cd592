package approx

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

var trees = []string{"ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"}

// factTable builds a frozen catalog holding one table t0(k key, v int,
// s string, u string, f float) with one row per entry i of rows, its
// values derived from i.
func factTable(t *testing.T, rows []int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create(storage.Schema{Name: "t0", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
		{Name: "v", Kind: storage.Int64, Role: storage.Annotation},
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
		{Name: "u", Kind: storage.String, Role: storage.Annotation},
		{Name: "f", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rows {
		if err := tab.Append(int64(i), int64(i%50), trees[i%len(trees)], trees[i%3], float64(i%13)/4); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func parse(t *testing.T, sql string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func shapeOf(t *testing.T, sql string, cat *storage.Catalog) *Shape {
	t.Helper()
	sh, ok := Analyze(parse(t, sql), cat.Table("t0"))
	if !ok {
		t.Fatalf("%s: Analyze declined", sql)
	}
	return sh
}

// TestEvalSampleIsScaledScan: the sample route over a chosen id set is
// the engine's scan of a table holding only those rows, with counts and
// sums scaled by n/k and averages left as they are — bit for bit at one
// thread, since both fold the same rows in the same order.
func TestEvalSampleIsScaledScan(t *testing.T) {
	const n = 1000
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var chosen []int
	var ids []int32
	for i := 3; i < n; i += 7 {
		chosen = append(chosen, i)
		ids = append(ids, int32(i))
	}
	full, sub := factTable(t, all), factTable(t, chosen)
	scale := float64(n) / float64(len(ids))

	for _, sql := range []string{
		"SELECT count(*), sum(f), avg(v) FROM t0 WHERE v < 30 AND s <> 'oak'",
		"SELECT s, count(*), sum(v), avg(f) FROM t0 WHERE f >= 0.5 OR s IN ('ash', 'elm') GROUP BY s",
		"SELECT u, s, count(*) FROM t0 GROUP BY u, s",
	} {
		sh := shapeOf(t, sql, full)
		got, err := EvalSample(sh, full, nil, ids)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		p, err := planner.Build(parse(t, sql), sub)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.RunScan(p, sub, exec.Options{Threads: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Res.NumRows != want.NumRows || len(got.Res.Cols) != len(want.Cols) {
			t.Fatalf("%s: %d×%d, scan of the sample is %d×%d", sql, got.Res.NumRows, len(got.Res.Cols), want.NumRows, len(want.Cols))
		}
		for ci, out := range sh.Out {
			gc, wc := got.Res.Cols[ci], want.Cols[ci]
			if gc.Name != wc.Name || gc.Kind != wc.Kind {
				t.Fatalf("%s: column %d is %s/%d, want %s/%d", sql, ci, gc.Name, gc.Kind, wc.Name, wc.Kind)
			}
			for r := 0; r < want.NumRows; r++ {
				if out.Group >= 0 {
					if cellString(gc, r) != cellString(wc, r) {
						t.Fatalf("%s: row %d group %s = %s, want %s", sql, r, gc.Name, cellString(gc, r), cellString(wc, r))
					}
					continue
				}
				w := wc.F64[r]
				switch sh.Aggs[out.Agg].Fn {
				case "count":
					w = math.Round(w * scale)
				case "sum":
					w *= scale
				}
				if math.Float64bits(gc.F64[r]) != math.Float64bits(w) {
					t.Fatalf("%s: row %d %s = %v, want %v", sql, r, gc.Name, gc.F64[r], w)
				}
			}
		}
		if got.Confidence != Confidence || len(got.ErrorBounds) != len(sh.Out) {
			t.Fatalf("%s: confidence %v, %d bounds", sql, got.Confidence, len(got.ErrorBounds))
		}
		wantMiss := 0.0
		if len(sh.GroupBy) > 0 {
			wantMiss = MissBound(n, len(ids))
		}
		if got.MissBound != wantMiss {
			t.Fatalf("%s: miss bound %v, want %v", sql, got.MissBound, wantMiss)
		}
	}
}

func cellString(c *exec.Column, r int) string {
	switch c.Kind {
	case exec.KindString:
		return c.Str[r]
	case exec.KindInt:
		return fmt.Sprint(c.I64[r])
	}
	return fmt.Sprint(c.F64[r])
}

// TestBoundsClosedForms pins the bound math to its formulas, including
// an empty sample (k = 0) and a sample of the whole table (k = n).
func TestBoundsClosedForms(t *testing.T) {
	near := func(label string, got, want float64) {
		t.Helper()
		if !(math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))) {
			t.Errorf("%s = %v, want %v", label, got, want)
		}
	}
	// count: N·√(8.4/k); an empty sample bounds nothing below N.
	near("countBound(1000, 100)", countBound(1000, 100), 1000*math.Sqrt(0.084))
	near("countBound(100, 100)", countBound(100, 100), 100*math.Sqrt(8.4/100))
	near("countBound(1000, 0)", countBound(1000, 0), 1000)

	// sum over a sample 1, 2, 3, 4 (Σ 10, Σ² 30, max 4): mean 2.5,
	// variance 1.25; 5·N·σ/√k + 5·N·(max+1)/k.
	near("sumBound(8, 4)", sumBound(8, 4, 10, 30, 4), 5*8*math.Sqrt(1.25)/2+5*8*5.0/4)
	near("sumBound(4, 4)", sumBound(4, 4, 10, 30, 4), 5*4*math.Sqrt(1.25)/2+5*4*5.0/4)
	// A rounding-negative variance clamps to 0: only the slack term is left.
	near("sumBound clamped", sumBound(10, 2, 2, 1.9999999, 1), 5*10*2.0/2)
	if b := sumBound(10, 0, 0, 0, 0); !math.IsInf(b, 1) {
		t.Errorf("sumBound(k=0) = %v, want +Inf", b)
	}

	// avg over the same sample: 5·σ/√k + 10·(max+1)/k; no matching row
	// leaves the exact NaN convention, bound 0.
	near("avgBound(4)", avgBound(4, 10, 30, 4), 5*math.Sqrt(1.25)/2+10*5.0/4)
	near("avgBound(0)", avgBound(0, 0, 0, 0), 0)

	// miss: N·16.1/k; k = 0 can miss anything up to N.
	near("MissBound(1000, 100)", MissBound(1000, 100), 161)
	near("MissBound(64, 64)", MissBound(64, 64), 16.1)
	near("MissBound(1000, 0)", MissBound(1000, 0), 1000)
}

// TestAnalyzeDeclinesRejectedWhere: the tier takes exactly the WHERE
// clauses the expression compiler takes, so a query it declines falls
// through to the exact pipeline and gets that pipeline's error.
func TestAnalyzeDeclinesRejectedWhere(t *testing.T) {
	cat := factTable(t, []int{0, 1, 2, 3})
	for _, where := range []string{
		"s = u",         // string column against string column
		"v IN (k, 1)",   // non-literal IN member
		"s IN ('a', 1)", // string IN with a number
		"zz < 3",        // unknown column
		"f LIKE 'a%'",   // LIKE on a number
	} {
		q, err := sqlparse.Parse("SELECT count(*) FROM t0 WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := Analyze(q, cat.Table("t0")); ok {
			t.Errorf("Analyze accepted WHERE %s", where)
		}
	}
	shapeOf(t, "SELECT count(*) FROM t0 WHERE s = 'oak' AND v IN (1, 2) AND u LIKE 'b%'", cat)
}

// TestSummarySampleIDs: the summary samples row ids, hands them out
// sorted and charges 4 bytes apiece on top of its sketches.
func TestSummarySampleIDs(t *testing.T) {
	const n, k = 500, 64
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	tab := factTable(t, all).Table("t0")
	s := NewSummary(&tab.Schema, k)
	s.Extend(tab, 0)
	ids := s.SampleIDs()
	if len(ids) != k || s.Rows != n || !slices.IsSorted(ids) {
		t.Fatalf("%d ids over %d rows (sorted %t)", len(ids), s.Rows, slices.IsSorted(ids))
	}
	sorted := slices.Clone(s.Sample.IDs())
	slices.Sort(sorted)
	if !slices.Equal(ids, sorted) {
		t.Fatal("SampleIDs is not the reservoir's membership")
	}
	hll := 0
	for _, h := range s.HLLs {
		hll += h.Bytes()
	}
	if got := s.Bytes(); got != hll+4*k {
		t.Fatalf("Bytes = %d, want %d sketch + %d sample", got, hll, 4*k)
	}
}
