package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/costopt"
	"repro/internal/expr"
	"repro/internal/ghd"
	"repro/internal/governor"
	"repro/internal/hypergraph"
	"repro/internal/planner"
	"repro/internal/qerr"
	"repro/internal/refeval"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// scanCatalog builds one lineitem-like table of n rows spanning several
// scan blocks: string, date and float annotations for grouping and
// filtering, a primary key, and a low-cardinality key.
func scanCatalog(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	li, err := cat.Create(storage.Schema{Name: "li", Cols: []storage.ColumnDef{
		{Name: "id", Kind: storage.Int64, Role: storage.Key, Domain: "id", PK: true},
		{Name: "part", Kind: storage.Int64, Role: storage.Key, Domain: "part"},
		{Name: "flag", Kind: storage.String, Role: storage.Annotation},
		{Name: "status", Kind: storage.String, Role: storage.Annotation},
		{Name: "qty", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "price", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "disc", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "ship", Kind: storage.Date, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func(m uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % m
	}
	flags, status := []string{"A", "N", "R"}, []string{"F", "O"}
	for i := 0; i < n; i++ {
		qty := float64(next(50) + 1)
		if i%997 == 0 {
			qty = math.NaN()
		}
		if err := li.Append(int64(i), int64(next(40)), flags[next(3)], status[next(2)], qty,
			float64(next(90000))/100+900, float64(next(11))/100, int64(9000+next(2500))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// triePlan turns a scan plan into the plan the trie path would run:
// ScalarScan cleared, the relation's hypergraph and a GHD whose root
// holds every group vertex, and its attribute orders.
func triePlan(t *testing.T, p *planner.Plan) (*planner.Plan, *costopt.Choice) {
	t.Helper()
	tp := *p
	tp.ScalarScan = false
	r := &tp.Rels[0]
	hg, err := hypergraph.New([]hypergraph.Edge{{Name: r.Alias, Vertices: r.Vertices, Card: r.Table.LiveRows()}})
	if err != nil {
		t.Fatal(err)
	}
	tp.HG = hg
	if tp.GHD, err = ghd.Decompose(hg, ghd.Options{RootMustContain: tp.OutVertices}); err != nil {
		t.Fatal(err)
	}
	ch, err := costopt.Choose(&tp, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &tp, ch
}

func closeTo(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return approx(a, b)
}

// TestScanMatchesTriePath runs filtered single-relation GROUP BYs through
// the scan and through the trie path (compile + runNode, reached by
// clearing ScalarScan on a copy of the plan): same groups, in the same
// order, aggregate values within the reference tolerance, at 1 and 4
// threads. The shapes cover the dense group table (string, date and
// numeric pseudo-vertices, a key vertex), the hash table (a group domain
// past the dense cap), a metadata group item and HAVING.
func TestScanMatchesTriePath(t *testing.T) {
	cat := scanCatalog(t, 40000)
	queries := []string{
		`SELECT flag, status, sum(qty) as sq, sum(price * (1 - disc)) as rev, avg(disc) as ad,
			count(*) as c, min(price) as lo, max(price) as hi
			FROM li WHERE ship <= date '1995-06-01' GROUP BY flag, status`,
		`SELECT part, sum(price) as s, count(*) as c FROM li WHERE disc between 0.02 and 0.06 GROUP BY part`,
		`SELECT qty, count(*) as c, sum(disc) as d FROM li WHERE flag <> 'N' GROUP BY qty`,
		`SELECT ship, sum(qty * 2) as q FROM li WHERE price > 1500 AND status = 'O' GROUP BY ship`,
		`SELECT id, sum(price) as s FROM li WHERE qty < 20 OR flag = 'A' GROUP BY id`,
		`SELECT id, flag, sum(qty) as s FROM li WHERE disc > 0.05 GROUP BY id, flag`,
		`SELECT flag, sum(qty) as s, count(*) as c FROM li WHERE NOT ship > date '1996-01-01'
			GROUP BY flag HAVING count(*) > 100`,
		`SELECT status, sum(price) as s FROM li WHERE price < 0 GROUP BY status`,
	}
	for qi, sql := range queries {
		p, ch := planFor(t, cat, sql)
		if !p.ScalarScan {
			t.Fatalf("%q: not planned as a scan", sql)
		}
		tp, tch := triePlan(t, p)
		for _, threads := range []int{1, 4} {
			label := fmt.Sprintf("%s [%d threads]", sql, threads)
			got, err := Run(p, ch, cat, Options{Threads: threads})
			if err != nil {
				t.Fatalf("%s: scan: %v", label, err)
			}
			want, err := Run(tp, tch, cat, Options{Threads: threads})
			if err != nil {
				t.Fatalf("%s: trie path: %v", label, err)
			}
			assertSameGroups(t, label, got, want)
			if empty := qi == len(queries)-1; (got.NumRows == 0) != empty {
				t.Fatalf("%s: %d groups", label, got.NumRows)
			}
		}
	}
}

// assertSameGroups requires equal shapes and group columns in the same
// row order, and float columns within the reference tolerance.
func assertSameGroups(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumRows != want.NumRows || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows x %d cols, trie path %d x %d", label, got.NumRows, len(got.Cols), want.NumRows, len(want.Cols))
	}
	for ci, g := range got.Cols {
		w := want.Cols[ci]
		if g.Name != w.Name || g.Kind != w.Kind {
			t.Fatalf("%s: column %d is %s/%d, trie path %s/%d", label, ci, g.Name, g.Kind, w.Name, w.Kind)
		}
		for r := 0; r < got.NumRows; r++ {
			var same bool
			switch g.Kind {
			case KindInt:
				same = g.I64[r] == w.I64[r]
			case KindString:
				same = g.Str[r] == w.Str[r]
			default:
				same = closeTo(g.F64[r], w.F64[r])
			}
			if !same {
				t.Fatalf("%s: column %s row %d: scan %v, trie path %v", label, g.Name, r, cellOf(g, r), cellOf(w, r))
			}
		}
	}
}

func cellOf(c *Column, r int) any {
	switch c.Kind {
	case KindInt:
		return c.I64[r]
	case KindString:
		return c.Str[r]
	}
	return c.F64[r]
}

// TestScanBlockZeroAllocs guards the steady state of the scan: once a
// worker's kernels are bound and its groups exist, folding a block —
// selection, leaf vectors, accumulation — allocates nothing, for the
// ungrouped row, the dense group table (flag × status) and the hash
// table (the id domain is past the dense cap), with distinct counts whose
// tuple sets are dense (flag × part) and open-addressed (id). (bench-smoke
// runs it with the other zero-allocation guards.)
func TestScanBlockZeroAllocs(t *testing.T) {
	cat := scanCatalog(t, 40000)
	for _, tc := range []struct {
		sql  string
		hash bool
	}{
		{`SELECT sum(price * disc) as r, count(*) as c FROM li WHERE ship >= date '1995-01-01' AND disc between 0.02 and 0.08`, false},
		{`SELECT flag, status, sum(qty) as s, avg(price * (1 - disc)) as a, min(disc) as m FROM li WHERE price > 1000 GROUP BY flag, status`, false},
		{`SELECT id, sum(price) as s FROM li WHERE qty < 40 GROUP BY id`, true},
		{`SELECT flag, count(distinct part) as d, sum(qty) as s FROM li WHERE price > 1000 GROUP BY flag`, false},
		{`SELECT count(distinct id) as d, count(distinct qty) as q FROM li WHERE disc > 0.02`, false},
	} {
		p, _ := planFor(t, cat, tc.sql)
		s, err := compileScan(p, cat, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (s.size == 0) != tc.hash {
			t.Fatalf("%q: dense table of %d groups, want hash table %v", tc.sql, s.size, tc.hash)
		}
		w := s.newWorker()
		lo, hi := expr.BlockSize, 2*expr.BlockSize
		w.block(lo, hi) // warm: the hash table meets its groups
		if allocs := testing.AllocsPerRun(100, func() { w.block(lo, hi) }); allocs != 0 {
			t.Errorf("%q: %v allocs per block, want 0", tc.sql, allocs)
		}
	}
}

// TestScanMemBudget runs a filtered GROUP BY over a few hundred groups
// (part × flag × status, a dense table) at 4 threads. The scan charges
// what it holds: one table per worker that ran, the merged table and the
// output. A budget of exactly that admits the query and one byte less
// refuses it. A distinct count over a smaller table is charged its
// tuple sets on top: each worker's and their union.
func TestScanMemBudget(t *testing.T) {
	cat := scanCatalog(t, 40000)
	const threads = 4
	for _, tc := range []struct {
		sql       string
		minGroups int
	}{
		{`SELECT part, flag, status, sum(price) as s, count(*) as c FROM li WHERE disc > 0.02 GROUP BY part, flag, status`, 200},
		{`SELECT flag, status, count(distinct part) as d, sum(price) as s FROM li WHERE disc > 0.02 GROUP BY flag, status`, 6},
	} {
		p, ch := planFor(t, cat, tc.sql)
		s, err := compileScan(p, cat, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.size < tc.minGroups {
			t.Fatalf("%q: dense table of %d groups, want at least %d", tc.sql, s.size, tc.minGroups)
		}
		table := int64(s.size) * int64(8*len(s.folds)+1)
		sets := distinctSetBytes(t, s, threads)
		run := func(budget int64) (*Result, int64, error) {
			a := governor.New(governor.Config{MemoryBudget: budget}).NewAccountant(tc.sql, 0)
			defer a.Close()
			res, err := Run(p, ch, cat, Options{Threads: threads, Mem: a})
			return res, a.Used(), err
		}
		res, used, err := run(1 << 40)
		if err != nil {
			t.Fatal(err)
		}
		want := (threads+1)*table + sets + int64(res.NumRows*len(res.Cols)*16)
		if used != want {
			t.Fatalf("%q: charged %d bytes, want %d (%d tables of %d bytes, %d bytes of tuple sets and the output)",
				tc.sql, used, want, threads+1, table, sets)
		}
		if _, _, err := run(want); err != nil {
			t.Fatalf("%q: budget %d: %v", tc.sql, want, err)
		}
		var re *qerr.ResourceExhaustedError
		if _, _, err := run(want - 1); !errors.As(err, &re) {
			t.Fatalf("%q: budget %d: err = %v, want ResourceExhausted", tc.sql, want-1, err)
		}
	}
}

// distinctSetBytes replays the scan's thread chunks to size the tuple
// sets its distinct counts hold: every worker's as it finally stands,
// and their union.
func distinctSetBytes(t *testing.T, s *scan, threads int) int64 {
	t.Helper()
	var n int64
	unions := make([]*hashAcc, len(s.distinct))
	for di, d := range s.distinct {
		unions[di] = newHashAcc(d.set)
	}
	chunk := (s.n + threads - 1) / threads
	for lo := 0; lo < s.n; lo += chunk {
		w := s.newWorker()
		if err := w.fold(lo, min(lo+chunk, s.n), nil, nil); err != nil {
			t.Fatal(err)
		}
		for di, set := range w.dsets {
			n += hashAccBytes(set)
			unions[di].merge(set)
		}
	}
	for _, u := range unions {
		n += hashAccBytes(u)
	}
	return n
}

// countdownCtx is a context whose Err turns to context.Canceled after a
// fixed number of checks: cancellation that lands mid-scan.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestScanCancelMidScan cancels a scan after its first stride: the scan
// must stop and return the context's error.
func TestScanCancelMidScan(t *testing.T) {
	cat := scanCatalog(t, 4*scanCtxStride)
	for _, sql := range []string{
		`SELECT sum(price) as s FROM li WHERE disc > 0.01`,
		`SELECT flag, sum(price) as s FROM li WHERE disc > 0.01 GROUP BY flag`,
		`SELECT flag, count(distinct part) as d FROM li WHERE disc > 0.01 GROUP BY flag`,
	} {
		p, ch := planFor(t, cat, sql)
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(2) // Run's entry check and the scan's first stride pass
		_, err := Run(p, ch, cat, Options{Threads: 1, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%q: err = %v, want context.Canceled", sql, err)
		}
		if n := ctx.left.Load(); n != -1 {
			t.Fatalf("%q: %d checks after cancellation, want the scan to stop at the first", sql, -1-n)
		}
	}
}

// distinctCatalog builds one table for COUNT(DISTINCT): a primary key
// past the dense cap, a small key, int, string, date and float
// annotations. The floats mix NaN payloads, ±0 and duplicates, so one
// distinct float value is one dict.CanonFloat class.
func distinctCatalog(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tb, err := cat.Create(storage.Schema{Name: "t", Cols: []storage.ColumnDef{
		{Name: "id", Kind: storage.Int64, Role: storage.Key, Domain: "id", PK: true},
		{Name: "part", Kind: storage.Int64, Role: storage.Key, Domain: "part"},
		{Name: "n", Kind: storage.Int64, Role: storage.Annotation},
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
		{Name: "d", Kind: storage.Date, Role: storage.Annotation},
		{Name: "f", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	odd := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000123),
		0, math.Copysign(0, -1), math.Inf(1)}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		f := float64(r.Intn(400)) / 4
		if r.Intn(8) == 0 {
			f = odd[r.Intn(len(odd))]
		}
		if err := tb.Append(int64(i), int64(r.Intn(40)), int64(r.Intn(1000)), trees[r.Intn(len(trees))],
			int64(9000+r.Intn(200)), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

var trees = []string{"ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"}

// TestScanDistinctMatchesReference checks COUNT(DISTINCT) over key, int,
// string, date and float columns against the reference evaluator:
// ungrouped, grouped into the dense table and into the hash table (part ×
// n is past the dense cap), filtered and not, at 1 and 4 threads, whose
// per-worker tuple sets must union, not add.
func TestScanDistinctMatchesReference(t *testing.T) {
	cat := distinctCatalog(t, 30000)
	rels := refRelations(cat, "t")
	const counts = `count(distinct id) AS a, count(distinct part) AS b, count(distinct n) AS c,
		count(distinct s) AS e, count(distinct d) AS g, count(distinct f) AS h, count(*) AS k`
	queries := []struct {
		sql  string
		hash bool
	}{
		{`SELECT ` + counts + ` FROM t`, false},
		{`SELECT ` + counts + ` FROM t WHERE n < 400 AND s <> 'oak'`, false},
		{`SELECT ` + counts + ` FROM t WHERE n > 5000`, false},
		{`SELECT s, ` + counts + `, sum(n) AS z FROM t GROUP BY s`, false},
		{`SELECT part, s, count(distinct f) AS h, count(distinct n) AS c FROM t WHERE f >= 10 GROUP BY part, s`, false},
		{`SELECT part, n, count(distinct s) AS e, count(distinct f) AS h, min(d) AS lo FROM t GROUP BY part, n`, true},
		{`SELECT part, n, count(distinct id) AS a FROM t WHERE d < date '1995-01-01' GROUP BY part, n`, true},
	}
	for _, q := range queries {
		want, err := refeval.Eval(q.sql, rels)
		if err != nil {
			t.Fatalf("reference: %s: %v", q.sql, err)
		}
		wantRows := resultRows(len(want.Cols), want.NumRows, func(c, r int) any { return want.Cols[c].Vals[r] })
		p, ch := planFor(t, cat, q.sql)
		if !p.ScalarScan {
			t.Fatalf("%s: not planned as a scan", q.sql)
		}
		s, err := compileScan(p, cat, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (s.size == 0) != q.hash {
			t.Fatalf("%s: dense table of %d groups, want hash table %v", q.sql, s.size, q.hash)
		}
		for _, threads := range []int{1, 4} {
			got, err := Run(p, ch, cat, Options{Threads: threads})
			if err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
			gotRows := resultRows(len(got.Cols), got.NumRows, func(c, r int) any { return cellOf(got.Cols[c], r) })
			if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
				t.Fatalf("%s at %d threads:\n got %v\nwant %v", q.sql, threads, gotRows, wantRows)
			}
		}
	}
}

// TestScanDistinctGroupKinds pins the kinds of int and date annotation
// group columns: a COUNT(DISTINCT) plan decodes them to their stored
// int64 values (a date as its day count), and the same groups under a
// plain aggregate decode to float64 values and YYYY-MM-DD strings.
func TestScanDistinctGroupKinds(t *testing.T) {
	cat := distinctCatalog(t, 3000)
	run := func(sql string) *Result {
		t.Helper()
		p, ch := planFor(t, cat, sql)
		res, err := Run(p, ch, cat, Options{Threads: 2})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	stored := run(`SELECT n, d, count(distinct s) AS e FROM t WHERE n < 20 GROUP BY n, d`)
	plain := run(`SELECT n, d, count(*) AS e FROM t WHERE n < 20 GROUP BY n, d`)
	if stored.Cols[0].Kind != KindInt || stored.Cols[1].Kind != KindInt {
		t.Fatalf("distinct plan: n is %v, d is %v; want KindInt for both", stored.Cols[0].Kind, stored.Cols[1].Kind)
	}
	if plain.Cols[0].Kind != KindFloat || plain.Cols[1].Kind != KindString {
		t.Fatalf("plain plan: n is %v, d is %v; want KindFloat and KindString", plain.Cols[0].Kind, plain.Cols[1].Kind)
	}
	if stored.NumRows == 0 || stored.NumRows != plain.NumRows {
		t.Fatalf("%d distinct-plan groups, %d plain groups", stored.NumRows, plain.NumRows)
	}
	for i := 0; i < stored.NumRows; i++ {
		n, d := stored.Cols[0].I64[i], stored.Cols[1].I64[i]
		if float64(n) != plain.Cols[0].F64[i] || sqlparse.DaysToDate(int32(d)) != plain.Cols[1].Str[i] {
			t.Fatalf("group %d: (%d, %d) vs (%v, %s)", i, n, d, plain.Cols[0].F64[i], plain.Cols[1].Str[i])
		}
	}
}
