package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/costopt"
	"repro/internal/expr"
	"repro/internal/ghd"
	"repro/internal/governor"
	"repro/internal/hypergraph"
	"repro/internal/planner"
	"repro/internal/qerr"
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
// table (the id domain is past the dense cap). (bench-smoke runs it with
// the other zero-allocation guards.)
func TestScanBlockZeroAllocs(t *testing.T) {
	cat := scanCatalog(t, 40000)
	for _, tc := range []struct {
		sql  string
		hash bool
	}{
		{`SELECT sum(price * disc) as r, count(*) as c FROM li WHERE ship >= date '1995-01-01' AND disc between 0.02 and 0.08`, false},
		{`SELECT flag, status, sum(qty) as s, avg(price * (1 - disc)) as a, min(disc) as m FROM li WHERE price > 1000 GROUP BY flag, status`, false},
		{`SELECT id, sum(price) as s FROM li WHERE qty < 40 GROUP BY id`, true},
	} {
		p, _ := planFor(t, cat, tc.sql)
		s, err := compileScan(p, cat, Options{})
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
// refuses it.
func TestScanMemBudget(t *testing.T) {
	cat := scanCatalog(t, 40000)
	sql := `SELECT part, flag, status, sum(price) as s, count(*) as c FROM li WHERE disc > 0.02 GROUP BY part, flag, status`
	p, ch := planFor(t, cat, sql)
	s, err := compileScan(p, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.size < 200 {
		t.Fatalf("dense table of %d groups, want a few hundred", s.size)
	}
	const threads = 4
	table := int64(s.size) * int64(8*len(s.folds)+1)
	run := func(budget int64) (*Result, int64, error) {
		a := governor.New(governor.Config{MemoryBudget: budget}).NewAccountant(sql, 0)
		defer a.Close()
		res, err := Run(p, ch, cat, Options{Threads: threads, Mem: a})
		return res, a.Used(), err
	}
	res, used, err := run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	want := (threads+1)*table + int64(res.NumRows*len(res.Cols)*16)
	if used != want {
		t.Fatalf("charged %d bytes, want %d (%d tables of %d bytes and the output)", used, want, threads+1, table)
	}
	if _, _, err := run(want); err != nil {
		t.Fatalf("budget %d: %v", want, err)
	}
	var re *qerr.ResourceExhaustedError
	if _, _, err := run(want - 1); !errors.As(err, &re) {
		t.Fatalf("budget %d: err = %v, want ResourceExhausted", want-1, err)
	}
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
