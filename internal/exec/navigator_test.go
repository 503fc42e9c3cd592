package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/costopt"
	"repro/internal/planner"
	"repro/internal/set"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trie"
)

// binaryCatalog builds a two-attribute join pair so the compiled trie
// has two levels with two participating relations at each — the shape
// that exercises the batched probe loop and the intersections, not just
// the single-participant run scan.
func binaryCatalog(t *testing.T, rows int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	fact, err := cat.Create(storage.Schema{Name: "fact", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "b", Kind: storage.Int64, Role: storage.Key, Domain: "db"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := cat.Create(storage.Schema{Name: "dim", Cols: []storage.ColumnDef{
		{Name: "a1", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "b1", Kind: storage.Int64, Role: storage.Key, Domain: "db"},
		{Name: "w", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic, overlapping but not identical key sets: some fact
	// keys miss dim (probe misses) and values repeat (duplicate handling).
	x := uint64(0x9e3779b97f4a7c15)
	next := func(m uint64) int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % m)
	}
	for i := 0; i < rows; i++ {
		if err := fact.Append(next(64), next(32), float64(i%7)+0.5); err != nil {
			t.Fatal(err)
		}
		if err := dim.Append(next(48), next(32), float64(i%5)-2); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// planFor parses, plans and orders one query. Tests share the plan and
// order choice across the executions they compare: order selection may
// break cost ties either way run-to-run, and these tests isolate the
// navigator and the cache state, not the tie-break.
func planFor(t *testing.T, cat *storage.Catalog, sql string) (*planner.Plan, *costopt.Choice) {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := costopt.Choose(p, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, ch
}

// setPath overrides the navigator of every node of a compiled tree.
func setPath(n *cNode, path string) {
	n.path = path
	for _, ch := range n.children {
		setPath(ch, path)
	}
}

// runWith compiles with opts (its ForcePath is the backing: a WCOJ
// node's tries are fully built at compile time, a binary node's only as
// far as earlier queries on a shared cache took them), then runs the
// generic recursion with nav as every node's navigator. It returns the
// result and the root's tries by plan relation.
func runWith(t *testing.T, p *planner.Plan, ch *costopt.Choice, cat *storage.Catalog, opts Options, nav string) (*Result, map[int]*trie.Lazy) {
	t.Helper()
	backing := opts.ForcePath
	c, err := compile(p, ch, cat, opts)
	if err != nil {
		t.Fatalf("compile (%s backing): %v", backing, err)
	}
	ixs := map[int]*trie.Lazy{}
	for _, cr := range c.root.rels {
		if cr.child != nil {
			continue
		}
		ixs[cr.relIdx] = cr.ix
		built := cr.ix.BuiltLevels()
		if backing == costopt.PathWCOJ && built != cr.ix.NumLevels() || backing == costopt.PathBinary && opts.Cache == nil && built != 1 {
			t.Fatalf("%s backing left %s with %d of %d levels built", backing, cr.alias, built, cr.ix.NumLevels())
		}
	}
	setPath(c.root, nav)
	rows, hacc, err := runNode(c.root, opts, 0)
	if err != nil {
		t.Fatalf("%s navigator over %s backing: %v", nav, backing, err)
	}
	var res *Result
	if hacc != nil {
		res, err = assembleHash(c, hacc)
	} else {
		res, err = assemble(c, rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, ixs
}

// TestForcedPathsAgree runs the same queries with tries compiled for
// either path × either navigator × {1, 4} threads, over three cache
// states: cold (no cache), and one trie cache whose entries a binary
// query and then a WCOJ query share, and the reverse order. Results
// must be bit-identical to a cold WCOJ run: both navigators visit
// exactly the same ascending survivor sequence whether a level is read
// as its flat run or its sets, on grouped and grand-aggregate shapes
// alike. The diagonal combinations are what ForcePath=wcoj and
// ForcePath=binary execute; Run itself is checked against them.
func TestForcedPathsAgree(t *testing.T) {
	cat := binaryCatalog(t, 500)
	queries := []string{
		`SELECT sum(x * w) as v, count(*) as c FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1`,
		`SELECT a, sum(x * w) as v FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1 GROUP BY a`,
		`SELECT a, b, sum(x) as v, min(w) as lo, max(w) as hi FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1 GROUP BY a, b`,
		`SELECT sum(x) as v FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1 AND x > 2`,
	}
	paths := []string{costopt.PathWCOJ, costopt.PathBinary}
	states := []struct {
		name   string
		shared bool
		order  []string
	}{
		{"cold", false, paths},
		{"binary then wcoj", true, []string{costopt.PathBinary, costopt.PathWCOJ}},
		{"wcoj then binary", true, []string{costopt.PathWCOJ, costopt.PathBinary}},
	}
	for _, sql := range queries {
		p, ch := planFor(t, cat, sql)
		want, err := Run(p, ch, cat, Options{Threads: 1, ForcePath: costopt.PathWCOJ})
		if err != nil {
			t.Fatalf("wcoj %q: %v", sql, err)
		}
		for _, threads := range []int{1, 4} {
			for _, st := range states {
				var cache *TrieCache
				if st.shared {
					cache = NewTrieCache()
				}
				var first map[int]*trie.Lazy
				for _, backing := range st.order {
					for _, nav := range paths {
						got, ixs := runWith(t, p, ch, cat, Options{Threads: threads, ForcePath: backing, Cache: cache}, nav)
						at := fmt.Sprintf("%s [%s: %s backing, %s navigator, %d threads]", sql, st.name, backing, nav, threads)
						assertResultsEqual(t, at, want, got)
						// An unfiltered relation is served its cached trie.
						for i, ix := range ixs {
							if first == nil || !st.shared || p.Rels[i].Filter != nil {
								continue
							}
							if ix != first[i] {
								t.Fatalf("%s: %s not served the cached trie", at, p.Rels[i].Alias)
							}
						}
						if first == nil {
							first = ixs
						}
					}
				}
			}
			got, err := Run(p, ch, cat, Options{Threads: threads, ForcePath: costopt.PathBinary})
			if err != nil {
				t.Fatalf("binary %q: %v", sql, err)
			}
			assertResultsEqual(t, sql, want, got)
		}
	}
}

// TestSharedTrieConcurrentPaths runs binary and WCOJ queries at once
// over one trie cache whose entries a binary query left lazily built:
// a WCOJ query's compile converts levels of the shared tries to sets
// while binary queries rank and read runs on the same tries (run under
// -race by make hybrid-race). Every result must be bit-identical to a
// cold run.
func TestSharedTrieConcurrentPaths(t *testing.T) {
	cat := binaryCatalog(t, 2000)
	sql := `SELECT a, sum(x * w) as v, count(*) as c FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1 GROUP BY a`
	p, ch := planFor(t, cat, sql)
	want, err := Run(p, ch, cat, Options{Threads: 1, ForcePath: costopt.PathWCOJ})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		cache := NewTrieCache()
		if _, err := Run(p, ch, cat, Options{Threads: 1, ForcePath: costopt.PathBinary, Cache: cache}); err != nil {
			t.Fatal(err)
		}
		paths := []string{costopt.PathWCOJ, costopt.PathBinary, costopt.PathBinary, costopt.PathWCOJ, costopt.PathBinary, costopt.PathBinary}
		errs := make(chan error, len(paths))
		for _, path := range paths {
			go func(path string) {
				got, err := Run(p, ch, cat, Options{Threads: 4, ForcePath: path, Cache: cache})
				if err == nil {
					err = sameResult(want, got)
				}
				if err != nil {
					err = fmt.Errorf("%s over the shared cache: %v", path, err)
				}
				errs <- err
			}(path)
		}
		for range paths {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if cache.Len() != 2 {
			t.Fatalf("cache holds %d tries, want 2 (one per relation, shared by both paths)", cache.Len())
		}
	}
}

// assertResultsEqual requires bitwise-equal columns in identical order.
func assertResultsEqual(t *testing.T, sql string, a, b *Result) {
	t.Helper()
	if err := sameResult(a, b); err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
}

// sameResult reports the first difference between two results, floats
// compared by bit pattern.
func sameResult(a, b *Result) error {
	if a.NumRows != b.NumRows || len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("shape mismatch %dx%d vs %dx%d", a.NumRows, len(a.Cols), b.NumRows, len(b.Cols))
	}
	for ci := range a.Cols {
		ca, cb := a.Cols[ci], b.Cols[ci]
		if ca.Name != cb.Name || ca.Kind != cb.Kind {
			return fmt.Errorf("column %d header mismatch", ci)
		}
		for ri := 0; ri < a.NumRows; ri++ {
			same := true
			switch ca.Kind {
			case KindInt:
				same = ca.I64[ri] == cb.I64[ri]
			case KindFloat:
				same = math.Float64bits(ca.F64[ri]) == math.Float64bits(cb.F64[ri])
			case KindString:
				same = ca.Str[ri] == cb.Str[ri]
			}
			if !same {
				return fmt.Errorf("col %s row %d differs", ca.Name, ri)
			}
		}
	}
	return nil
}

// TestForcePathRejected checks the ForcePath validation in Run.
func TestForcePathRejected(t *testing.T) {
	cat := binaryCatalog(t, 10)
	_, err := runErr(cat, `SELECT sum(x) as v FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1`,
		Options{ForcePath: "hash"}, costopt.Options{})
	if err == nil {
		t.Fatal("unknown ForcePath accepted")
	}
}

// TestBinaryProbeZeroAllocs guards the steady state of the one
// recursion under both navigators: with lazy levels materialized and
// worker scratch warm, a full chunk — level-0 rank binding, batched
// rank lookups, intersections, grand-aggregate folds — must not
// allocate. (bench-smoke runs this alongside the intersection and
// aggregation-table guards.)
func TestBinaryProbeZeroAllocs(t *testing.T) {
	cat := binaryCatalog(t, 2000)
	p, ch := planFor(t, cat, `SELECT sum(x * w) as v FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1`)
	for _, path := range []string{costopt.PathBinary, costopt.PathWCOJ} {
		c, err := compile(p, ch, cat, Options{ForcePath: path})
		if err != nil {
			t.Fatal(err)
		}
		n := c.root
		var st set.Stats
		vals := levelZeroValues(n, &st)
		if len(vals) == 0 {
			t.Fatal("empty level-0 join; test needs survivors to walk")
		}
		n.bind()
		w := newWorker(n, nil, nil)
		// Warm: first chunk materializes lazy levels and sizes the buffers.
		if err := w.runChunk(vals); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := w.runChunk(vals); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s navigator: %v allocs/chunk on warm path, want 0", path, allocs)
		}
		if probed := w.iStats.Probes != 0; probed != (path == costopt.PathBinary) {
			t.Errorf("%s navigator: probes counted = %v", path, probed)
		}
		if isect := w.iStats.Total() != w.iStats.Probes; isect != (path == costopt.PathWCOJ) {
			t.Errorf("%s navigator: intersections counted = %v", path, isect)
		}
		w.release()
	}
}
