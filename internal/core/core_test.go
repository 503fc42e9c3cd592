package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func tpchEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng := New(opts...)
	if _, err := tpch.Populate(eng.Catalog(), 0.002, 3); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestQueryLifecycle(t *testing.T) {
	eng := tpchEngine(t)
	res, err := eng.Query(tpch.Queries["q5"])
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows == 0 {
		t.Fatal("q5 returned no rows")
	}
	if res.Col("n_name") == nil || res.Col("revenue") == nil {
		t.Fatalf("missing output columns")
	}
	// Catalog is frozen after the first query; creating tables now fails.
	if _, err := eng.CreateTable(storage.Schema{Name: "late", Cols: []storage.ColumnDef{
		{Name: "x", Kind: storage.Int64, Role: storage.Key},
	}}); err == nil {
		t.Error("create after first query should fail")
	}
}

func TestAllPaperQueriesRun(t *testing.T) {
	eng := tpchEngine(t)
	for _, name := range tpch.QueryNames {
		res, err := eng.Query(tpch.Queries[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.NumRows == 0 && name != "q8" {
			// q8's tight type+region+date predicates can select nothing at
			// tiny scale; everything else must produce rows.
			t.Errorf("%s returned no rows", name)
		}
	}
}

func TestAblationOptionsProduceSameAnswers(t *testing.T) {
	ref := tpchEngine(t)
	want, err := ref.Query(tpch.Queries["q5"])
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithAttributeElimination(false)},
		{WithCostOptimizer(false)},
		{WithWorstOrder(true)},
		{WithBLAS(false)},
		{WithTrieCache(false)},
		{WithThreads(1)},
	} {
		eng := tpchEngine(t, opts...)
		got, err := eng.Query(tpch.Queries["q5"])
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows != want.NumRows {
			t.Fatalf("%v: %d rows, want %d", opts, got.NumRows, want.NumRows)
		}
	}
}

func TestQueryWithForcedOrderAndWorst(t *testing.T) {
	eng := tpchEngine(t)
	// Worst order must still be correct.
	res, err := eng.QueryWithContext(context.Background(), tpch.Queries["q3"], QueryOptions{WorstOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.Query(tpch.Queries["q3"])
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != base.NumRows {
		t.Fatalf("worst order rows = %d, want %d", res.NumRows, base.NumRows)
	}
}

func TestExplainOutputs(t *testing.T) {
	eng := tpchEngine(t)
	s, err := eng.Explain(tpch.Queries["q5"])
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"hypergraph:", "GHD", "order=", "icost="} {
		if !strings.Contains(s, frag) {
			t.Errorf("explain missing %q:\n%s", frag, s)
		}
	}
	s6, err := eng.Explain(tpch.Queries["q6"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s6, "scan over lineitem: filter ") || strings.Contains(s6, "group by") {
		t.Errorf("q6 explain = %q", s6)
	}
	s1, err := eng.Explain(tpch.Queries["q1"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s1, "scan over lineitem: filter ") || !strings.HasSuffix(s1, ", group by l_returnflag, l_linestatus\n") {
		t.Errorf("q1 explain = %q", s1)
	}
}

func TestTrieCacheGrows(t *testing.T) {
	eng := tpchEngine(t)
	if eng.CacheSize() != 0 {
		t.Fatal("cache should start empty")
	}
	if _, err := eng.Query(tpch.Queries["q5"]); err != nil {
		t.Fatal(err)
	}
	if eng.CacheSize() == 0 {
		t.Error("unfiltered tries should be cached")
	}
}

// lineitemRow copies row i of the table's live generation as an
// IngestRows row.
func lineitemRow(eng *Engine, i int) []interface{} {
	tb := eng.Catalog().Table("lineitem").Live()
	row := make([]interface{}, len(tb.Cols))
	for c, col := range tb.Cols {
		switch col.Def.Kind {
		case storage.Int64, storage.Date:
			row[c] = col.Ints[i]
		case storage.Float64:
			row[c] = col.Floats[i]
		case storage.String:
			row[c] = col.Str(i)
		}
	}
	return row
}

// TestTrieCacheBoundedUnderAppends: a table appended between queries
// mints a generation per query, and the cache keeps only the newest
// generation's tries of it, so its size stays flat without a Compact.
func TestTrieCacheBoundedUnderAppends(t *testing.T) {
	eng := tpchEngine(t)
	const sql = "SELECT sum(l_extendedprice) AS s FROM lineitem, orders WHERE l_orderkey = o_orderkey"
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if _, err := eng.Query(sql); err != nil {
			t.Fatal(err)
		}
		if n := eng.CacheSize(); n > 2 {
			t.Fatalf("after %d appends the cache holds %d tries, want at most 2", i, n)
		}
		if _, err := eng.IngestRows(ctx, "lineitem", [][]interface{}{lineitemRow(eng, i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBasesSurviveCompact: a filtered query's base orders outlive
// appends and Compact (which keeps row order and codes), so the next run
// after either derives every filtered relation and builds nothing.
func TestBasesSurviveCompact(t *testing.T) {
	eng := tpchEngine(t)
	ctx := context.Background()
	q3 := func() *obs.QueryStats {
		t.Helper()
		res, err := eng.Query(tpch.Queries["q3"])
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	for i := 0; i < 3; i++ {
		q3()
	}
	for _, step := range []string{"append", "compact"} {
		if step == "append" {
			if _, err := eng.IngestRows(ctx, "lineitem", [][]interface{}{lineitemRow(eng, 7)}); err != nil {
				t.Fatal(err)
			}
		} else if err := eng.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		if st := q3(); st.TriesBuilt != 0 || st.TriesDerived != 3 {
			t.Fatalf("q3 after %s: built %d, derived %d; want 0 and 3", step, st.TriesBuilt, st.TriesDerived)
		}
	}
}

func TestPrepareExecuteSplit(t *testing.T) {
	eng := tpchEngine(t)
	p, ch, err := eng.Prepare(tpch.Queries["q5"], QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(p, ch, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows == 0 {
		t.Fatal("prepared execution returned no rows")
	}
}

func TestBadSQLSurfacesError(t *testing.T) {
	eng := tpchEngine(t)
	if _, err := eng.Query("SELECT FROM nothing"); err == nil {
		t.Error("bad SQL should error")
	}
	if _, err := eng.Query("SELECT x FROM missing_table"); err == nil {
		t.Error("missing table should error")
	}
}

// parseSpans counts the parse-phase spans a query recorded.
func parseSpans(res *exec.Result) int {
	n := 0
	for _, sp := range res.Stats.Trace.Spans() {
		if sp.Name == "parse" {
			n++
		}
	}
	return n
}

// TestParseOnceAndDistinctIsAnASTFlag: no query is parsed twice, and
// none is routed by sniffing its text. A LIKE literal that merely spells
// "distinct" takes the normal pipeline with one parse on a plan-cache
// miss and none on a hit; ApproxOK costs exactly the one parse its shape
// analysis needs; a real COUNT(DISTINCT) is a scan aggregate of the
// normal pipeline, so its plan-cache hit parses nothing either.
func TestParseOnceAndDistinctIsAnASTFlag(t *testing.T) {
	eng := tpchEngine(t)
	ctx := context.Background()
	const q = "SELECT count(*) AS c FROM customer WHERE c_comment LIKE '%distinct%'"
	for run, wantParses := range []int{1, 0} {
		res, err := eng.QueryWithContext(ctx, q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ApproxRoute != "" {
			t.Fatalf("run %d: a LIKE literal routed the query to the approximate tier (%q)", run, res.Stats.Dispatch)
		}
		if res.Stats.PlanCached != (run == 1) {
			t.Fatalf("run %d: PlanCached=%t", run, res.Stats.PlanCached)
		}
		if got := parseSpans(res); got != wantParses {
			t.Fatalf("run %d: %d parse spans, want %d", run, got, wantParses)
		}
	}
	// Opted in: cold and cached alike parse once (the shape analysis needs
	// the AST), never twice.
	const q2 = "SELECT sum(c_acctbal) AS s FROM customer WHERE c_comment LIKE '%distinct%'"
	for run := 0; run < 2; run++ {
		res, err := eng.QueryWithContext(ctx, q2, QueryOptions{ApproxOK: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := parseSpans(res); got != 1 {
			t.Fatalf("ApproxOK run %d: %d parse spans, want 1", run, got)
		}
	}
	for run, wantParses := range []int{1, 0} {
		res, err := eng.Query("SELECT count(distinct c_nationkey) AS c FROM customer")
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Dispatch != obs.DispatchScalarScan || parseSpans(res) != wantParses {
			t.Fatalf("count(distinct) run %d: dispatch=%q parse spans=%d, want scalar-scan and %d",
				run, res.Stats.Dispatch, parseSpans(res), wantParses)
		}
	}
}

// TestPlanCacheBounded redraws a literal 10 000 times — the realistic BI
// pattern that misses the text-keyed plan cache every execution — and
// requires the cache to stay within its bound while a hot text,
// re-queried every 64 inserts, hits every time: eviction takes the least
// recently used text, so two full turnovers of the cache cannot drop it.
func TestPlanCacheBounded(t *testing.T) {
	eng := New(WithThreads(1))
	tab, err := eng.CreateTable(storage.Schema{Name: "t", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tab.Append(int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	const hot = "SELECT sum(x) AS s FROM t WHERE x > 3"
	for i := 0; i < 10000; i++ {
		if i%64 == 0 {
			res, err := eng.Query(hot)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && !res.Stats.PlanCached {
				t.Fatalf("hot text missed the plan cache after %d distinct texts", i)
			}
		}
		if _, err := eng.Query(fmt.Sprintf("SELECT sum(x) AS s FROM t WHERE x < %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.plans.Len(); n > maxCachedPlans {
		t.Fatalf("%d cached plans after 10000 distinct texts, want at most %d", n, maxCachedPlans)
	}
}
