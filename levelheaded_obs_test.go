package levelheaded_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	lh "repro"
)

// triangleEngine is a small cyclic-join workload that exercises the
// generic WCOJ path.
func triangleEngine(t *testing.T) *lh.Engine {
	t.Helper()
	eng := lh.New()
	tab, err := eng.CreateTable(lh.Schema{Name: "edges", Cols: []lh.ColumnDef{
		{Name: "src", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
		{Name: "dst", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	edges := [][2]int64{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{0, 3}, {5, 0},
	}
	for _, e := range edges {
		if err := tab.Append(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

const triangleSQL = `SELECT count(*) as c FROM edges e1, edges e2, edges e3
	WHERE e1.dst = e2.src AND e3.src = e1.src AND e3.dst = e2.dst`

func TestResultCarriesQueryStats(t *testing.T) {
	eng := triangleEngine(t)
	res, err := eng.Query(context.Background(), triangleSQL)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("Result.Stats is nil")
	}
	if st.SQL != triangleSQL {
		t.Fatalf("stats SQL = %q", st.SQL)
	}
	if st.Phases.Total <= 0 || st.Phases.Execute <= 0 {
		t.Fatalf("phases not timed: %+v", st.Phases)
	}
	if st.Phases.Parse <= 0 || st.Phases.Plan <= 0 {
		t.Fatalf("cold run should time parse/plan: %+v", st.Phases)
	}
	if st.PlanCached {
		t.Fatal("cold run reported a plan-cache hit")
	}
	if st.Intersect.Total() == 0 {
		t.Fatal("no intersection kernels counted on a cyclic join")
	}
	if st.Dispatch != "generic-wcoj" {
		t.Fatalf("dispatch = %q", st.Dispatch)
	}
	if st.GHDNodes == 0 || len(st.RootOrder) != 3 {
		t.Fatalf("GHD decision missing: nodes=%d order=%v", st.GHDNodes, st.RootOrder)
	}
	if st.RowsOut != 1 {
		t.Fatalf("rows out = %d", st.RowsOut)
	}

	// Hot run: plan cache hit, tries from the trie cache.
	res2, err := eng.Query(context.Background(), triangleSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.PlanCached {
		t.Fatal("hot run missed the plan cache")
	}
	if res2.Stats.TrieCacheHits == 0 {
		t.Fatal("hot run missed the trie cache")
	}

	m := eng.Metrics().Snapshot()
	if m["queries"] != 2 || m["errors"] != 0 {
		t.Fatalf("metrics queries=%d errors=%d", m["queries"], m["errors"])
	}
	if m["plan_cache_hits"] != 1 {
		t.Fatalf("plan_cache_hits = %d", m["plan_cache_hits"])
	}
	if m["isect_bs_bs"] == 0 {
		t.Fatalf("engine totals missing kernel counts: %v", m)
	}
}

func TestExplainAnalyzeOutput(t *testing.T) {
	eng := triangleEngine(t)
	out, err := eng.ExplainAnalyze(triangleSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hypergraph", "order=", // plan half
		"dispatch: generic-wcoj", "phases:", "execute=",
		"intersections:", "bs∩bs=", "rows: 1", // analyze half
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
}

func TestQueryContextPreCanceled(t *testing.T) {
	eng := triangleEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Query(ctx, triangleSQL)
	if err == nil {
		t.Fatal("canceled context did not fail the query")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var ee *lh.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err %T does not unwrap to *ExecError", err)
	}
	if !strings.Contains(ee.SQL, "FROM edges") {
		t.Fatalf("ExecError.SQL = %q", ee.SQL)
	}
	if eng.Metrics().Snapshot()["errors"] != 1 {
		t.Fatal("canceled query not counted as an error")
	}
}

func TestQueryContextMidQueryCancel(t *testing.T) {
	// A large enough self-join that cancellation lands mid-execution;
	// whatever the timing, the call must return (no goroutine leak, no
	// deadlock) and, if it errored, with context.Canceled.
	eng := lh.New()
	tab, err := eng.CreateTable(lh.Schema{Name: "edges", Cols: []lh.ColumnDef{
		{Name: "src", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
		{Name: "dst", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := int64(0); i < n; i++ {
		for _, d := range []int64{1, 2, 3, 5, 7, 11, 13, 17} {
			if err := tab.Append(i, (i+d)%n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	_, qerr := eng.Query(ctx, triangleSQL)
	if qerr != nil && !errors.Is(qerr, context.Canceled) {
		t.Fatalf("mid-query cancel error = %v", qerr)
	}
	// Workers must have drained; allow the runtime a few scheduling
	// rounds to retire them.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestTypedErrorsRoundTrip(t *testing.T) {
	eng := triangleEngine(t)

	_, err := eng.Query(context.Background(), "SELEC nope")
	var pe *lh.ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.SQL, "SELEC") {
		t.Fatalf("parse error = %#v", err)
	}

	_, err = eng.Query(context.Background(), "SELECT count(*) as c FROM nosuch")
	var ple *lh.PlanError
	if !errors.As(err, &ple) {
		t.Fatalf("plan error = %#v", err)
	}
	var ute *lh.UnknownTableError
	if !errors.As(err, &ute) || ute.Name != "nosuch" {
		t.Fatalf("unknown-table cause not preserved: %#v", err)
	}
}

func TestFrozenTableTypedErrors(t *testing.T) {
	eng := triangleEngine(t)
	tab := eng.Table("edges")

	// Unknown column in bulk load, before freeze.
	err := tab.SetColumnData(map[string]interface{}{"nope": []int64{1}})
	var uce *lh.UnknownColumnError
	if !errors.As(err, &uce) || uce.Column != "nope" {
		t.Fatalf("unknown column error = %#v", err)
	}

	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Appends are no longer refused after freeze: they land in the
	// table's delta store and the next query folds them in.
	before := tab.TotalRows()
	if err := tab.Append(int64(9), int64(9)); err != nil {
		t.Fatalf("append-after-freeze should succeed, got %#v", err)
	}
	if err := tab.LoadDelimitedContext(context.Background(), strings.NewReader("7,8\n"), ','); err != nil {
		t.Fatalf("load-after-freeze should succeed, got %#v", err)
	}
	if got := tab.TotalRows(); got != before+2 {
		t.Fatalf("rows after post-freeze appends = %d, want %d", got, before+2)
	}
	// Bulk column replacement stays a pre-freeze-only operation.
	var fte *lh.FrozenTableError
	if err := tab.SetColumnData(nil); !errors.As(err, &fte) {
		t.Fatalf("set-after-freeze error = %#v", err)
	}
	if _, err := eng.CreateTable(lh.Schema{Name: "late", Cols: []lh.ColumnDef{
		{Name: "k", Kind: lh.Int64, Role: lh.Key},
	}}); !errors.As(err, &fte) {
		t.Fatalf("create-after-freeze error = %#v", err)
	}
}
