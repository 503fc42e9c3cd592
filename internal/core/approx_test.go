package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// approxEngine builds an engine with one fact table of n rows:
// k (int key), v (int annotation, i%50), s (string annotation, 8
// distinct), f (float annotation).
func approxEngine(t *testing.T, n int, opts ...Option) *Engine {
	t.Helper()
	eng := New(opts...)
	tab, err := eng.CreateTable(storage.Schema{Name: "facts", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
		{Name: "v", Kind: storage.Int64, Role: storage.Annotation},
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
		{Name: "f", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"}
	for i := 0; i < n; i++ {
		if err := tab.Append(int64(i), int64(i%50), names[i%len(names)], float64(i%10)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func scalarF(t *testing.T, eng *Engine, sql string, qo QueryOptions) (float64, *obs.QueryStats) {
	t.Helper()
	res, err := eng.QueryWithContext(context.Background(), sql, qo)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if res.NumRows != 1 || len(res.Cols) != 1 {
		t.Fatalf("%s: want 1x1 result, got %dx%d", sql, res.NumRows, len(res.Cols))
	}
	return res.Cols[0].F64[0], res.Stats
}

func TestCountDistinctExactDefault(t *testing.T) {
	eng := approxEngine(t, 500)
	got, st := scalarF(t, eng, "SELECT count(distinct v) AS c FROM facts", QueryOptions{})
	if got != 50 {
		t.Fatalf("count(distinct v) = %v, want 50", got)
	}
	if st.Approx {
		t.Fatal("exact distinct count reported Approx=true")
	}
	if st.Dispatch != obs.DispatchScalarScan {
		t.Fatalf("dispatch = %q, want %q", st.Dispatch, obs.DispatchScalarScan)
	}
	if st.ErrorBound != 0 || st.Confidence != 0 {
		t.Fatalf("exact answer advertised bounds: %v / %v", st.ErrorBound, st.Confidence)
	}

	// Filtered distinct stays exact (no sketch covers a filter).
	got, st = scalarF(t, eng, "SELECT count(distinct v) AS c FROM facts WHERE v < 10", QueryOptions{ApproxOK: true})
	if got != 10 || st.Approx {
		t.Fatalf("filtered distinct = %v approx=%t, want 10 exact", got, st.Approx)
	}

	// Grouped distinct works through the same scan, over keys too, with
	// groups in ascending code order.
	res, err := eng.Query("SELECT s, count(distinct v) AS c, count(distinct k) AS kc FROM facts GROUP BY s")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 8 || res.Stats.Dispatch != obs.DispatchScalarScan {
		t.Fatalf("grouped distinct rows = %d on %s, want 8 on the scan", res.NumRows, res.Stats.Dispatch)
	}
	for i, name := range []string{"ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"} {
		// Rows j ≡ i (mod 8) carry name i: v = j%50 takes 25 values, k one per row.
		if got := res.Col("s").Str[i]; got != name || res.Col("c").F64[i] != 25 || res.Col("kc").F64[i] != float64((500-i+7)/8) {
			t.Fatalf("group %d = %s: %v distinct v, %v distinct k", i, got, res.Col("c").F64[i], res.Col("kc").F64[i])
		}
	}
}

func TestApproxHLLRoute(t *testing.T) {
	eng := approxEngine(t, 4000)
	exact, _ := scalarF(t, eng, "SELECT count(distinct k) AS c FROM facts", QueryOptions{})
	if exact != 4000 {
		t.Fatalf("exact distinct k = %v", exact)
	}
	got, st := scalarF(t, eng, "SELECT count(distinct k) AS c FROM facts", QueryOptions{ApproxOK: true})
	if !st.Approx {
		t.Fatalf("4000-row distinct under ApproxOK stayed exact (dispatch %s)", st.Dispatch)
	}
	if st.Dispatch != obs.DispatchApproxHLL {
		t.Fatalf("dispatch = %q, want %q", st.Dispatch, obs.DispatchApproxHLL)
	}
	if st.ErrorBound <= 0 || st.Confidence != 0.999 {
		t.Fatalf("bound=%v confidence=%v", st.ErrorBound, st.Confidence)
	}
	if math.Abs(got-exact) > st.ErrorBound {
		t.Fatalf("HLL estimate %v off exact %v beyond bound %v", got, exact, st.ErrorBound)
	}
}

func TestApproxSampleRoute(t *testing.T) {
	eng := approxEngine(t, 2000, WithApproxSampleRows(64))
	const q = "SELECT count(*) AS c, sum(f) AS s FROM facts WHERE v < 25"
	res, err := eng.QueryWithContext(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exactC := res.Col("c").F64[0]
	exactS := res.Col("s").F64[0]

	ares, err := eng.QueryWithContext(context.Background(), q, QueryOptions{ApproxOK: true})
	if err != nil {
		t.Fatal(err)
	}
	st := ares.Stats
	if !st.Approx || st.Dispatch != obs.DispatchApproxSample {
		t.Fatalf("approx=%t dispatch=%q, want sample route", st.Approx, st.Dispatch)
	}
	if len(st.ErrorBounds) != 2 {
		t.Fatalf("per-column bounds = %v", st.ErrorBounds)
	}
	gotC := ares.Col("c").F64[0]
	gotS := ares.Col("s").F64[0]
	if math.Abs(gotC-exactC) > st.ErrorBounds[0] {
		t.Fatalf("count %v off exact %v beyond bound %v", gotC, exactC, st.ErrorBounds[0])
	}
	if math.Abs(gotS-exactS) > st.ErrorBounds[1] {
		t.Fatalf("sum %v off exact %v beyond bound %v", gotS, exactS, st.ErrorBounds[1])
	}

	// min/max shapes have no sample estimator: they stay exact on the
	// normal pipeline even under ApproxOK.
	mres, err := eng.QueryWithContext(context.Background(), "SELECT max(f) AS m FROM facts", QueryOptions{ApproxOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Stats.Approx {
		t.Fatal("max() routed approximate")
	}
	if mres.Col("m").F64[0] != 9 {
		t.Fatalf("max(f) = %v", mres.Col("m").F64[0])
	}
}

// TestApproxSampleConcurrent runs sample-route queries from several
// goroutines while rows are appended: each copies the reservoir's ids
// under the summary lock and scans after releasing it, so the scans and
// the summary extensions interleave (run it under -race).
func TestApproxSampleConcurrent(t *testing.T) {
	eng := approxEngine(t, 2000, WithApproxSampleRows(64))
	const q = "SELECT s, count(*) AS c, sum(f) AS sf FROM facts WHERE v < 40 GROUP BY s"
	if _, err := eng.Query(q); err != nil { // freeze: appends go to the delta store
		t.Fatal(err)
	}
	tab := eng.Catalog().Table("facts")
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2000; i < 2400; i++ {
			if err := tab.Append(int64(i), int64(i%50), "oak", 2.5); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := eng.QueryWithContext(context.Background(), q, QueryOptions{ApproxOK: true})
				if err != nil {
					errs <- err
					return
				}
				if res.Stats.Dispatch != obs.DispatchApproxSample || res.NumRows != 8 {
					errs <- fmt.Errorf("dispatch %s, %d groups; want the sample route over 8", res.Stats.Dispatch, res.NumRows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestApproxGroupCountRoute: an unfiltered 1-column count-only GROUP BY
// (the shape the deleted Count-Min route used to take) is answered
// under ApproxOK by the sample route once the table outgrows the
// reservoir, within its advertised bound and without losing a heavy
// group; with the default reservoir the same table stays exact.
func TestApproxGroupCountRoute(t *testing.T) {
	const q = "SELECT s, count(*) AS c FROM facts GROUP BY s"
	eng := approxEngine(t, 4000, WithApproxSampleRows(512))
	res, err := eng.QueryWithContext(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact := map[string]float64{}
	for i := 0; i < res.NumRows; i++ {
		exact[res.Col("s").Str[i]] = res.Col("c").F64[i]
	}

	ares, err := eng.QueryWithContext(context.Background(), q, QueryOptions{ApproxOK: true})
	if err != nil {
		t.Fatal(err)
	}
	st := ares.Stats
	if !st.Approx || st.Dispatch != obs.DispatchApproxSample {
		t.Fatalf("approx=%t dispatch=%q, want sample route", st.Approx, st.Dispatch)
	}
	// Every heavy hitter (all 8 groups are 500 rows >> MissBound) must
	// surface, with its count within the advertised bound.
	if ares.NumRows != 8 {
		t.Fatalf("groups = %d, want 8 (miss bound %v)", ares.NumRows, st.MissBound)
	}
	for i := 0; i < ares.NumRows; i++ {
		name := ares.Col("s").Str[i]
		got := ares.Col("c").F64[i]
		want, ok := exact[name]
		if !ok {
			t.Fatalf("sample invented group %q", name)
		}
		if math.Abs(got-want) > st.ErrorBound {
			t.Fatalf("group %q count %v off exact %v beyond bound %v", name, got, want, st.ErrorBound)
		}
	}

	dres, err := approxEngine(t, 4000).QueryWithContext(context.Background(), q, QueryOptions{ApproxOK: true})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Stats.Approx {
		t.Fatalf("default reservoir: dispatch=%q, want the exact pipeline", dres.Stats.Dispatch)
	}
}

func TestApproxOptInIsBitIdentical(t *testing.T) {
	// Below every route threshold, ApproxOK must change nothing.
	eng := approxEngine(t, 200)
	for _, q := range []string{
		"SELECT count(*) AS c FROM facts",
		"SELECT sum(f) AS s FROM facts WHERE v < 10",
		"SELECT s, count(*) AS c FROM facts GROUP BY s",
	} {
		r1, err := eng.QueryWithContext(context.Background(), q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := eng.QueryWithContext(context.Background(), q, QueryOptions{ApproxOK: true})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Stats.Approx {
			t.Fatalf("%s: tiny table routed approximate", q)
		}
		if r1.NumRows != r2.NumRows {
			t.Fatalf("%s: row counts differ", q)
		}
		for ci := range r1.Cols {
			for ri := range r1.Cols[ci].F64 {
				b1 := math.Float64bits(r1.Cols[ci].F64[ri])
				b2 := math.Float64bits(r2.Cols[ci].F64[ri])
				if b1 != b2 {
					t.Fatalf("%s: col %d row %d differ bitwise", q, ci, ri)
				}
			}
		}
	}
}

func TestApproxSummaryFollowsAppends(t *testing.T) {
	eng := approxEngine(t, 4000)
	got, _ := scalarF(t, eng, "SELECT count(distinct k) AS c FROM facts", QueryOptions{ApproxOK: true})
	if math.Abs(got-4000) > 400 {
		t.Fatalf("initial estimate %v", got)
	}
	// Double the key range through the delta store: the summary must
	// extend over the appended suffix without a rebuild.
	tab := eng.Catalog().Table("facts")
	for i := 4000; i < 8000; i++ {
		if err := tab.Append(int64(i), int64(i%50), "oak", 1.0); err != nil {
			t.Fatal(err)
		}
	}
	got, st := scalarF(t, eng, "SELECT count(distinct k) AS c FROM facts", QueryOptions{ApproxOK: true})
	if math.Abs(got-8000) > st.ErrorBound {
		t.Fatalf("post-append estimate %v (bound %v), want ~8000", got, st.ErrorBound)
	}
	// Compact refreshes the summary; the answer must not regress.
	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	got2, st2 := scalarF(t, eng, "SELECT count(distinct k) AS c FROM facts", QueryOptions{ApproxOK: true})
	if got2 != got {
		t.Fatalf("estimate moved across compact: %v -> %v", got, got2)
	}
	if math.Abs(got2-8000) > st2.ErrorBound {
		t.Fatalf("post-compact estimate %v beyond bound %v", got2, st2.ErrorBound)
	}
}

func TestApproxDegradeUnderOverload(t *testing.T) {
	eng := approxEngine(t, 4000, WithMaxConcurrency(1), WithQueueDepth(0))
	// Saturate the only admission slot directly.
	release, err := eng.gov.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Exact-only queries shed.
	_, err = eng.QueryWithContext(context.Background(), "SELECT count(*) AS c FROM facts", QueryOptions{})
	var oe *qerr.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("want OverloadedError, got %v", err)
	}

	// Opted-in queries degrade to the approximate tier instead.
	res, err := eng.QueryWithContext(context.Background(), "SELECT count(distinct k) AS c FROM facts", QueryOptions{ApproxOK: true})
	if err != nil {
		t.Fatalf("degrade failed: %v", err)
	}
	st := res.Stats
	if !st.Approx || !st.Degraded {
		t.Fatalf("approx=%t degraded=%t, want both", st.Approx, st.Degraded)
	}
	if math.Abs(res.Cols[0].F64[0]-4000) > st.ErrorBound {
		t.Fatalf("degraded estimate %v beyond bound %v", res.Cols[0].F64[0], st.ErrorBound)
	}

	// Opted-in but unboundable shapes (min/max) still shed.
	_, err = eng.QueryWithContext(context.Background(), "SELECT max(f) AS m FROM facts", QueryOptions{ApproxOK: true})
	if !errors.As(err, &oe) {
		t.Fatalf("unboundable degrade: want OverloadedError, got %v", err)
	}

	counters := map[string]int64{}
	for k, v := range eng.approxCounters() {
		counters[k] = v
	}
	if counters["approx_degraded_total"] != 1 {
		t.Fatalf("approx_degraded_total = %d, want 1", counters["approx_degraded_total"])
	}
}

// TestExplainApproxShapes: EXPLAIN of a distinct shape is the scan plan
// every single-table aggregate gets, and the executed dispatch is the
// scan's.
func TestExplainApproxShapes(t *testing.T) {
	eng := approxEngine(t, 4000)
	plan, err := eng.Explain("SELECT count(distinct k) AS c FROM facts WHERE v < 10")
	if err != nil {
		t.Fatal(err)
	}
	if plan != "scan over facts: filter (v < 10)\n" {
		t.Fatalf("explain = %q, want the scan plan", plan)
	}
	out, err := eng.ExplainAnalyze("SELECT count(distinct k) AS c FROM facts")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "scan over facts") || !strings.Contains(out, obs.DispatchScalarScan) {
		t.Fatalf("explain analyze missing the scan plan or dispatch:\n%s", out)
	}
}

func TestDistinctOverJoinRejected(t *testing.T) {
	eng := approxEngine(t, 100)
	_, err := eng.CreateTable(storage.Schema{Name: "dim2", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, qerr2 := eng.Query("SELECT count(distinct facts.v) AS c FROM facts, dim2 WHERE facts.k = dim2.k")
	var pe *qerr.PlanError
	if !errors.As(qerr2, &pe) {
		t.Fatalf("distinct over join: want PlanError, got %v", qerr2)
	}
}

// TestApproxOptInKeepsWhereErrors: a WHERE the exact pipeline rejects —
// here a string column compared with another string column — fails
// with the same error under ApproxOK, even on a table large enough for
// the sample route: the tier accepts only what the expression compiler
// accepts.
func TestApproxOptInKeepsWhereErrors(t *testing.T) {
	eng := New(WithApproxSampleRows(64))
	tab, err := eng.CreateTable(storage.Schema{Name: "pairs", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
		{Name: "t", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ash", "birch", "cedar", "elm"}
	for i := 0; i < 2000; i++ {
		if err := tab.Append(int64(i), names[i%4], names[i/4%4]); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT count(*) AS c FROM pairs WHERE s = t"
	_, exactErr := eng.QueryWithContext(context.Background(), q, QueryOptions{})
	if exactErr == nil {
		t.Fatal("exact pipeline accepted a string-to-string comparison")
	}
	res, approxErr := eng.QueryWithContext(context.Background(), q, QueryOptions{ApproxOK: true})
	if approxErr == nil {
		t.Fatalf("ApproxOK answered (dispatch %s) where the exact pipeline fails with %v", res.Stats.Dispatch, exactErr)
	}
	if approxErr.Error() != exactErr.Error() {
		t.Fatalf("ApproxOK error %q, exact error %q", approxErr, exactErr)
	}
}

// TestApproxSampleWorkIsBounded groups a sample by an int annotation
// column. The scan codes the group column over the sampled rows alone,
// so the query allocates about as much over ten times the rows; coding
// the whole column would allocate four bytes a row.
func TestApproxSampleWorkIsBounded(t *testing.T) {
	const q = "SELECT v, count(*) AS c, sum(f) AS sf FROM facts WHERE s <> 'oak' GROUP BY v"
	alloc := func(n int) uint64 {
		eng := approxEngine(t, n, WithApproxSampleRows(256))
		best := uint64(math.MaxUint64)
		for i := 0; i < 4; i++ { // the first run builds the summary
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := eng.QueryWithContext(context.Background(), q, QueryOptions{ApproxOK: true})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Dispatch != obs.DispatchApproxSample || res.Col("v").Kind != exec.KindInt {
				t.Fatalf("%d rows: dispatch %s, v is %v; want the sample route with int groups", n, res.Stats.Dispatch, res.Col("v").Kind)
			}
			if i > 0 {
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return best
	}
	small, large := alloc(20000), alloc(200000)
	if large > 2*small {
		t.Fatalf("sample query allocated %d bytes over 20000 rows and %d over 200000", small, large)
	}
}

// TestApproxBoundsTPCH holds the approximate tier to its advertised
// bounds on TPC-H lineitem: each query runs exact and under ApproxOK,
// must take an approximate route, and every output cell must lie within
// its column's bound of the exact answer.
func TestApproxBoundsTPCH(t *testing.T) {
	eng := New()
	if _, err := tpch.Populate(eng.Catalog(), 0.01, 2026); err != nil {
		t.Fatal(err)
	}
	cell := func(c *exec.Column) float64 {
		if c.Kind == exec.KindFloat {
			return c.F64[0]
		}
		return float64(c.I64[0])
	}
	for _, sql := range []string{
		"SELECT count(distinct l_partkey) FROM lineitem",
		"SELECT count(distinct l_suppkey) FROM lineitem",
		"SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity < 25",
	} {
		exact, err := eng.QueryWithContext(context.Background(), sql, QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		approx, err := eng.QueryWithContext(context.Background(), sql, QueryOptions{ApproxOK: true})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st := approx.Stats
		if !st.Approx || !strings.HasPrefix(st.Dispatch, "approx-") {
			t.Fatalf("%s: approx=%t dispatch=%q, want an approximate route", sql, st.Approx, st.Dispatch)
		}
		if exact.NumRows != 1 || approx.NumRows != 1 || len(approx.Cols) != len(exact.Cols) {
			t.Fatalf("%s: exact %dx%d vs approx %dx%d", sql, exact.NumRows, len(exact.Cols), approx.NumRows, len(approx.Cols))
		}
		for i := range exact.Cols {
			bound := st.ErrorBound
			if i < len(st.ErrorBounds) {
				bound = st.ErrorBounds[i]
			}
			want, got := cell(exact.Cols[i]), cell(approx.Cols[i])
			if math.Abs(got-want) > bound {
				t.Errorf("%s [%s] column %d: estimate %v off exact %v beyond bound %v", sql, st.Dispatch, i, got, want, bound)
			}
		}
	}
}
