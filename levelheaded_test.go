package levelheaded_test

import (
	"context"
	"strings"
	"testing"
	"time"

	lh "repro"
)

func matrixEngine(t *testing.T) *lh.Engine {
	t.Helper()
	eng := lh.New()
	m, err := eng.CreateTable(lh.Schema{
		Name: "matrix",
		Cols: []lh.ColumnDef{
			{Name: "i", Kind: lh.Int64, Role: lh.Key, Domain: "dim"},
			{Name: "j", Kind: lh.Int64, Role: lh.Key, Domain: "dim"},
			{Name: "v", Kind: lh.Float64, Role: lh.Annotation},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := [][3]interface{}{
		{int64(0), int64(0), 1.0}, {int64(0), int64(1), 2.0},
		{int64(1), int64(1), 3.0},
	}
	for _, c := range cells {
		if err := m.Append(c[0], c[1], c[2]); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func TestPublicAPIMatMul(t *testing.T) {
	eng := matrixEngine(t)
	res, err := eng.Query(context.Background(), `SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v
		FROM matrix AS m1, matrix AS m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`)
	if err != nil {
		t.Fatal(err)
	}
	// A² for [[1 2],[0 3]] = [[1 8],[0 9]].
	want := map[[2]int64]float64{{0, 0}: 1, {0, 1}: 8, {1, 1}: 9}
	if res.NumRows != len(want) {
		t.Fatalf("rows = %d, want %d", res.NumRows, len(want))
	}
	for r := 0; r < res.NumRows; r++ {
		k := [2]int64{res.Col("i").I64[r], res.Col("j").I64[r]}
		if res.Col("v").F64[r] != want[k] {
			t.Fatalf("C[%v] = %v, want %v", k, res.Col("v").F64[r], want[k])
		}
	}
}

func TestPublicAPILoadDelimited(t *testing.T) {
	eng := lh.New()
	_, err := eng.CreateTable(lh.Schema{
		Name: "sales",
		Cols: []lh.ColumnDef{
			{Name: "id", Kind: lh.Int64, Role: lh.Key, PK: true},
			{Name: "region", Kind: lh.String, Role: lh.Annotation},
			{Name: "amount", Kind: lh.Float64, Role: lh.Annotation},
			{Name: "day", Kind: lh.Date, Role: lh.Annotation},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	csv := "1,EAST,10.5,2020-01-01\n2,WEST,4,2020-02-01\n3,EAST,2,2020-03-01\n"
	if err := eng.LoadDelimitedContext(context.Background(), "sales", strings.NewReader(csv), ','); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), `SELECT region, sum(amount) as total FROM sales
		WHERE day >= date '2020-01-15' GROUP BY region`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for r := 0; r < res.NumRows; r++ {
		got[res.Col("region").Str[r]] = res.Col("total").F64[r]
	}
	if got["EAST"] != 2 || got["WEST"] != 4 {
		t.Fatalf("groups = %v", got)
	}
	// Unknown table errors with the typed error.
	err = eng.LoadDelimitedContext(context.Background(), "missing", strings.NewReader(""), ',')
	if _, ok := err.(*lh.UnknownTableError); !ok {
		t.Fatalf("error type = %T", err)
	}
}

func TestPublicAPIExplainAndCache(t *testing.T) {
	eng := matrixEngine(t)
	plan, err := eng.Explain(`SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v
		FROM matrix AS m1, matrix AS m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hypergraph") || !strings.Contains(plan, "order=") {
		t.Fatalf("explain = %q", plan)
	}
	if _, err := eng.Query(context.Background(), `SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v
		FROM matrix AS m1, matrix AS m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`); err != nil {
		t.Fatal(err)
	}
	if eng.CacheSize() == 0 {
		t.Error("trie cache should be warm after a query")
	}
	if eng.Table("matrix") == nil || eng.Table("zzz") != nil {
		t.Error("Table lookup wrong")
	}
}

func TestPublicAPIOptions(t *testing.T) {
	for _, opts := range [][]lh.Option{
		{lh.WithThreads(2)},
		{lh.WithAttributeElimination(false)},
		{lh.WithCostOptimizer(false)},
		{lh.WithWorstOrder(true)},
		{lh.WithBLAS(false)},
		{lh.WithTrieCache(false)},
	} {
		eng := lh.New(opts...)
		m, err := eng.CreateTable(lh.Schema{
			Name: "m",
			Cols: []lh.ColumnDef{
				{Name: "i", Kind: lh.Int64, Role: lh.Key, Domain: "d"},
				{Name: "j", Kind: lh.Int64, Role: lh.Key, Domain: "d"},
				{Name: "v", Kind: lh.Float64, Role: lh.Annotation},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = m.Append(int64(0), int64(1), 2.0)
		_ = m.Append(int64(1), int64(0), 3.0)
		res, err := eng.Query(context.Background(), `SELECT m1.i, sum(m1.v * m2.v) AS v
			FROM m AS m1, m AS m2 WHERE m1.j = m2.i GROUP BY m1.i`)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows != 2 {
			t.Fatalf("opts %T: rows = %d", opts[0], res.NumRows)
		}
	}
}

func TestPublicAPIQueryWith(t *testing.T) {
	eng := matrixEngine(t)
	res, err := eng.Query(context.Background(), `SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v
		FROM matrix AS m1, matrix AS m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`,
		lh.WithOptions(lh.QueryOptions{WorstOrder: true}))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 3 {
		t.Fatalf("worst-order rows = %d", res.NumRows)
	}
}

func TestPublicAPIQueryOptions(t *testing.T) {
	eng := matrixEngine(t)
	ctx := context.Background()
	sql := `SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v
		FROM matrix AS m1, matrix AS m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`
	for name, opts := range map[string][]lh.QueryOption{
		"none":      nil,
		"worst":     {lh.WithWorstCaseOrder()},
		"deadline":  {lh.WithDeadline(time.Minute)},
		"threads":   {lh.WithThreadCap(1)},
		"budget":    {lh.WithMemBudget(1 << 30)},
		"approx":    {lh.WithApproxOK()},
		"escape":    {lh.WithOptions(lh.QueryOptions{WorstOrder: true})},
		"composite": {lh.WithDeadline(time.Minute), lh.WithThreadCap(2)},
	} {
		res, err := eng.Query(ctx, sql, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.NumRows != 3 {
			t.Fatalf("%s: rows = %d, want 3", name, res.NumRows)
		}
	}
	if _, err := eng.Query(ctx, sql, lh.WithDeadline(time.Nanosecond)); err == nil {
		t.Fatal("nanosecond deadline should cancel the query")
	}
}

func TestPublicAPIAppendAfterQuery(t *testing.T) {
	eng := matrixEngine(t)
	ctx := context.Background()
	const count = `SELECT count(*) as n FROM matrix`
	res, err := eng.Query(ctx, count)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Col("n").F64[0]; got != 3 {
		t.Fatalf("base count = %v", got)
	}
	// Append to the now-frozen table: the row must be visible to the
	// next query without any explicit Compact.
	if err := eng.Table("matrix").Append(int64(5), int64(5), 7.0); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(ctx, count)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Col("n").F64[0]; got != 4 {
		t.Fatalf("count after append = %v, want 4", got)
	}
	if err := eng.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(ctx, count)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Col("n").F64[0]; got != 4 {
		t.Fatalf("count after compact = %v, want 4", got)
	}
	st := eng.TablesStatus()
	if len(st) != 1 || st[0].DeltaRows != 0 || st[0].Rows != 4 {
		t.Fatalf("status after compact = %+v", st)
	}
}
