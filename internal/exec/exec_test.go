package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/costopt"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// run parses, plans, optimizes and executes a query.
func run(t *testing.T, cat *storage.Catalog, sql string, opts Options, coptOpts costopt.Options) *Result {
	t.Helper()
	res, err := runErr(cat, sql, opts, coptOpts)
	if err != nil {
		t.Fatalf("run(%s): %v", sql, err)
	}
	return res
}

func runErr(cat *storage.Catalog, sql string, opts Options, coptOpts costopt.Options) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := planner.Build(q, cat)
	if err != nil {
		return nil, err
	}
	ch, err := costopt.Choose(p, coptOpts)
	if err != nil {
		return nil, err
	}
	return Run(p, ch, cat, opts)
}

// rowMap extracts result rows keyed by the first column's string form.
func rowMap(t *testing.T, r *Result, keyCol string) map[string][]float64 {
	t.Helper()
	kc := r.Col(keyCol)
	if kc == nil {
		t.Fatalf("missing column %s", keyCol)
	}
	out := map[string][]float64{}
	for i := 0; i < r.NumRows; i++ {
		var k string
		switch kc.Kind {
		case KindString:
			k = kc.Str[i]
		case KindInt:
			k = fmt.Sprint(kc.I64[i])
		default:
			k = fmt.Sprint(kc.F64[i])
		}
		var vals []float64
		for _, c := range r.Cols {
			if c == kc {
				continue
			}
			vals = append(vals, c.Float(i))
		}
		out[k] = vals
	}
	return out
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// --- fixtures -------------------------------------------------------

// sparseMatrixCatalog builds a random sparse matrix table plus a dense
// reference of it.
func sparseMatrixCatalog(t *testing.T, n, nnz int, seed int64) (*storage.Catalog, []float64) {
	t.Helper()
	cat := storage.NewCatalog()
	m, err := cat.Create(storage.Schema{Name: "m", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	dense := make([]float64, n*n)
	used := map[int]bool{}
	for k := 0; k < nnz; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if used[i*n+j] {
			continue
		}
		used[i*n+j] = true
		v := float64(r.Intn(9) + 1)
		dense[i*n+j] = v
		if err := m.Append(int64(i), int64(j), v); err != nil {
			t.Fatal(err)
		}
	}
	// Guarantee the full dimension domain exists by adding the diagonal
	// corners if absent.
	for _, d := range []int{0, n - 1} {
		if !used[d*n+d] {
			used[d*n+d] = true
			dense[d*n+d] = 1
			if err := m.Append(int64(d), int64(d), 1.0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat, dense
}

const matmulSQL = `SELECT m1.i, m2.j, sum(m1.v * m2.v) as v
	FROM m as m1, m as m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`

func checkMatmul(t *testing.T, res *Result, dense []float64, n int) {
	t.Helper()
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if dense[i*n+k] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				want[i*n+j] += dense[i*n+k] * dense[k*n+j]
			}
		}
	}
	got := make([]float64, n*n)
	ic, jc, vc := res.Col("i"), res.Col("j"), res.Col("v")
	if ic == nil || jc == nil || vc == nil {
		t.Fatalf("missing columns: %v", res.Cols)
	}
	for r := 0; r < res.NumRows; r++ {
		got[ic.I64[r]*int64(n)+jc.I64[r]] += vc.F64[r]
	}
	for x := range want {
		if !approx(got[x], want[x]) {
			t.Fatalf("matmul[%d,%d] = %v, want %v", x/n, x%n, got[x], want[x])
		}
	}
}

func TestSparseMatMul(t *testing.T) {
	n := 30
	cat, dense := sparseMatrixCatalog(t, n, 200, 1)
	res := run(t, cat, matmulSQL, Options{}, costopt.Options{})
	checkMatmul(t, res, dense, n)
}

func TestSparseMatMulAllOrdersAgree(t *testing.T) {
	n := 12
	cat, dense := sparseMatrixCatalog(t, n, 60, 2)
	// Discover the vertex names from the plan.
	q, _ := sqlparse.Parse(matmulSQL)
	p, err := planner.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	bag := p.GHD.Root.Bag
	perms := [][]string{}
	var rec func(cur, rest []string)
	rec = func(cur, rest []string) {
		if len(rest) == 0 {
			perms = append(perms, append([]string(nil), cur...))
			return
		}
		for i := range rest {
			next := append(append([]string(nil), rest[:i]...), rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, bag)
	ran := 0
	for _, perm := range perms {
		res, err := runErr(cat, matmulSQL, Options{}, costopt.Options{Forced: perm})
		if err != nil {
			// Orders violating materialized-first are rejected by exec;
			// that is expected for some permutations.
			continue
		}
		checkMatmul(t, res, dense, n)
		ran++
	}
	if ran < 2 {
		t.Fatalf("only %d forced orders executed", ran)
	}
}

func TestSparseMatMulRelaxedVsWorst(t *testing.T) {
	n := 20
	cat, dense := sparseMatrixCatalog(t, n, 120, 3)
	best := run(t, cat, matmulSQL, Options{}, costopt.Options{})
	worst := run(t, cat, matmulSQL, Options{}, costopt.Options{PickWorst: true})
	checkMatmul(t, best, dense, n)
	checkMatmul(t, worst, dense, n)
}

func TestSparseMatVec(t *testing.T) {
	n := 25
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
	r := rand.New(rand.NewSource(4))
	dense := make([]float64, n*n)
	for c := 0; c < 120; c++ {
		i, j := r.Intn(n), r.Intn(n)
		if dense[i*n+j] != 0 {
			continue
		}
		v := r.Float64()
		dense[i*n+j] = v
		_ = m.Append(int64(i), int64(j), v)
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[k] = r.Float64()
		_ = vec.Append(int64(k), x[k])
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	res := run(t, cat, `SELECT m.i, sum(m.v * vec.x) as y FROM m, vec WHERE m.j = vec.k GROUP BY m.i`,
		Options{}, costopt.Options{})
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i] += dense[i*n+j] * x[j]
		}
	}
	got := make([]float64, n)
	for rr := 0; rr < res.NumRows; rr++ {
		got[res.Col("i").I64[rr]] = res.Col("y").F64[rr]
	}
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// denseMatrixCatalog builds a full n×n matrix.
func denseMatrixCatalog(t *testing.T, n int, seed int64) (*storage.Catalog, []float64) {
	t.Helper()
	cat := storage.NewCatalog()
	m, _ := cat.Create(storage.Schema{Name: "m", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	r := rand.New(rand.NewSource(seed))
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dense[i*n+j] = r.Float64()
			_ = m.Append(int64(i), int64(j), dense[i*n+j])
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat, dense
}

func TestDenseMatMulBLASDispatchMatchesWCOJ(t *testing.T) {
	n := 16
	cat, dense := denseMatrixCatalog(t, n, 5)
	blasRes := run(t, cat, matmulSQL, Options{}, costopt.Options{})
	wcojRes := run(t, cat, matmulSQL, Options{NoBLAS: true}, costopt.Options{})
	checkMatmul(t, blasRes, dense, n)
	checkMatmul(t, wcojRes, dense, n)
	if blasRes.NumRows != n*n {
		t.Fatalf("dense output rows = %d, want %d", blasRes.NumRows, n*n)
	}
}

func TestDenseMatVecBLASDispatch(t *testing.T) {
	n := 12
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
	r := rand.New(rand.NewSource(6))
	a := make([]float64, n*n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = r.Float64()
		_ = vec.Append(int64(i), x[i])
		for j := 0; j < n; j++ {
			a[i*n+j] = r.Float64()
			_ = m.Append(int64(i), int64(j), a[i*n+j])
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT m.i, sum(m.v * vec.x) as y FROM m, vec WHERE m.j = vec.k GROUP BY m.i`
	res := run(t, cat, sql, Options{}, costopt.Options{})
	res2 := run(t, cat, sql, Options{NoBLAS: true}, costopt.Options{})
	for _, rr := range []*Result{res, res2} {
		got := make([]float64, n)
		for i := 0; i < rr.NumRows; i++ {
			got[rr.Col("i").I64[i]] = rr.Col("y").F64[i]
		}
		for i := 0; i < n; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				want += a[i*n+j] * x[j]
			}
			if !approx(got[i], want) {
				t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
			}
		}
	}
}

// tpchMiniCatalog builds a tiny TPC-H-shaped database with enough rows
// to exercise filters, duplicates and multi-node GHDs.
func tpchMiniCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	region, _ := cat.Create(storage.Schema{Name: "region", Cols: []storage.ColumnDef{
		{Name: "r_regionkey", Kind: storage.Int64, Role: storage.Key, Domain: "regionkey", PK: true},
		{Name: "r_name", Kind: storage.String, Role: storage.Annotation},
	}})
	nation, _ := cat.Create(storage.Schema{Name: "nation", Cols: []storage.ColumnDef{
		{Name: "n_nationkey", Kind: storage.Int64, Role: storage.Key, Domain: "nationkey", PK: true},
		{Name: "n_regionkey", Kind: storage.Int64, Role: storage.Key, Domain: "regionkey"},
		{Name: "n_name", Kind: storage.String, Role: storage.Annotation},
	}})
	customer, _ := cat.Create(storage.Schema{Name: "customer", Cols: []storage.ColumnDef{
		{Name: "c_custkey", Kind: storage.Int64, Role: storage.Key, Domain: "custkey", PK: true},
		{Name: "c_nationkey", Kind: storage.Int64, Role: storage.Key, Domain: "nationkey"},
	}})
	orders, _ := cat.Create(storage.Schema{Name: "orders", Cols: []storage.ColumnDef{
		{Name: "o_orderkey", Kind: storage.Int64, Role: storage.Key, Domain: "orderkey", PK: true},
		{Name: "o_custkey", Kind: storage.Int64, Role: storage.Key, Domain: "custkey"},
		{Name: "o_orderdate", Kind: storage.Date, Role: storage.Annotation},
	}})
	lineitem, _ := cat.Create(storage.Schema{Name: "lineitem", Cols: []storage.ColumnDef{
		{Name: "l_orderkey", Kind: storage.Int64, Role: storage.Key, Domain: "orderkey"},
		{Name: "l_suppkey", Kind: storage.Int64, Role: storage.Key, Domain: "suppkey"},
		{Name: "l_extendedprice", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "l_discount", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "l_quantity", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "l_returnflag", Kind: storage.String, Role: storage.Annotation},
		{Name: "l_linestatus", Kind: storage.String, Role: storage.Annotation},
		{Name: "l_shipdate", Kind: storage.Date, Role: storage.Annotation},
	}})
	supplier, _ := cat.Create(storage.Schema{Name: "supplier", Cols: []storage.ColumnDef{
		{Name: "s_suppkey", Kind: storage.Int64, Role: storage.Key, Domain: "suppkey", PK: true},
		{Name: "s_nationkey", Kind: storage.Int64, Role: storage.Key, Domain: "nationkey"},
	}})

	_ = region.Append(int64(0), "ASIA")
	_ = region.Append(int64(1), "AMERICA")
	nations := []struct {
		k, r int64
		name string
	}{{0, 0, "JAPAN"}, {1, 0, "CHINA"}, {2, 1, "BRAZIL"}, {3, 1, "CANADA"}}
	for _, n := range nations {
		_ = nation.Append(n.k, n.r, n.name)
	}
	// 6 customers spread over nations.
	for ck := int64(0); ck < 6; ck++ {
		_ = customer.Append(ck, ck%4)
	}
	// 10 suppliers.
	for sk := int64(0); sk < 10; sk++ {
		_ = supplier.Append(sk, sk%4)
	}
	// 12 orders, dates alternating inside/outside 1994.
	for ok := int64(0); ok < 12; ok++ {
		date := "1994-03-01"
		if ok%3 == 2 {
			date = "1995-07-01"
		}
		_ = orders.Append(ok, ok%6, date)
	}
	// 40 lineitems with duplicate (orderkey, suppkey) pairs.
	r := rand.New(rand.NewSource(7))
	flags := []string{"R", "N", "A"}
	status := []string{"F", "O"}
	for i := 0; i < 40; i++ {
		ok := int64(r.Intn(12))
		sk := int64(r.Intn(10))
		price := float64(r.Intn(900) + 100)
		disc := float64(r.Intn(10)) / 100
		qty := float64(r.Intn(45) + 5)
		ship := "1994-06-01"
		if r.Intn(2) == 0 {
			ship = "1996-02-01"
		}
		_ = lineitem.Append(ok, sk, price, disc, qty, flags[r.Intn(3)], status[r.Intn(2)], ship)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// refQ5 computes the Q5 answer by brute force over the raw tables.
func refQ5(t *testing.T, cat *storage.Catalog) map[string][]float64 {
	t.Helper()
	region := cat.Table("region")
	nation := cat.Table("nation")
	customer := cat.Table("customer")
	orders := cat.Table("orders")
	lineitem := cat.Table("lineitem")
	supplier := cat.Table("supplier")
	lo, _ := sqlparse.ParseDate("1994-01-01")
	hi, _ := sqlparse.ParseDate("1995-01-01")
	want := map[string][]float64{}
	for li := 0; li < lineitem.NumRows; li++ {
		lok := lineitem.Col("l_orderkey").Ints[li]
		lsk := lineitem.Col("l_suppkey").Ints[li]
		rev := lineitem.Col("l_extendedprice").Floats[li] * (1 - lineitem.Col("l_discount").Floats[li])
		for oi := 0; oi < orders.NumRows; oi++ {
			if orders.Col("o_orderkey").Ints[oi] != lok {
				continue
			}
			od := orders.Col("o_orderdate").Ints[oi]
			if od < int64(lo) || od >= int64(hi) {
				continue
			}
			ock := orders.Col("o_custkey").Ints[oi]
			for ci := 0; ci < customer.NumRows; ci++ {
				if customer.Col("c_custkey").Ints[ci] != ock {
					continue
				}
				cnk := customer.Col("c_nationkey").Ints[ci]
				for si := 0; si < supplier.NumRows; si++ {
					if supplier.Col("s_suppkey").Ints[si] != lsk {
						continue
					}
					if supplier.Col("s_nationkey").Ints[si] != cnk {
						continue
					}
					for ni := 0; ni < nation.NumRows; ni++ {
						if nation.Col("n_nationkey").Ints[ni] != cnk {
							continue
						}
						nrk := nation.Col("n_regionkey").Ints[ni]
						for ri := 0; ri < region.NumRows; ri++ {
							if region.Col("r_regionkey").Ints[ri] != nrk {
								continue
							}
							if region.Col("r_name").Str(ri) != "ASIA" {
								continue
							}
							name := nation.Col("n_name").Str(ni)
							if want[name] == nil {
								want[name] = []float64{0}
							}
							want[name][0] += rev
						}
					}
				}
			}
		}
	}
	return want
}

const q5SQL = `SELECT n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
	FROM customer, orders, lineitem, supplier, nation, region
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
	AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
	AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	AND r_name = 'ASIA' AND o_orderdate >= date '1994-01-01'
	AND o_orderdate < date '1995-01-01'
	GROUP BY n_name`

func TestQ5MultiNodeGHD(t *testing.T) {
	cat := tpchMiniCatalog(t)
	res := run(t, cat, q5SQL, Options{}, costopt.Options{})
	got := rowMap(t, res, "n_name")
	want := refQ5(t, cat)
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || !approx(g[0], w[0]) {
			t.Fatalf("revenue[%s] = %v, want %v", k, g, w)
		}
	}
	// Also exercise the disabled-optimizer (EmptyHeaded-ish) path.
	res2 := run(t, cat, q5SQL, Options{}, costopt.Options{Disabled: true})
	got2 := rowMap(t, res2, "n_name")
	for k, w := range want {
		if !approx(got2[k][0], w[0]) {
			t.Fatalf("disabled optimizer: revenue[%s] = %v, want %v", k, got2[k], w)
		}
	}
}

func TestQ1PseudoGroupBy(t *testing.T) {
	cat := tpchMiniCatalog(t)
	res := run(t, cat, `SELECT l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
		sum(l_extendedprice * (1 - l_discount)) as sum_disc, count(*) as cnt, avg(l_quantity) as avg_qty
		FROM lineitem WHERE l_shipdate <= date '1995-01-01' GROUP BY l_returnflag, l_linestatus`,
		Options{}, costopt.Options{})
	// Brute force.
	lineitem := cat.Table("lineitem")
	cut, _ := sqlparse.ParseDate("1995-01-01")
	type acc struct{ qty, disc, cnt float64 }
	want := map[string]*acc{}
	for i := 0; i < lineitem.NumRows; i++ {
		if lineitem.Col("l_shipdate").Ints[i] > int64(cut) {
			continue
		}
		k := lineitem.Col("l_returnflag").Str(i) + "|" + lineitem.Col("l_linestatus").Str(i)
		a := want[k]
		if a == nil {
			a = &acc{}
			want[k] = a
		}
		a.qty += lineitem.Col("l_quantity").Floats[i]
		a.disc += lineitem.Col("l_extendedprice").Floats[i] * (1 - lineitem.Col("l_discount").Floats[i])
		a.cnt++
	}
	if res.NumRows != len(want) {
		t.Fatalf("groups = %d, want %d", res.NumRows, len(want))
	}
	for i := 0; i < res.NumRows; i++ {
		k := res.Col("l_returnflag").Str[i] + "|" + res.Col("l_linestatus").Str[i]
		a := want[k]
		if a == nil {
			t.Fatalf("unexpected group %s", k)
		}
		if !approx(res.Col("sum_qty").F64[i], a.qty) ||
			!approx(res.Col("sum_disc").F64[i], a.disc) ||
			!approx(res.Col("cnt").F64[i], a.cnt) ||
			!approx(res.Col("avg_qty").F64[i], a.qty/a.cnt) {
			t.Fatalf("group %s = %v/%v/%v/%v, want %+v", k,
				res.Col("sum_qty").F64[i], res.Col("sum_disc").F64[i],
				res.Col("cnt").F64[i], res.Col("avg_qty").F64[i], a)
		}
	}
}

func TestScalarScanQ6(t *testing.T) {
	cat := tpchMiniCatalog(t)
	res := run(t, cat, `SELECT sum(l_extendedprice * l_discount) as revenue, count(*) as c
		FROM lineitem WHERE l_quantity < 30 AND l_shipdate >= date '1994-01-01'`,
		Options{}, costopt.Options{})
	lineitem := cat.Table("lineitem")
	lo, _ := sqlparse.ParseDate("1994-01-01")
	var wantRev, wantCnt float64
	for i := 0; i < lineitem.NumRows; i++ {
		if lineitem.Col("l_quantity").Floats[i] >= 30 || lineitem.Col("l_shipdate").Ints[i] < int64(lo) {
			continue
		}
		wantRev += lineitem.Col("l_extendedprice").Floats[i] * lineitem.Col("l_discount").Floats[i]
		wantCnt++
	}
	if res.NumRows != 1 || !approx(res.Col("revenue").F64[0], wantRev) || !approx(res.Col("c").F64[0], wantCnt) {
		t.Fatalf("q6 = %v/%v, want %v/%v", res.Col("revenue").F64[0], res.Col("c").F64[0], wantRev, wantCnt)
	}
}

func TestGroupMetaOrderdate(t *testing.T) {
	cat := tpchMiniCatalog(t)
	// Q3-like: group by orderkey plus a metadata date column.
	res := run(t, cat, `SELECT l_orderkey, o_orderdate, sum(l_extendedprice * (1 - l_discount)) as revenue
		FROM orders, lineitem WHERE o_orderkey = l_orderkey GROUP BY l_orderkey, o_orderdate`,
		Options{}, costopt.Options{})
	orders, lineitem := cat.Table("orders"), cat.Table("lineitem")
	want := map[int64]float64{}
	dates := map[int64]string{}
	for i := 0; i < orders.NumRows; i++ {
		dates[orders.Col("o_orderkey").Ints[i]] = sqlparse.DaysToDate(int32(orders.Col("o_orderdate").Ints[i]))
	}
	for i := 0; i < lineitem.NumRows; i++ {
		ok := lineitem.Col("l_orderkey").Ints[i]
		if _, has := dates[ok]; has {
			want[ok] += lineitem.Col("l_extendedprice").Floats[i] * (1 - lineitem.Col("l_discount").Floats[i])
		}
	}
	if res.NumRows != len(want) {
		t.Fatalf("rows = %d, want %d", res.NumRows, len(want))
	}
	for i := 0; i < res.NumRows; i++ {
		ok := res.Col("l_orderkey").I64[i]
		if !approx(res.Col("revenue").F64[i], want[ok]) {
			t.Fatalf("revenue[%d] = %v, want %v", ok, res.Col("revenue").F64[i], want[ok])
		}
		if res.Col("o_orderdate").Str[i] != dates[ok] {
			t.Fatalf("date[%d] = %s, want %s", ok, res.Col("o_orderdate").Str[i], dates[ok])
		}
	}
}

func TestExtractYearGroupingMergesGroups(t *testing.T) {
	cat := tpchMiniCatalog(t)
	// Orders span 1994 and 1995: grouping by extract(year) must merge
	// orderkeys into two groups.
	res := run(t, cat, `SELECT extract(year from o_orderdate) as o_year, count(*) as c
		FROM orders, lineitem WHERE o_orderkey = l_orderkey GROUP BY o_year`,
		Options{}, costopt.Options{})
	if res.NumRows != 2 {
		t.Fatalf("years = %d, want 2", res.NumRows)
	}
	orders, lineitem := cat.Table("orders"), cat.Table("lineitem")
	want := map[float64]float64{}
	for i := 0; i < lineitem.NumRows; i++ {
		lok := lineitem.Col("l_orderkey").Ints[i]
		for j := 0; j < orders.NumRows; j++ {
			if orders.Col("o_orderkey").Ints[j] == lok {
				y := float64(sqlparse.DateYear(int32(orders.Col("o_orderdate").Ints[j])))
				want[y]++
			}
		}
	}
	for i := 0; i < res.NumRows; i++ {
		y := res.Col("o_year").F64[i]
		if !approx(res.Col("c").F64[i], want[y]) {
			t.Fatalf("count[%v] = %v, want %v", y, res.Col("c").F64[i], want[y])
		}
	}
}

func TestMinMaxAggregates(t *testing.T) {
	cat := tpchMiniCatalog(t)
	res := run(t, cat, `SELECT l_returnflag, min(l_quantity) as mn, max(l_quantity) as mx
		FROM lineitem GROUP BY l_returnflag`, Options{}, costopt.Options{})
	lineitem := cat.Table("lineitem")
	type mm struct{ mn, mx float64 }
	want := map[string]*mm{}
	for i := 0; i < lineitem.NumRows; i++ {
		k := lineitem.Col("l_returnflag").Str(i)
		q := lineitem.Col("l_quantity").Floats[i]
		a := want[k]
		if a == nil {
			want[k] = &mm{q, q}
			continue
		}
		a.mn = math.Min(a.mn, q)
		a.mx = math.Max(a.mx, q)
	}
	for i := 0; i < res.NumRows; i++ {
		k := res.Col("l_returnflag").Str[i]
		if !approx(res.Col("mn").F64[i], want[k].mn) || !approx(res.Col("mx").F64[i], want[k].mx) {
			t.Fatalf("minmax[%s] = %v/%v, want %+v", k, res.Col("mn").F64[i], res.Col("mx").F64[i], want[k])
		}
	}
}

func TestCountStarWithDuplicates(t *testing.T) {
	cat := tpchMiniCatalog(t)
	// count(*) over a join where lineitem has duplicate (ok, sk) pairs:
	// the multiplicity machinery must recover the true row count.
	res := run(t, cat, `SELECT count(*) as c FROM orders, lineitem WHERE o_orderkey = l_orderkey`,
		Options{}, costopt.Options{})
	orders, lineitem := cat.Table("orders"), cat.Table("lineitem")
	okSet := map[int64]bool{}
	for i := 0; i < orders.NumRows; i++ {
		okSet[orders.Col("o_orderkey").Ints[i]] = true
	}
	want := 0.0
	for i := 0; i < lineitem.NumRows; i++ {
		if okSet[lineitem.Col("l_orderkey").Ints[i]] {
			want++
		}
	}
	if !approx(res.Col("c").F64[0], want) {
		t.Fatalf("count = %v, want %v", res.Col("c").F64[0], want)
	}
}

func TestThreadCountsAgree(t *testing.T) {
	n := 24
	cat, dense := sparseMatrixCatalog(t, n, 150, 8)
	for _, threads := range []int{1, 2, 7} {
		res := run(t, cat, matmulSQL, Options{Threads: threads}, costopt.Options{})
		checkMatmul(t, res, dense, n)
	}
}

func TestTrieCacheReuse(t *testing.T) {
	n := 16
	cat, dense := sparseMatrixCatalog(t, n, 80, 9)
	cache := NewTrieCache()
	res1 := run(t, cat, matmulSQL, Options{Cache: cache}, costopt.Options{})
	if cache.Len() == 0 {
		t.Fatal("cache should hold the matrix trie")
	}
	res2 := run(t, cat, matmulSQL, Options{Cache: cache}, costopt.Options{})
	checkMatmul(t, res1, dense, n)
	checkMatmul(t, res2, dense, n)
}

// TestSelfJoinSharesOneTrie: under the relaxed order [i, k, j] both
// aliases of an SMM self-join key the matrix on its columns (i, j) with
// the same leaf, so they share one cached trie, and the answer stays
// bit-identical to an uncached run.
func TestSelfJoinSharesOneTrie(t *testing.T) {
	n := 16
	cat, dense := sparseMatrixCatalog(t, n, 80, 9)
	q, err := sqlparse.Parse(matmulSQL)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	vertex := func(alias, col string) string {
		for _, r := range p.Rels {
			for v, c := range r.VertexCol {
				if r.Alias == alias && c == col {
					return v
				}
			}
		}
		t.Fatalf("no vertex for %s.%s", alias, col)
		return ""
	}
	copts := costopt.Options{Forced: []string{vertex("m1", "i"), vertex("m1", "j"), vertex("m2", "j")}, ForcedRelaxed: true}
	want := run(t, cat, matmulSQL, Options{}, copts)
	checkMatmul(t, want, dense, n)
	cache := NewTrieCache()
	for i := 0; i < 2; i++ {
		st := &obs.QueryStats{}
		got := run(t, cat, matmulSQL, Options{Cache: cache, Stats: st}, copts)
		assertResultsEqual(t, matmulSQL, want, got)
		if cache.Len() != 1 || st.TriesBuilt != 1-i {
			t.Fatalf("run %d: cache holds %d tries after %d builds, want 1 after %d", i, cache.Len(), st.TriesBuilt, 1-i)
		}
	}
}

func TestNoAttrElimStillCorrect(t *testing.T) {
	cat := tpchMiniCatalog(t)
	want := refQ5(t, cat)
	res := run(t, cat, q5SQL, Options{NoAttrElim: true}, costopt.Options{})
	got := rowMap(t, res, "n_name")
	for k, w := range want {
		if !approx(got[k][0], w[0]) {
			t.Fatalf("NoAttrElim revenue[%s] = %v, want %v", k, got[k], w)
		}
	}
}

func TestCaseIndicatorAcrossRelations(t *testing.T) {
	cat := tpchMiniCatalog(t)
	// Q8-style market-share: CASE over nation gates lineitem revenue.
	res := run(t, cat, `SELECT n_name,
		sum(case when n_name = 'JAPAN' then l_extendedprice * (1 - l_discount) else 0 end) as jp,
		sum(l_extendedprice * (1 - l_discount)) as total
		FROM lineitem, supplier, nation
		WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey
		GROUP BY n_name`, Options{}, costopt.Options{})
	for i := 0; i < res.NumRows; i++ {
		name := res.Col("n_name").Str[i]
		jp := res.Col("jp").F64[i]
		total := res.Col("total").F64[i]
		if name == "JAPAN" {
			if !approx(jp, total) {
				t.Fatalf("JAPAN gated sum %v != total %v", jp, total)
			}
		} else if jp != 0 {
			t.Fatalf("%s gated sum = %v, want 0", name, jp)
		}
	}
}

func TestGroupOnlyNoAggregates(t *testing.T) {
	cat := tpchMiniCatalog(t)
	res := run(t, cat, `SELECT n_name FROM nation, region
		WHERE n_regionkey = r_regionkey AND r_name = 'ASIA' GROUP BY n_name`,
		Options{}, costopt.Options{})
	var got []string
	for i := 0; i < res.NumRows; i++ {
		got = append(got, res.Col("n_name").Str[i])
	}
	sort.Strings(got)
	want := []string{"CHINA", "JAPAN"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("asian nations = %v, want %v", got, want)
	}
}
