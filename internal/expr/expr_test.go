package expr

import (
	"math"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// fixture builds a small lineitem-like table and freezes the catalog.
func fixture(t *testing.T) *Binding {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create(storage.Schema{
		Name: "l",
		Cols: []storage.ColumnDef{
			{Name: "l_orderkey", Kind: storage.Int64, Role: storage.Key, Domain: "orderkey"},
			{Name: "l_quantity", Kind: storage.Float64, Role: storage.Annotation},
			{Name: "l_extendedprice", Kind: storage.Float64, Role: storage.Annotation},
			{Name: "l_discount", Kind: storage.Float64, Role: storage.Annotation},
			{Name: "l_shipdate", Kind: storage.Date, Role: storage.Annotation},
			{Name: "l_returnflag", Kind: storage.String, Role: storage.Annotation},
			{Name: "l_comment", Kind: storage.String, Role: storage.Annotation},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		ok    int64
		qty   float64
		price float64
		disc  float64
		ship  string
		flag  string
		com   string
	}{
		{1, 10, 100, 0.05, "1994-03-01", "R", "the green grass"},
		{1, 20, 200, 0.10, "1995-06-15", "N", "red metal"},
		{2, 24, 300, 0.06, "1994-12-31", "A", "greenish hue"},
		{3, 5, 50, 0.00, "1996-01-01", "R", "plain"},
	}
	for _, r := range rows {
		if err := tab.Append(r.ok, r.qty, r.price, r.disc, r.ship, r.flag, r.com); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return &Binding{Alias: "l", Table: tab}
}

func whereOf(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	q, err := sqlparse.Parse("SELECT x FROM l WHERE " + src)
	if err != nil {
		t.Fatal(err)
	}
	return q.Where
}

func selectOf(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	q, err := sqlparse.Parse("SELECT " + src + " FROM l")
	if err != nil {
		t.Fatal(err)
	}
	return q.Select[0].Expr
}

func evalFilter(t *testing.T, b *Binding, src string) []bool {
	t.Helper()
	p, err := CompilePred(whereOf(t, src), b)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return selected(p, b.Table.NumRows)
}

// selected runs a compiled predicate block by block over n rows and
// reports, per row, whether it survived.
func selected(p *Pred, n int) []bool {
	sel := p.Bind()
	out := make([]bool, n)
	ids := make([]int32, BlockSize)
	for lo := 0; lo < n; lo += BlockSize {
		for _, r := range sel(Rows(ids, lo, min(lo+BlockSize, n)), ids) {
			out[r] = true
		}
	}
	return out
}

func eq(t *testing.T, got, want []bool, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestNumericComparisons(t *testing.T) {
	b := fixture(t)
	eq(t, evalFilter(t, b, "l_quantity < 24"), []bool{true, true, false, true}, "<")
	eq(t, evalFilter(t, b, "l_quantity >= 20"), []bool{false, true, true, false}, ">=")
	eq(t, evalFilter(t, b, "l_quantity = 5"), []bool{false, false, false, true}, "=")
	eq(t, evalFilter(t, b, "l_quantity <> 5"), []bool{true, true, true, false}, "<>")
}

func TestDateComparisons(t *testing.T) {
	b := fixture(t)
	eq(t, evalFilter(t, b, "l_shipdate >= date '1994-01-01' and l_shipdate < date '1994-01-01' + interval '1' year"),
		[]bool{true, false, true, false}, "date range")
}

func TestBetween(t *testing.T) {
	b := fixture(t)
	eq(t, evalFilter(t, b, "l_discount between 0.06 - 0.01 and 0.06 + 0.01"),
		[]bool{true, false, true, false}, "between")
	eq(t, evalFilter(t, b, "l_quantity not between 6 and 30"),
		[]bool{false, false, false, true}, "not between")
}

func TestStringPredicates(t *testing.T) {
	b := fixture(t)
	eq(t, evalFilter(t, b, "l_returnflag = 'R'"), []bool{true, false, false, true}, "str =")
	eq(t, evalFilter(t, b, "'R' = l_returnflag"), []bool{true, false, false, true}, "flipped str =")
	eq(t, evalFilter(t, b, "l_returnflag <> 'R'"), []bool{false, true, true, false}, "str <>")
	eq(t, evalFilter(t, b, "l_returnflag >= 'N'"), []bool{true, true, false, true}, "str >=")
	eq(t, evalFilter(t, b, "'N' >= l_returnflag"), []bool{false, true, true, false}, "str flipped >=")
}

func TestLike(t *testing.T) {
	b := fixture(t)
	eq(t, evalFilter(t, b, "l_comment like '%green%'"), []bool{true, false, true, false}, "contains")
	eq(t, evalFilter(t, b, "l_comment not like '%green%'"), []bool{false, true, false, true}, "not contains")
	eq(t, evalFilter(t, b, "l_comment like 'red%'"), []bool{false, true, false, false}, "prefix")
	eq(t, evalFilter(t, b, "l_comment like '%metal'"), []bool{false, true, false, false}, "suffix")
	eq(t, evalFilter(t, b, "l_comment like 'plain'"), []bool{false, false, false, true}, "exact")
	eq(t, evalFilter(t, b, "l_comment like 'the_green%'"), []bool{true, false, false, false}, "underscore")
}

func TestLikeMatchGeneral(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"abcdef", "a%c%f", true},
		{"abcdef", "a%x%f", false},
		{"abc", "___", true},
		{"abc", "__", false},
		{"", "%", true},
		{"", "_", false},
		{"green grass", "%gr%gr%", true},
		{"aaa", "%a", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestInList(t *testing.T) {
	b := fixture(t)
	eq(t, evalFilter(t, b, "l_quantity in (5, 24)"), []bool{false, false, true, true}, "num in")
	eq(t, evalFilter(t, b, "l_returnflag in ('R', 'A')"), []bool{true, false, true, true}, "str in")
	eq(t, evalFilter(t, b, "l_returnflag not in ('R', 'A')"), []bool{false, true, false, false}, "str not in")
}

func TestAndOrNot(t *testing.T) {
	b := fixture(t)
	eq(t, evalFilter(t, b, "l_quantity > 5 and l_returnflag = 'R'"), []bool{true, false, false, false}, "and")
	eq(t, evalFilter(t, b, "l_quantity = 5 or l_returnflag = 'N'"), []bool{false, true, false, true}, "or")
	eq(t, evalFilter(t, b, "not l_returnflag = 'R'"), []bool{false, true, true, false}, "not")
}

// evalValue compiles a numeric SELECT expression and evaluates it at
// every row of the binding's table, one block at a time.
func evalValue(t *testing.T, b *Binding, src string) []float64 {
	t.Helper()
	n, err := CompileNum(selectOf(t, src), b)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	vec := n.Bind()
	rows := b.Table.NumRows
	out := make([]float64, rows)
	ids := make([]int32, BlockSize)
	for lo := 0; lo < rows; lo += BlockSize {
		hi := min(lo+BlockSize, rows)
		vec(Rows(ids, lo, hi), out[lo:hi])
	}
	return out
}

func eqVals(t *testing.T, got, want []float64, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestValueExpressions(t *testing.T) {
	b := fixture(t)
	eqVals(t, evalValue(t, b, "l_extendedprice * (1 - l_discount)"), []float64{95, 180, 282, 50}, "disc price")
}

func TestKeyColumnInValue(t *testing.T) {
	b := fixture(t)
	if v := evalValue(t, b, "l_orderkey * 10"); v[2] != 20 {
		t.Errorf("key value = %v, want 20", v[2])
	}
}

func TestCaseExpression(t *testing.T) {
	b := fixture(t)
	eqVals(t, evalValue(t, b, "case when l_returnflag = 'R' then l_quantity else 0 end"), []float64{10, 0, 0, 5}, "case")
	// No else → 0.
	eqVals(t, evalValue(t, b, "case when l_quantity > 100 then 1 end"), []float64{0, 0, 0, 0}, "missing ELSE")
}

func TestExtractInValue(t *testing.T) {
	b := fixture(t)
	eqVals(t, evalValue(t, b, "extract(year from l_shipdate)"), []float64{1994, 1995, 1994, 1996}, "year")
}

func TestBooleanInNumericContext(t *testing.T) {
	b := fixture(t)
	eqVals(t, evalValue(t, b, "l_quantity * (l_returnflag = 'R')"), []float64{10, 0, 0, 5}, "indicator product")
}

// TestCompileErrors pins the text of every compile error: a query the
// engine rejects reports the same message whichever caller compiled it.
func TestCompileErrors(t *testing.T) {
	b := fixture(t)
	shipdate := sqlparse.ColRef{Name: "l_shipdate"}
	cases := []struct {
		label string
		pred  bool // compile as a predicate, else as a value
		e     sqlparse.Expr
		want  string
	}{
		{"unknown column", true, whereOf(t, "zzz = 1"), "expr: unknown column zzz"},
		{"unknown qualified column", false, selectOf(t, "l.zzz + 1"), "expr: unknown column l.zzz"},
		{"string in arithmetic", true, whereOf(t, "l_returnflag + 1 > 0"), "expr: string column l_returnflag in numeric context"},
		{"string column as a value", false, selectOf(t, "l_comment"), "expr: string column l_comment in numeric context"},
		{"string column against string column", true, whereOf(t, "l_returnflag = l_comment"), "expr: string column l_returnflag in numeric context"},
		{"bad EXTRACT unit", false, sqlparse.ExtractExpr{Unit: "week", X: shipdate}, `expr: bad EXTRACT unit "week"`},
		{"IN list of columns", true, whereOf(t, "l_quantity in (l_discount)"), "expr: IN list requires literals"},
		{"IN list member error", true, whereOf(t, "l_quantity in (zzz)"), "expr: unknown column zzz"},
		{"string IN list needs string literals", true, whereOf(t, "l_returnflag in ('R', 1)"), "expr: IN list on string column l_returnflag requires string literals"},
		{"LIKE on a non-string", true, whereOf(t, "l_quantity like '1%'"), "expr: LIKE on non-string column l_quantity"},
		{"LIKE on an unknown column", true, whereOf(t, "zzz like '1%'"), "expr: unknown column zzz"},
		{"unsupported value node", false, sqlparse.StringLit{Val: "x"}, "expr: unsupported expression sqlparse.StringLit in numeric context"},
		{"unsupported predicate node", true, shipdate, "expr: sqlparse.ColRef is not a boolean expression"},
		{"arithmetic as a predicate", true, whereOf(t, "l_quantity + 1"), `expr: "+" is not a boolean operator`},
	}
	for _, c := range cases {
		var err error
		if c.pred {
			_, err = CompilePred(c.e, b)
		} else {
			_, err = CompileNum(c.e, b)
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.label, err, c.want)
		}
	}

	// An unfrozen catalog has neither dictionaries nor numeric buffers.
	cat := storage.NewCatalog()
	tab, err := cat.Create(storage.Schema{Name: "l", Cols: []storage.ColumnDef{
		{Name: "l_quantity", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "l_returnflag", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(1.0, "R"); err != nil {
		t.Fatal(err)
	}
	raw := &Binding{Alias: "l", Table: tab}
	for src, want := range map[string]string{
		"l_quantity < 2":     "expr: column l_quantity has no numeric buffer (catalog not frozen?)",
		"l_returnflag = 'R'": "expr: column l_returnflag has no dictionary (catalog not frozen?)",
	} {
		if _, err := CompilePred(whereOf(t, src), raw); err == nil || err.Error() != want {
			t.Errorf("unfrozen %q: error %v, want %q", src, err, want)
		}
	}
}

func TestQualifierMismatch(t *testing.T) {
	b := fixture(t)
	q, err := sqlparse.Parse("SELECT x FROM l WHERE other.l_quantity = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompilePred(q.Where, b); err == nil {
		t.Error("foreign qualifier should not resolve")
	}
}

func TestStringPredicateOnKeyColumn(t *testing.T) {
	// String predicates on a string-typed KEY column go through the
	// shared domain dictionary rather than per-column codes.
	cat := storage.NewCatalog()
	tab, err := cat.Create(storage.Schema{
		Name: "ev",
		Cols: []storage.ColumnDef{
			{Name: "name", Kind: storage.String, Role: storage.Key, Domain: "names"},
			{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tab.Append("carol", 1.0)
	_ = tab.Append("alice", 2.0)
	_ = tab.Append("bob", 3.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	b := &Binding{Alias: "ev", Table: tab}
	q, err := sqlparse.Parse("SELECT x FROM ev WHERE name >= 'b'")
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompilePred(q.Where, b)
	if err != nil {
		t.Fatal(err)
	}
	got := selected(p, tab.NumRows)
	want := []bool{true, false, true} // carol, alice, bob
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("row %d = %v, want %v", i, got[i], w)
		}
	}
}

// TestVecAscendingContract pins the Vec contract: over every strictly
// ascending selection of the fixture's rows — gapped and consecutive —
// a kernel's value at each row is bit-identical to the same kernel over
// that row alone, and only a consecutive run takes the contiguous read.
// (A permuted block such as [0 2 1 3] spans a run too and would be read
// as rows 0..3: it is outside the contract, which is why it is stated.)
func TestVecAscendingContract(t *testing.T) {
	b := fixture(t)
	n := b.Table.NumRows
	for _, src := range []string{"l_quantity", "l_shipdate", "l_extendedprice * (1 - l_discount)"} {
		num, err := CompileNum(selectOf(t, src), b)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		vec := num.Bind()
		want := make([]float64, n)
		for r := range want {
			vec([]int32{int32(r)}, want[r:r+1])
		}
		for mask := 1; mask < 1<<n; mask++ {
			var rows []int32
			for r := 0; r < n; r++ {
				if mask&(1<<r) != 0 {
					rows = append(rows, int32(r))
				}
			}
			run := int(rows[len(rows)-1]-rows[0]) == len(rows)-1
			if _, ok := contiguous(rows); ok != run {
				t.Fatalf("contiguous(%v) = %v, want %v", rows, ok, run)
			}
			out := make([]float64, len(rows))
			vec(rows, out)
			for i, r := range rows {
				if math.Float64bits(out[i]) != math.Float64bits(want[r]) {
					t.Fatalf("%s over %v: row %d = %v, want %v", src, rows, r, out[i], want[r])
				}
			}
		}
	}
}
