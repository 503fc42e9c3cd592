package sqlparse

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestSimpleSelect(t *testing.T) {
	q := mustParse(t, "SELECT a, b FROM r WHERE a = 1")
	if len(q.Select) != 2 || len(q.From) != 1 {
		t.Fatalf("select=%d from=%d", len(q.Select), len(q.From))
	}
	if q.From[0].Table != "r" || q.From[0].Alias != "r" {
		t.Fatalf("from = %+v", q.From[0])
	}
	be, ok := q.Where.(BinaryExpr)
	if !ok || be.Op != "=" {
		t.Fatalf("where = %v", q.Where)
	}
}

func TestAliases(t *testing.T) {
	q := mustParse(t, "SELECT m1.i AS row_id, m2.j col_id FROM matrix AS m1, matrix m2 WHERE m1.k = m2.k")
	if q.Select[0].Alias != "row_id" || q.Select[1].Alias != "col_id" {
		t.Fatalf("aliases = %q, %q", q.Select[0].Alias, q.Select[1].Alias)
	}
	if q.From[0].Alias != "m1" || q.From[1].Alias != "m2" || q.From[1].Table != "matrix" {
		t.Fatalf("from = %+v", q.From)
	}
	cr := q.Select[0].Expr.(ColRef)
	if cr.Qualifier != "m1" || cr.Name != "i" {
		t.Fatalf("colref = %+v", cr)
	}
}

func TestDateAndIntervalFolding(t *testing.T) {
	q := mustParse(t, "SELECT a FROM r WHERE d <= date '1998-12-01' - interval '90' day")
	be := q.Where.(BinaryExpr)
	dl, ok := be.R.(DateLit)
	if !ok {
		t.Fatalf("interval arithmetic not folded: %v", be.R)
	}
	if got := DaysToDate(dl.Days); got != "1998-09-02" {
		t.Fatalf("folded date = %s, want 1998-09-02", got)
	}
	q2 := mustParse(t, "SELECT a FROM r WHERE d < date '1994-01-01' + interval '1' year")
	dl2 := q2.Where.(BinaryExpr).R.(DateLit)
	if got := DaysToDate(dl2.Days); got != "1995-01-01" {
		t.Fatalf("+1 year = %s, want 1995-01-01", got)
	}
}

func TestAggregatesAndArithmetic(t *testing.T) {
	q := mustParse(t, `SELECT sum(l_extendedprice * (1 - l_discount)) as revenue, count(*), avg(l_quantity) FROM lineitem`)
	fc := q.Select[0].Expr.(FuncCall)
	if fc.Name != "sum" || len(fc.Args) != 1 {
		t.Fatalf("sum call = %+v", fc)
	}
	mul := fc.Args[0].(BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("arg = %v", mul)
	}
	cnt := q.Select[1].Expr.(FuncCall)
	if cnt.Name != "count" || !cnt.Star {
		t.Fatalf("count(*) = %+v", cnt)
	}
}

func TestCountDistinct(t *testing.T) {
	q := mustParse(t, "SELECT count(distinct c_custkey) FROM customer")
	fc := q.Select[0].Expr.(FuncCall)
	if fc.Name != "count" || !fc.Distinct || len(fc.Args) != 1 {
		t.Fatalf("count(distinct) = %+v", fc)
	}
	if got := fc.String(); got != "count(distinct c_custkey)" {
		t.Fatalf("String() = %q", got)
	}
	// Round trip: the rendered form must re-parse to the same AST text.
	q2 := mustParse(t, "SELECT "+fc.String()+" FROM customer")
	if q2.Select[0].Expr.String() != fc.String() {
		t.Fatalf("round trip: %q vs %q", q2.Select[0].Expr.String(), fc.String())
	}
	// Plain count must stay non-distinct.
	q3 := mustParse(t, "SELECT count(c_custkey) FROM customer")
	if q3.Select[0].Expr.(FuncCall).Distinct {
		t.Fatal("count(col) parsed as distinct")
	}
	// distinct with no argument is an error.
	if _, err := Parse("SELECT count(distinct) FROM customer"); err == nil {
		t.Fatal("count(distinct) with no arg should not parse")
	}
	// distinct survives inside GROUP BY queries with other aggregates.
	q4 := mustParse(t, "SELECT g, count(distinct v), sum(v) FROM r GROUP BY g")
	if !q4.Select[1].Expr.(FuncCall).Distinct || q4.Select[2].Expr.(FuncCall).Distinct {
		t.Fatalf("distinct flags: %+v", q4.Select)
	}
}

func TestPrecedence(t *testing.T) {
	q := mustParse(t, "SELECT a + b * c FROM r")
	add := q.Select[0].Expr.(BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top op = %s", add.Op)
	}
	if add.R.(BinaryExpr).Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
	q2 := mustParse(t, "SELECT a FROM r WHERE x = 1 OR y = 2 AND z = 3")
	or := q2.Where.(BinaryExpr)
	if or.Op != "or" {
		t.Fatalf("top logical op = %s, want or", or.Op)
	}
	if or.R.(BinaryExpr).Op != "and" {
		t.Fatal("AND should bind tighter than OR")
	}
}

func TestBetweenInLike(t *testing.T) {
	q := mustParse(t, `SELECT a FROM r WHERE q BETWEEN 5 AND 10 AND n IN (1, 2, 3) AND s LIKE '%green%' AND m NOT LIKE 'x%' AND p NOT IN (7) AND w NOT BETWEEN 1 AND 2`)
	// Walk the AND chain and count node kinds.
	var betweens, ins, likes, negs int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case BinaryExpr:
			walk(v.L)
			walk(v.R)
		case BetweenExpr:
			betweens++
			if v.Negate {
				negs++
			}
		case InExpr:
			ins++
			if v.Negate {
				negs++
			}
		case LikeExpr:
			likes++
			if v.Negate {
				negs++
			}
		}
	}
	walk(q.Where)
	if betweens != 2 || ins != 2 || likes != 2 || negs != 3 {
		t.Fatalf("betweens=%d ins=%d likes=%d negs=%d", betweens, ins, likes, negs)
	}
}

func TestCaseWhen(t *testing.T) {
	q := mustParse(t, `SELECT sum(CASE WHEN n_name = 'BRAZIL' THEN volume ELSE 0 END) / sum(volume) FROM x GROUP BY o_year`)
	div := q.Select[0].Expr.(BinaryExpr)
	if div.Op != "/" {
		t.Fatalf("top op = %s", div.Op)
	}
	ce := div.L.(FuncCall).Args[0].(CaseExpr)
	if len(ce.Whens) != 1 || ce.Else == nil {
		t.Fatalf("case = %+v", ce)
	}
	if len(q.GroupBy) != 1 {
		t.Fatalf("group by = %v", q.GroupBy)
	}
}

func TestExtract(t *testing.T) {
	q := mustParse(t, "SELECT extract(year from o_orderdate) as o_year FROM orders")
	ex := q.Select[0].Expr.(ExtractExpr)
	if ex.Unit != "year" {
		t.Fatalf("extract = %+v", ex)
	}
	if q.Select[0].Alias != "o_year" {
		t.Fatalf("alias = %q", q.Select[0].Alias)
	}
}

// The seven paper queries (slightly abbreviated schemas) must all parse.
func TestPaperQueriesParse(t *testing.T) {
	queries := map[string]string{
		"q1": `SELECT l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
			sum(l_extendedprice) as sum_base_price,
			sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
			sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
			avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price,
			avg(l_discount) as avg_disc, count(*) as count_order
			FROM lineitem
			WHERE l_shipdate <= date '1998-12-01' - interval '90' day
			GROUP BY l_returnflag, l_linestatus`,
		"q3": `SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue,
			o_orderdate, o_shippriority
			FROM customer, orders, lineitem
			WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
			AND l_orderkey = o_orderkey AND o_orderdate < date '1995-03-15'
			AND l_shipdate > date '1995-03-15'
			GROUP BY l_orderkey, o_orderdate, o_shippriority`,
		"q5": `SELECT n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
			FROM customer, orders, lineitem, supplier, nation, region
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
			AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
			AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
			AND r_name = 'ASIA' AND o_orderdate >= date '1994-01-01'
			AND o_orderdate < date '1994-01-01' + interval '1' year
			GROUP BY n_name`,
		"q6": `SELECT sum(l_extendedprice * l_discount) as revenue
			FROM lineitem
			WHERE l_shipdate >= date '1994-01-01'
			AND l_shipdate < date '1994-01-01' + interval '1' year
			AND l_discount between 0.06 - 0.01 and 0.06 + 0.01
			AND l_quantity < 24`,
		"q8": `SELECT o_year, sum(case when nation = 'BRAZIL' then volume else 0 end) / sum(volume) as mkt_share
			FROM allnations GROUP BY o_year`,
		"q9": `SELECT nation, o_year, sum(amount) as sum_profit
			FROM profit GROUP BY nation, o_year`,
		"q10": `SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) as revenue,
			c_acctbal, n_name, c_address, c_phone, c_comment
			FROM customer, orders, lineitem, nation
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
			AND o_orderdate >= date '1993-10-01'
			AND o_orderdate < date '1993-10-01' + interval '3' month
			AND l_returnflag = 'R' AND c_nationkey = n_nationkey
			GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment`,
	}
	for name, src := range queries {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMatMulQuery(t *testing.T) {
	q := mustParse(t, `SELECT m1.i, m2.j, sum(m1.v * m2.v)
		FROM matrix as m1, matrix as m2
		WHERE m1.j = m2.i GROUP BY m1.i, m2.j`)
	if len(q.From) != 2 || q.From[0].Alias == q.From[1].Alias {
		t.Fatalf("self join from = %+v", q.From)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM r WHERE",
		"SELECT a FROM r GROUP",
		"SELECT a FROM r ORDER BY a",
		"SELECT a FROM r WHERE s LIKE 5",
		"SELECT a FROM r WHERE d = date 123",
		"SELECT a FROM r; SELECT b FROM s",
		"SELECT case end FROM r",
		"SELECT a FROM r WHERE x IN ()",
		"SELECT a FROM r WHERE 'unterminated",
		"SELECT a FROM r WHERE a ~ b",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestTrailingSemicolonOK(t *testing.T) {
	mustParse(t, "SELECT a FROM r;")
}

func TestCommentsSkipped(t *testing.T) {
	q := mustParse(t, "SELECT a -- the column\nFROM r")
	if len(q.Select) != 1 {
		t.Fatal("comment broke parse")
	}
}

func TestStringEscapes(t *testing.T) {
	q := mustParse(t, "SELECT a FROM r WHERE s = 'it''s'")
	sl := q.Where.(BinaryExpr).R.(StringLit)
	if sl.Val != "it's" {
		t.Fatalf("escaped string = %q", sl.Val)
	}
}

func TestExprStringRoundtrip(t *testing.T) {
	srcs := []string{
		"SELECT sum(a * (1 - b)) FROM r WHERE c BETWEEN 1 AND 2 AND s LIKE 'x%' AND d IN (1, 2)",
		"SELECT case when a = 1 then 2 else 3 end FROM r",
		"SELECT extract(year from d) FROM r WHERE d >= date '1994-01-01'",
	}
	for _, src := range srcs {
		q := mustParse(t, src)
		for _, it := range q.Select {
			if it.Expr.String() == "" {
				t.Errorf("empty String() for %v", it.Expr)
			}
		}
		if q.Where != nil && !strings.Contains(q.Where.String(), "(") {
			t.Errorf("where String() = %q", q.Where.String())
		}
	}
}

func TestDateHelpers(t *testing.T) {
	d, err := ParseDate("1994-06-15")
	if err != nil {
		t.Fatal(err)
	}
	if DaysToDate(d) != "1994-06-15" {
		t.Fatalf("roundtrip = %s", DaysToDate(d))
	}
	if DateYear(d) != 1994 || DateMonth(d) != 6 || DateDay(d) != 15 {
		t.Fatalf("extract = %d-%d-%d", DateYear(d), DateMonth(d), DateDay(d))
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("bad date should error")
	}
	// Month-end clamping behavior is time.AddDate's (overflow rolls over).
	jan31, _ := ParseDate("1993-01-31")
	if got := DaysToDate(AddInterval(jan31, 1, "month")); got != "1993-03-03" {
		t.Logf("note: AddDate rolls 1993-01-31 +1 month to %s", got)
	}
}

func TestHavingParses(t *testing.T) {
	q := mustParse(t, `SELECT a, sum(x) as s FROM r GROUP BY a HAVING sum(x) > 10 AND count(*) < 5`)
	if q.Having == nil {
		t.Fatal("missing HAVING")
	}
	be := q.Having.(BinaryExpr)
	if be.Op != "and" {
		t.Fatalf("having op = %s", be.Op)
	}
	if _, err := Parse("SELECT a FROM r GROUP BY a HAVING"); err == nil {
		t.Error("dangling HAVING should error")
	}
}

func TestNotLookaheadEdgeCases(t *testing.T) {
	// A dangling NOT at end of input must error, not silently vanish.
	if _, err := Parse(`SELECT a FROM r WHERE x NOT`); err == nil {
		t.Fatal("dangling NOT parsed without error")
	}
	// NOT followed by a string literal 'in' is not NOT IN: the
	// lookahead must restore and report the stray tokens. Before the
	// fix the token-kind check was missing, so 'in' set negate, the
	// keyword switch matched nothing, and the NOT was swallowed.
	if _, err := Parse(`SELECT a FROM r WHERE x NOT 'in'`); err == nil {
		t.Fatal("x NOT 'in' parsed without error")
	}
	// Prefix NOT wrapping a NOT IN keeps both negations.
	q := mustParse(t, `SELECT a FROM r WHERE NOT x NOT IN (1, 2)`)
	un, ok := q.Where.(UnaryExpr)
	if !ok || un.Op != "not" {
		t.Fatalf("outer = %T %+v, want UnaryExpr not", q.Where, q.Where)
	}
	in, ok := un.X.(InExpr)
	if !ok || !in.Negate || len(in.Vals) != 2 {
		t.Fatalf("inner = %T %+v, want negated InExpr with 2 vals", un.X, un.X)
	}
	// NOT binding inside an AND chain: a = b AND NOT (c LIKE 'x%').
	q = mustParse(t, `SELECT a FROM r WHERE a = b AND NOT c LIKE 'x%'`)
	and, ok := q.Where.(BinaryExpr)
	if !ok || and.Op != "and" {
		t.Fatalf("top = %T %+v, want and", q.Where, q.Where)
	}
	un, ok = and.R.(UnaryExpr)
	if !ok || un.Op != "not" {
		t.Fatalf("rhs = %T %+v, want UnaryExpr not", and.R, and.R)
	}
	like, ok := un.X.(LikeExpr)
	if !ok || like.Negate || like.Pattern != "x%" {
		t.Fatalf("rhs inner = %T %+v, want non-negated LikeExpr", un.X, un.X)
	}
}

// TestUnqualified drops every qualifier, in every node kind, and
// nothing else: literals that look like qualified names stay.
func TestUnqualified(t *testing.T) {
	q := mustParse(t, `SELECT sum(case when m1.s like 'm1.%' and m1.d between m1.a and 3 and m1.b not in (m1.c, 1) then -m1.v * extract(year from m1.d) else abs(m1.v) end) FROM m AS m1`)
	e := q.Select[0].Expr.(FuncCall).Args[0]
	want := "case when (((s like 'm1.%') and (d between a and 3)) and (b not in (c, 1))) then ((- v) * extract(year from d)) else abs(v) end"
	if got := Unqualified(e).String(); got != want {
		t.Fatalf("Unqualified = %s\nwant %s", got, want)
	}
}
