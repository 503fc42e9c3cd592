package expr_test

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/expr"
	"repro/internal/refeval"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// TestBlockKernelsMatchReference draws single-table datasets, predicates
// and aggregate arguments from the differential-testing generator (NaN,
// ±0, MaxInt64 keys, empty tables, string IN/LIKE on key and annotation
// columns, CASE) and requires that the block kernels select exactly the
// rows the reference evaluator selects, and compute values bit-identical
// to the row-at-a-time reference below. Some tables are replicated past
// one block so kernels also run across block boundaries, and values are
// evaluated both over whole blocks and over a strided row subset. The
// generator draws only forms inside the engine's subset, so a compile
// error is a failure, not a skip: a compiler that starts rejecting valid
// input fails here rather than thinning the sample.
func TestBlockKernelsMatchReference(t *testing.T) {
	const want = 250
	preds, vals := 0, 0
	for seed, cases := int64(1), 0; cases < want; seed++ {
		c, spec := difftest.NewGen(seed).Candidate()
		if len(c.Tables) != 1 || len(spec.From) != 1 {
			continue
		}
		cases++
		td := &c.Tables[0]
		if seed%5 == 0 && len(td.Rows) > 0 {
			// Past one block: repeat the rows (values, not identities, matter).
			base := td.Rows
			for len(td.Rows) <= expr.BlockSize {
				td.Rows = append(td.Rows, base...)
			}
		}
		// A unique row id lets the reference evaluator report which rows a
		// predicate keeps (GROUP BY rid).
		td.Cols = append(td.Cols, difftest.ColDef{Name: "rid", Kind: "int", Role: "key", Domain: "rid"})
		for i := range td.Rows {
			td.Rows[i] = append(append([]string(nil), td.Rows[i]...), strconv.Itoa(i))
		}
		eng, err := c.BuildEngine()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Freeze(); err != nil {
			t.Fatal(err)
		}
		rels, err := c.Relations()
		if err != nil {
			t.Fatal(err)
		}
		alias := spec.From[0].Alias
		tab := eng.Catalog().Table(td.Name)
		b := &expr.Binding{Alias: alias, Table: tab}

		var predSrc []string
		predSrc = append(predSrc, spec.Filters...)
		if len(spec.Filters) > 1 {
			predSrc = append(predSrc,
				strings.Join(spec.Filters, " AND "),
				"("+spec.Filters[0]+" OR "+spec.Filters[1]+")",
				"NOT ("+spec.Filters[0]+" AND "+spec.Filters[1]+")")
		}
		for _, src := range predSrc {
			where := parseWhere(t, td.Name, src)
			p, err := expr.CompilePred(where, b)
			if err != nil {
				t.Fatalf("seed %d: %q rejected: %v", seed, src, err)
			}
			preds++
			got := selectRows(p, tab.NumRows)
			ref, err := refeval.Eval(fmt.Sprintf("SELECT %s.rid, count(*) FROM %s WHERE %s GROUP BY %s.rid",
				alias, td.Name, src, alias), rels)
			if err != nil {
				t.Fatalf("seed %d: reference rejects %q: %v", seed, src, err)
			}
			wantRows := map[int64]bool{}
			for _, v := range ref.Cols[0].Vals {
				wantRows[v.(int64)] = true
			}
			if len(got) != len(wantRows) {
				t.Fatalf("seed %d: %q keeps %d rows, reference %d", seed, src, len(got), len(wantRows))
			}
			for _, r := range got {
				if !wantRows[int64(r)] {
					t.Fatalf("seed %d: %q keeps row %d, reference drops it", seed, src, r)
				}
			}
		}

		var es []sqlparse.Expr
		for _, src := range valueExprs(t, td, alias, spec) {
			e, err := parseSelect(td.Name, src)
			if err != nil {
				continue
			}
			n, err := expr.CompileNum(e, b)
			if err != nil {
				t.Fatalf("seed %d: %q rejected: %v", seed, src, err)
			}
			es = append(es, e)
			vals++
			for _, stride := range []int{1, 3} {
				rows, got := evalRows(n, tab.NumRows, stride)
				for i, r := range rows {
					w, err := refNum(e, tab, int(r))
					if err != nil {
						t.Fatalf("seed %d: reference cannot evaluate %q: %v", seed, src, err)
					}
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("seed %d: %q at row %d = %v (%#x), reference %v (%#x)",
							seed, src, r, got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
					}
				}
			}
		}
		checkSet(t, seed, es, b, tab.NumRows)
	}
	t.Logf("%d cases: %d predicates, %d values", want, preds, vals)
	if preds < 200 || vals < 500 {
		t.Fatalf("only %d predicates and %d values compiled; generator drifted?", preds, vals)
	}
}

func parseWhere(t *testing.T, table, src string) sqlparse.Expr {
	t.Helper()
	q, err := sqlparse.Parse("SELECT count(*) FROM " + table + " WHERE " + src)
	if err != nil {
		t.Fatalf("generated predicate %q does not parse: %v", src, err)
	}
	return q.Where
}

func parseSelect(table, src string) (sqlparse.Expr, error) {
	q, err := sqlparse.Parse("SELECT " + src + " FROM " + table)
	if err != nil {
		return nil, err
	}
	return q.Select[0].Expr, nil
}

// selectRows runs a predicate block by block over n rows.
func selectRows(p *expr.Pred, n int) []int32 {
	sel := p.Bind()
	ids := make([]int32, expr.BlockSize)
	var out []int32
	for lo := 0; lo < n; lo += expr.BlockSize {
		out = append(out, sel(expr.Rows(ids, lo, min(lo+expr.BlockSize, n)), ids)...)
	}
	return out
}

// evalRows evaluates a value kernel over every stride-th row, a block of
// row ids at a time.
func evalRows(num *expr.Num, n, stride int) ([]int32, []float64) {
	vec := num.Bind()
	var rows []int32
	for r := 0; r < n; r += stride {
		rows = append(rows, int32(r))
	}
	out := make([]float64, len(rows))
	for lo := 0; lo < len(rows); lo += expr.BlockSize {
		hi := min(lo+expr.BlockSize, len(rows))
		vec(rows[lo:hi], out[lo:hi])
	}
	return rows, out
}

// checkSet compiles es as one set, whose common subtrees (a column, a
// negation, c - 1.5 under c + c2 * 0.25's neighbours…) are computed once,
// and requires every expression's vector to be bit-identical to its own
// CompileNum kernel's, over whole blocks and over a strided row subset.
func checkSet(t *testing.T, seed int64, es []sqlparse.Expr, b *expr.Binding, n int) {
	t.Helper()
	set, err := expr.CompileNums(es, b)
	if err != nil {
		t.Fatalf("seed %d: set rejected: %v", seed, err)
	}
	if set.Len() != len(es) {
		t.Fatalf("seed %d: set of %d expressions has Len %d", seed, len(es), set.Len())
	}
	for _, stride := range []int{1, 3} {
		outs := make([][]float64, len(es))
		for i := range outs {
			outs[i] = make([]float64, expr.BlockSize)
		}
		vec := set.Bind()
		var rows []int32
		for r := 0; r < n; r += stride {
			rows = append(rows, int32(r))
		}
		for lo := 0; lo < len(rows); lo += expr.BlockSize {
			blk := rows[lo:min(lo+expr.BlockSize, len(rows))]
			vec(blk, outs)
			for i, e := range es {
				num, err := expr.CompileNum(e, b)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, len(blk))
				num.Bind()(blk, want)
				for j, w := range want {
					if math.Float64bits(outs[i][j]) != math.Float64bits(w) {
						t.Fatalf("seed %d: set value of %s at row %d = %v, alone %v", seed, e, blk[j], outs[i][j], w)
					}
				}
			}
		}
	}
}

// valueExprs lists numeric expressions to check for a case: the
// generator's aggregate arguments (arithmetic, CASE over generated
// predicates) plus arithmetic, EXTRACT, CASE and boolean-as-number forms
// over every numeric column.
func valueExprs(t *testing.T, td *difftest.TableDef, alias string, spec *difftest.QuerySpec) []string {
	var out []string
	for _, agg := range spec.Aggs {
		e, err := parseSelect(td.Name, agg)
		if err != nil {
			t.Fatalf("generated aggregate %q does not parse: %v", agg, err)
		}
		var walk func(e sqlparse.Expr)
		walk = func(e sqlparse.Expr) {
			switch v := e.(type) {
			case sqlparse.FuncCall:
				// A distinct count's argument is counted, not evaluated.
				if !v.Star && !v.Distinct && len(v.Args) == 1 {
					out = append(out, v.Args[0].String())
				}
			case sqlparse.BinaryExpr:
				walk(v.L)
				walk(v.R)
			}
		}
		walk(e)
	}
	var nums, dates []string
	for _, cd := range td.Cols {
		ref := alias + "." + cd.Name
		switch cd.Kind {
		case "int", "float":
			nums = append(nums, ref)
		case "date":
			nums = append(nums, ref)
			dates = append(dates, ref)
		}
	}
	for i, c := range nums {
		c2 := nums[(i+1)%len(nums)]
		out = append(out, c, "-"+c, c+" * "+c2, c+" - 1.5", "2 / "+c, c+" + "+c2+" * 0.25", "(1 - "+c+") * (1 + "+c2+")")
		for _, f := range spec.Filters {
			out = append(out,
				"CASE WHEN "+f+" THEN "+c+" ELSE "+c2+" END",
				"CASE WHEN "+f+" THEN "+c+" END",
				c+" * ("+f+")")
		}
	}
	for _, d := range dates {
		out = append(out, "extract(year from "+d+")", "extract(month from "+d+")", "extract(day from "+d+")")
	}
	return out
}

// --- row-at-a-time reference ---------------------------------------

// refNum evaluates a numeric expression at one row the way the engine
// defines it: float64 arithmetic, key columns through float64(int64),
// dates as day counts, booleans as 0/1, a missing ELSE as 0.
func refNum(e sqlparse.Expr, tab *storage.Table, row int) (float64, error) {
	switch v := e.(type) {
	case sqlparse.NumberLit:
		return v.Val, nil
	case sqlparse.DateLit:
		return float64(v.Days), nil
	case sqlparse.ColRef:
		col := tab.Col(v.Name)
		switch {
		case col == nil || col.Def.Kind == storage.String:
			return 0, fmt.Errorf("%s is not numeric", v)
		case col.Def.Role == storage.Key:
			return float64(col.Ints[row]), nil
		}
		return col.AnnFloats()[row], nil
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "+", "-", "*", "/":
			l, err := refNum(v.L, tab, row)
			if err != nil {
				return 0, err
			}
			r, err := refNum(v.R, tab, row)
			if err != nil {
				return 0, err
			}
			switch v.Op {
			case "+":
				return l + r, nil
			case "-":
				return l - r, nil
			case "*":
				return l * r, nil
			}
			return l / r, nil
		}
	case sqlparse.UnaryExpr:
		if v.Op == "-" {
			x, err := refNum(v.X, tab, row)
			return -x, err
		}
	case sqlparse.CaseExpr:
		for _, w := range v.Whens {
			ok, err := refBool(w.Cond, tab, row)
			if err != nil {
				return 0, err
			}
			if ok {
				return refNum(w.Then, tab, row)
			}
		}
		if v.Else == nil {
			return 0, nil
		}
		return refNum(v.Else, tab, row)
	case sqlparse.ExtractExpr:
		x, err := refNum(v.X, tab, row)
		if err != nil {
			return 0, err
		}
		switch v.Unit {
		case "year":
			return float64(sqlparse.DateYear(int32(x))), nil
		case "month":
			return float64(sqlparse.DateMonth(int32(x))), nil
		case "day":
			return float64(sqlparse.DateDay(int32(x))), nil
		}
		return 0, fmt.Errorf("bad unit %s", v.Unit)
	}
	ok, err := refBool(e, tab, row)
	if ok {
		return 1, err
	}
	return 0, err
}

func refBool(e sqlparse.Expr, tab *storage.Table, row int) (bool, error) {
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "and", "or":
			l, err := refBool(v.L, tab, row)
			if err != nil {
				return false, err
			}
			r, err := refBool(v.R, tab, row)
			if v.Op == "and" {
				return l && r, err
			}
			return l || r, err
		}
		if s, lit, op, ok := strCompare(v, tab, row); ok {
			c := strings.Compare(s, lit)
			return cmpHolds(op, float64(c), 0), nil
		}
		l, err := refNum(v.L, tab, row)
		if err != nil {
			return false, err
		}
		r, err := refNum(v.R, tab, row)
		return cmpHolds(v.Op, l, r), err
	case sqlparse.UnaryExpr:
		if v.Op == "not" {
			x, err := refBool(v.X, tab, row)
			return !x, err
		}
	case sqlparse.BetweenExpr:
		x, err := refNum(v.X, tab, row)
		if err != nil {
			return false, err
		}
		lo, err := refNum(v.Lo, tab, row)
		if err != nil {
			return false, err
		}
		hi, err := refNum(v.Hi, tab, row)
		if v.Negate {
			return x < lo || x > hi, err
		}
		return x >= lo && x <= hi, err
	case sqlparse.InExpr:
		if s, ok := strCol(v.X, tab, row); ok {
			for _, lv := range v.Vals {
				if lv.(sqlparse.StringLit).Val == s {
					return !v.Negate, nil
				}
			}
			return v.Negate, nil
		}
		x, err := refNum(v.X, tab, row)
		if err != nil {
			return false, err
		}
		for _, lv := range v.Vals {
			k, err := refNum(lv, tab, row)
			if err != nil {
				return false, err
			}
			if x == k {
				return !v.Negate, nil
			}
		}
		return v.Negate, nil
	case sqlparse.LikeExpr:
		s, ok := strCol(v.X, tab, row)
		if !ok {
			return false, fmt.Errorf("LIKE on %s", v.X)
		}
		var re strings.Builder
		re.WriteString("(?s)^")
		for _, ch := range v.Pattern {
			switch ch {
			case '%':
				re.WriteString(".*")
			case '_':
				re.WriteString(".")
			default:
				re.WriteString(regexp.QuoteMeta(string(ch)))
			}
		}
		re.WriteString("$")
		return regexp.MustCompile(re.String()).MatchString(s) != v.Negate, nil
	}
	return false, fmt.Errorf("%s is not a predicate", e)
}

// strCompare resolves a string column compared with a string literal
// (either side) to (column value, literal, operator as column op literal).
func strCompare(v sqlparse.BinaryExpr, tab *storage.Table, row int) (string, string, string, bool) {
	if lit, ok := v.R.(sqlparse.StringLit); ok {
		if s, ok := strCol(v.L, tab, row); ok {
			return s, lit.Val, v.Op, true
		}
	}
	if lit, ok := v.L.(sqlparse.StringLit); ok {
		if s, ok := strCol(v.R, tab, row); ok {
			flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
			op := v.Op
			if f, ok := flip[op]; ok {
				op = f
			}
			return s, lit.Val, op, true
		}
	}
	return "", "", "", false
}

func strCol(e sqlparse.Expr, tab *storage.Table, row int) (string, bool) {
	cr, ok := e.(sqlparse.ColRef)
	if !ok {
		return "", false
	}
	col := tab.Col(cr.Name)
	if col == nil || col.Def.Kind != storage.String {
		return "", false
	}
	return col.Str(row), true
}

func cmpHolds(op string, l, r float64) bool {
	switch op {
	case "=":
		return l == r
	case "<>":
		return l != r
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	}
	return false
}
