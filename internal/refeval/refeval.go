// Package refeval is the brute-force reference evaluator used as a
// differential-testing oracle for the LevelHeaded engine. It evaluates
// the same parsed SQL subset over plain decoded rows with nested-loop
// joins and map-based grouping — no dictionaries, tries, or WCOJ — so a
// disagreement with the engine localizes a bug in the encode/plan/exec
// pipeline rather than in shared code.
//
// Semantics deliberately mirror the engine's observable conventions:
//
//   - Numeric predicate and value evaluation happens in float64 (the
//     engine's internal/expr compiles every numeric context to float64,
//     converting int64 keys via float64(v)).
//   - Cross-alias key equality in WHERE is a join predicate and
//     compares natively (the engine joins in exact code space).
//   - Aggregates are float64. avg is sum/count. min/max fold with the
//     engine's order-dependent `if v < acc` rule.
//   - A single-relation query with no GROUP BY is a "scalar scan":
//     always one output row, with aggregates zeroed (min/max included)
//     when no rows qualify; a failing HAVING yields zero rows. A
//     multi-relation query with no GROUP BY yields zero rows when the
//     join is empty.
//   - GROUP BY float values canonicalize NaN into one group and -0.0
//     into +0.0, matching the engine's pseudo-encoding.
package refeval

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Relation is one decoded base table: a schema plus native rows
// (int64 for Int64/Date columns — dates are days since epoch — float64
// for Float64, string for String).
type Relation struct {
	Schema storage.Schema
	Rows   [][]any
}

// Column is one output column of a reference result.
type Column struct {
	Name string
	// IsAgg marks aggregate-derived columns (always float64 cells).
	IsAgg bool
	Vals  []any
}

// Result is a columnar reference result.
type Result struct {
	Cols    []*Column
	NumRows int
}

// Eval parses and evaluates sql over rels.
func Eval(sql string, rels map[string]*Relation) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return EvalQuery(q, rels)
}

type binding struct {
	alias string
	rel   *Relation
}

type evaluator struct {
	binds []binding
	// tuple[i] is the current row index into binds[i].rel.Rows.
	tuple []int
}

// EvalQuery evaluates an already-parsed query over rels.
func EvalQuery(q *sqlparse.Query, rels map[string]*Relation) (*Result, error) {
	ev := &evaluator{}
	for _, tr := range q.From {
		rel, ok := rels[tr.Table]
		if !ok {
			return nil, fmt.Errorf("refeval: unknown table %s", tr.Table)
		}
		alias := tr.Alias
		if alias == "" {
			alias = tr.Table
		}
		ev.binds = append(ev.binds, binding{alias: alias, rel: rel})
	}
	ev.tuple = make([]int, len(ev.binds))

	joins, filters := splitWhere(ev, q.Where)

	aggs := collectAggs(q)
	for _, a := range aggs {
		if a.distinct && a.fn != "count" {
			return nil, fmt.Errorf("refeval: distinct is only supported in count()")
		}
	}
	type group struct {
		keyVals []any
		accs    []float64
		counts  []float64
		// sets[i] holds the distinct canonical values seen by a
		// count(distinct x) aggregate (nil for non-distinct aggs).
		sets []map[string]struct{}
		rows int
	}
	groups := map[string]*group{}
	var order []string

	// Nested-loop enumeration with early filter/join checks per level:
	// a predicate runs at the innermost level whose alias set it needs.
	n := len(ev.binds)
	predLevel := func(e sqlparse.Expr) int {
		lv := 0
		for i, b := range ev.binds {
			if exprUsesAlias(ev, e, b.alias) && i > lv {
				lv = i
			}
		}
		return lv
	}
	type pred struct {
		e    sqlparse.Expr
		join bool
	}
	byLevel := make([][]pred, n)
	for _, j := range joins {
		byLevel[predLevel(j)] = append(byLevel[predLevel(j)], pred{j, true})
	}
	for _, f := range filters {
		byLevel[predLevel(f)] = append(byLevel[predLevel(f)], pred{f, false})
	}

	visit := func() error {
		keyVals := make([]any, len(q.GroupBy))
		var sb strings.Builder
		for i, ge := range q.GroupBy {
			v, err := ev.val(ge)
			if err != nil {
				return err
			}
			v = canonGroupVal(v)
			keyVals[i] = v
			sb.WriteString(groupKeyPart(v))
			sb.WriteByte(0)
		}
		key := sb.String()
		g := groups[key]
		if g == nil {
			g = &group{keyVals: keyVals, accs: make([]float64, len(aggs)), counts: make([]float64, len(aggs)), sets: make([]map[string]struct{}, len(aggs))}
			for i, a := range aggs {
				switch a.fn {
				case "min":
					g.accs[i] = math.Inf(1)
				case "max":
					g.accs[i] = math.Inf(-1)
				}
				if a.distinct {
					g.sets[i] = map[string]struct{}{}
				}
			}
			groups[key] = g
			order = append(order, key)
		}
		g.rows++
		for i, a := range aggs {
			if a.distinct {
				// count(distinct x): collect the canonical value (NaN and
				// -0.0 fold like group keys) and count the set at the end.
				v, err := ev.val(a.arg)
				if err != nil {
					return err
				}
				g.sets[i][groupKeyPart(canonGroupVal(v))] = struct{}{}
				continue
			}
			switch a.fn {
			case "count":
				g.accs[i]++
			default:
				v, err := ev.num(a.arg)
				if err != nil {
					return err
				}
				switch a.fn {
				case "sum":
					g.accs[i] += v
				case "avg":
					g.accs[i] += v
					g.counts[i]++
				case "min":
					if v < g.accs[i] {
						g.accs[i] = v
					}
				case "max":
					if v > g.accs[i] {
						g.accs[i] = v
					}
				}
			}
		}
		return nil
	}

	var rec func(level int) error
	rec = func(level int) error {
		if level == n {
			return visit()
		}
		for ri := range ev.binds[level].rel.Rows {
			ev.tuple[level] = ri
			ok := true
			for _, p := range byLevel[level] {
				pass, err := ev.predicate(p.e, p.join)
				if err != nil {
					return err
				}
				if !pass {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if err := rec(level + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}

	// Scalar convention: no GROUP BY → exactly one output row even when
	// nothing qualified (the engine emits one all-zero aggregate row for
	// empty scans and empty joins alike).
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		g := &group{accs: make([]float64, len(aggs)), counts: make([]float64, len(aggs)), sets: make([]map[string]struct{}, len(aggs))}
		groups[""] = g
		order = append(order, "")
	}

	// Assemble output.
	res := &Result{}
	for _, it := range q.Select {
		res.Cols = append(res.Cols, &Column{Name: selectName(it), IsAgg: exprHasAgg(it.Expr)})
	}
	aggIndex := func(fn string, arg sqlparse.Expr, distinct bool) int {
		for i, a := range aggs {
			if a.fn == fn && a.distinct == distinct && exprEq(a.arg, arg) {
				return i
			}
		}
		return -1
	}
	for _, key := range order {
		g := groups[key]
		// min/max over zero rows reset from ±Inf to 0 (engine scalar
		// convention); sums/counts are already 0.
		finals := make([]float64, len(aggs))
		for i, a := range aggs {
			v := g.accs[i]
			if a.distinct {
				v = float64(len(g.sets[i]))
			}
			if g.rows == 0 && math.IsInf(v, 0) {
				v = 0
			}
			if a.fn == "avg" {
				// The engine divides sum by count at output time, so an
				// empty group yields 0/0 = NaN — mirror that exactly.
				v = v / g.counts[i]
			}
			finals[i] = v
		}
		evalAgg := func(e sqlparse.Expr) (float64, error) {
			return ev.aggExpr(e, func(fn string, arg sqlparse.Expr, distinct bool) (float64, error) {
				i := aggIndex(fn, arg, distinct)
				if i < 0 {
					return 0, fmt.Errorf("refeval: aggregate %s not collected", fn)
				}
				return finals[i], nil
			}, g.keyVals, q.GroupBy)
		}
		if q.Having != nil {
			keep, err := ev.havingBool(q.Having, evalAgg)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		for ci, it := range q.Select {
			if gi := groupByIndex(q.GroupBy, it.Expr); gi >= 0 {
				res.Cols[ci].Vals = append(res.Cols[ci].Vals, g.keyVals[gi])
				continue
			}
			v, err := evalAgg(it.Expr)
			if err != nil {
				return nil, err
			}
			res.Cols[ci].Vals = append(res.Cols[ci].Vals, v)
		}
		res.NumRows++
	}
	return res, nil
}

// --- predicate / expression evaluation over the current tuple ---

func (ev *evaluator) predicate(e sqlparse.Expr, join bool) (bool, error) {
	if join {
		// Join predicates compare natively (engine joins in exact code
		// space), never through float64.
		be := e.(sqlparse.BinaryExpr)
		l, err := ev.val(be.L)
		if err != nil {
			return false, err
		}
		r, err := ev.val(be.R)
		if err != nil {
			return false, err
		}
		return l == r, nil
	}
	return ev.boolean(e)
}

func (ev *evaluator) boolean(e sqlparse.Expr) (bool, error) {
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "and":
			l, err := ev.boolean(v.L)
			if err != nil || !l {
				return false, err
			}
			return ev.boolean(v.R)
		case "or":
			l, err := ev.boolean(v.L)
			if err != nil || l {
				return l, err
			}
			return ev.boolean(v.R)
		case "=", "<>", "<", "<=", ">", ">=":
			return ev.compare(v.Op, v.L, v.R)
		}
		return false, fmt.Errorf("refeval: boolean op %s", v.Op)
	case sqlparse.UnaryExpr:
		if v.Op == "not" {
			b, err := ev.boolean(v.X)
			return !b, err
		}
		return false, fmt.Errorf("refeval: unary %s in boolean context", v.Op)
	case sqlparse.BetweenExpr:
		x, err := ev.num(v.X)
		if err != nil {
			return false, err
		}
		lo, err := ev.num(v.Lo)
		if err != nil {
			return false, err
		}
		hi, err := ev.num(v.Hi)
		if err != nil {
			return false, err
		}
		in := x >= lo && x <= hi
		if v.Negate {
			return !in, nil
		}
		return in, nil
	case sqlparse.InExpr:
		if s, ok, err := ev.str(v.X); err != nil {
			return false, err
		} else if ok {
			hit := false
			for _, ve := range v.Vals {
				lit, isStr := ve.(sqlparse.StringLit)
				if !isStr {
					return false, fmt.Errorf("refeval: IN on string needs string literals")
				}
				if s == lit.Val {
					hit = true
					break
				}
			}
			if v.Negate {
				return !hit, nil
			}
			return hit, nil
		}
		x, err := ev.num(v.X)
		if err != nil {
			return false, err
		}
		hit := false
		for _, ve := range v.Vals {
			n, err := ev.num(ve)
			if err != nil {
				return false, err
			}
			if x == n {
				hit = true
				break
			}
		}
		if v.Negate {
			return !hit, nil
		}
		return hit, nil
	case sqlparse.LikeExpr:
		s, ok, err := ev.str(v.X)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, fmt.Errorf("refeval: LIKE on non-string")
		}
		m := likeMatch(s, v.Pattern)
		if v.Negate {
			return !m, nil
		}
		return m, nil
	}
	return false, fmt.Errorf("refeval: unsupported boolean expr %T", e)
}

func (ev *evaluator) compare(op string, le, re sqlparse.Expr) (bool, error) {
	ls, lok, err := ev.str(le)
	if err != nil {
		return false, err
	}
	rs, rok, err := ev.str(re)
	if err != nil {
		return false, err
	}
	if lok && rok {
		switch op {
		case "=":
			return ls == rs, nil
		case "<>":
			return ls != rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		case ">=":
			return ls >= rs, nil
		}
	}
	if lok != rok {
		return false, fmt.Errorf("refeval: mixed string/numeric comparison")
	}
	l, err := ev.num(le)
	if err != nil {
		return false, err
	}
	r, err := ev.num(re)
	if err != nil {
		return false, err
	}
	switch op {
	case "=":
		return l == r, nil
	case "<>":
		return l != r, nil
	case "<":
		return l < r, nil
	case "<=":
		return l <= r, nil
	case ">":
		return l > r, nil
	case ">=":
		return l >= r, nil
	}
	return false, fmt.Errorf("refeval: cmp op %s", op)
}

// str evaluates e as a string if it is string-typed; ok=false means
// "not a string expression" (fall back to numeric).
func (ev *evaluator) str(e sqlparse.Expr) (string, bool, error) {
	switch v := e.(type) {
	case sqlparse.StringLit:
		return v.Val, true, nil
	case sqlparse.ColRef:
		def, val, err := ev.col(v)
		if err != nil {
			return "", false, err
		}
		if def.Kind == storage.String {
			return val.(string), true, nil
		}
		return "", false, nil
	}
	return "", false, nil
}

// num evaluates e in float64, mirroring internal/expr.CompileNum: keys
// and dates via float64(int64), booleans as 0/1, CASE else defaulting
// to 0.
func (ev *evaluator) num(e sqlparse.Expr) (float64, error) {
	switch v := e.(type) {
	case sqlparse.NumberLit:
		return v.Val, nil
	case sqlparse.DateLit:
		return float64(v.Days), nil
	case sqlparse.ColRef:
		def, val, err := ev.col(v)
		if err != nil {
			return 0, err
		}
		switch def.Kind {
		case storage.String:
			return 0, fmt.Errorf("refeval: string column %s in numeric context", v.Name)
		case storage.Float64:
			return val.(float64), nil
		default:
			return float64(val.(int64)), nil
		}
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "+", "-", "*", "/":
			l, err := ev.num(v.L)
			if err != nil {
				return 0, err
			}
			r, err := ev.num(v.R)
			if err != nil {
				return 0, err
			}
			return arith(v.Op, l, r), nil
		default:
			b, err := ev.boolean(v)
			if err != nil {
				return 0, err
			}
			if b {
				return 1, nil
			}
			return 0, nil
		}
	case sqlparse.UnaryExpr:
		switch v.Op {
		case "-":
			n, err := ev.num(v.X)
			return -n, err
		case "not":
			b, err := ev.boolean(v)
			if err != nil {
				return 0, err
			}
			if b {
				return 1, nil
			}
			return 0, nil
		}
	case sqlparse.CaseExpr:
		for _, w := range v.Whens {
			c, err := ev.boolean(w.Cond)
			if err != nil {
				return 0, err
			}
			if c {
				return ev.num(w.Then)
			}
		}
		if v.Else != nil {
			return ev.num(v.Else)
		}
		return 0, nil
	case sqlparse.ExtractExpr:
		d, err := ev.num(v.X)
		if err != nil {
			return 0, err
		}
		days := int32(d)
		switch v.Unit {
		case "year":
			return float64(sqlparse.DateYear(days)), nil
		case "month":
			return float64(sqlparse.DateMonth(days)), nil
		case "day":
			return float64(sqlparse.DateDay(days)), nil
		}
		return 0, fmt.Errorf("refeval: extract field %s", v.Unit)
	case sqlparse.BetweenExpr, sqlparse.InExpr, sqlparse.LikeExpr:
		b, err := ev.boolean(e)
		if err != nil {
			return 0, err
		}
		if b {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("refeval: unsupported numeric expr %T", e)
}

// val evaluates e to its native value (int64/float64/string): column
// refs keep their stored type; everything else goes through num.
func (ev *evaluator) val(e sqlparse.Expr) (any, error) {
	if cr, ok := e.(sqlparse.ColRef); ok {
		_, v, err := ev.col(cr)
		return v, err
	}
	if sl, ok := e.(sqlparse.StringLit); ok {
		return sl.Val, nil
	}
	return ev.num(e)
}

func (ev *evaluator) col(cr sqlparse.ColRef) (*storage.ColumnDef, any, error) {
	for i, b := range ev.binds {
		if cr.Qualifier != "" && cr.Qualifier != b.alias {
			continue
		}
		for ci := range b.rel.Schema.Cols {
			if b.rel.Schema.Cols[ci].Name == cr.Name {
				return &b.rel.Schema.Cols[ci], b.rel.Rows[ev.tuple[i]][ci], nil
			}
		}
		if cr.Qualifier != "" {
			break
		}
	}
	return nil, nil, fmt.Errorf("refeval: unknown column %s", cr)
}

// --- aggregate handling ---

type aggCall struct {
	fn       string
	arg      sqlparse.Expr // nil for count(*)
	distinct bool          // count(distinct arg)
}

func collectAggs(q *sqlparse.Query) []aggCall {
	var aggs []aggCall
	add := func(fn string, arg sqlparse.Expr, distinct bool) {
		for _, a := range aggs {
			if a.fn == fn && a.distinct == distinct && exprEq(a.arg, arg) {
				return
			}
		}
		aggs = append(aggs, aggCall{fn, arg, distinct})
	}
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch v := e.(type) {
		case sqlparse.FuncCall:
			if isAggName(v.Name) {
				if v.Star || len(v.Args) == 0 {
					add(v.Name, nil, false)
				} else {
					add(v.Name, v.Args[0], v.Distinct)
				}
				return
			}
			for _, a := range v.Args {
				walk(a)
			}
		case sqlparse.BinaryExpr:
			walk(v.L)
			walk(v.R)
		case sqlparse.UnaryExpr:
			walk(v.X)
		case sqlparse.CaseExpr:
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if v.Else != nil {
				walk(v.Else)
			}
		}
	}
	for _, it := range q.Select {
		walk(it.Expr)
	}
	if q.Having != nil {
		walk(q.Having)
	}
	return aggs
}

func isAggName(n string) bool {
	switch n {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

func exprHasAgg(e sqlparse.Expr) bool {
	found := false
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch v := e.(type) {
		case sqlparse.FuncCall:
			if isAggName(v.Name) {
				found = true
				return
			}
			for _, a := range v.Args {
				walk(a)
			}
		case sqlparse.BinaryExpr:
			walk(v.L)
			walk(v.R)
		case sqlparse.UnaryExpr:
			walk(v.X)
		case sqlparse.CaseExpr:
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if v.Else != nil {
				walk(v.Else)
			}
		}
	}
	walk(e)
	return found
}

// aggExpr evaluates a SELECT/HAVING expression over finished group
// aggregates: aggregate calls resolve through lookup, group columns
// through keyVals, and arithmetic in float64.
func (ev *evaluator) aggExpr(e sqlparse.Expr, lookup func(fn string, arg sqlparse.Expr, distinct bool) (float64, error), keyVals []any, groupBy []sqlparse.Expr) (float64, error) {
	switch v := e.(type) {
	case sqlparse.NumberLit:
		return v.Val, nil
	case sqlparse.DateLit:
		return float64(v.Days), nil
	case sqlparse.FuncCall:
		if isAggName(v.Name) {
			if v.Star || len(v.Args) == 0 {
				return lookup(v.Name, nil, false)
			}
			return lookup(v.Name, v.Args[0], v.Distinct)
		}
		return 0, fmt.Errorf("refeval: function %s in aggregate context", v.Name)
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "+", "-", "*", "/":
			l, err := ev.aggExpr(v.L, lookup, keyVals, groupBy)
			if err != nil {
				return 0, err
			}
			r, err := ev.aggExpr(v.R, lookup, keyVals, groupBy)
			if err != nil {
				return 0, err
			}
			return arith(v.Op, l, r), nil
		}
	case sqlparse.UnaryExpr:
		if v.Op == "-" {
			n, err := ev.aggExpr(v.X, lookup, keyVals, groupBy)
			return -n, err
		}
	case sqlparse.ColRef:
		if gi := groupByIndex(groupBy, v); gi >= 0 {
			switch kv := keyVals[gi].(type) {
			case int64:
				return float64(kv), nil
			case float64:
				return kv, nil
			}
		}
	}
	return 0, fmt.Errorf("refeval: unsupported aggregate-context expr %T", e)
}

// havingBool evaluates HAVING over finished aggregates: comparisons and
// and/or/not over aggregate-context numeric expressions.
func (ev *evaluator) havingBool(e sqlparse.Expr, evalAgg func(sqlparse.Expr) (float64, error)) (bool, error) {
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "and":
			l, err := ev.havingBool(v.L, evalAgg)
			if err != nil || !l {
				return false, err
			}
			return ev.havingBool(v.R, evalAgg)
		case "or":
			l, err := ev.havingBool(v.L, evalAgg)
			if err != nil || l {
				return l, err
			}
			return ev.havingBool(v.R, evalAgg)
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := evalAgg(v.L)
			if err != nil {
				return false, err
			}
			r, err := evalAgg(v.R)
			if err != nil {
				return false, err
			}
			switch v.Op {
			case "=":
				return l == r, nil
			case "<>":
				return l != r, nil
			case "<":
				return l < r, nil
			case "<=":
				return l <= r, nil
			case ">":
				return l > r, nil
			case ">=":
				return l >= r, nil
			}
		}
	case sqlparse.UnaryExpr:
		if v.Op == "not" {
			b, err := ev.havingBool(v.X, evalAgg)
			return !b, err
		}
	}
	return false, fmt.Errorf("refeval: unsupported HAVING expr %T", e)
}

// --- helpers ---

func arith(op string, l, r float64) float64 {
	switch op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	default:
		return l / r
	}
}

// splitWhere separates top-level AND conjuncts into join predicates
// (cross-alias key equality, evaluated natively) and filters.
func splitWhere(ev *evaluator, where sqlparse.Expr) (joins, filters []sqlparse.Expr) {
	var split func(e sqlparse.Expr)
	split = func(e sqlparse.Expr) {
		if be, ok := e.(sqlparse.BinaryExpr); ok {
			if be.Op == "and" {
				split(be.L)
				split(be.R)
				return
			}
			if be.Op == "=" {
				lc, lok := be.L.(sqlparse.ColRef)
				rc, rok := be.R.(sqlparse.ColRef)
				if lok && rok && aliasOf(ev, lc) != aliasOf(ev, rc) {
					joins = append(joins, e)
					return
				}
			}
		}
		filters = append(filters, e)
	}
	if where != nil {
		split(where)
	}
	return joins, filters
}

func aliasOf(ev *evaluator, cr sqlparse.ColRef) string {
	if cr.Qualifier != "" {
		return cr.Qualifier
	}
	for _, b := range ev.binds {
		for ci := range b.rel.Schema.Cols {
			if b.rel.Schema.Cols[ci].Name == cr.Name {
				return b.alias
			}
		}
	}
	return ""
}

func exprUsesAlias(ev *evaluator, e sqlparse.Expr, alias string) bool {
	found := false
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch v := e.(type) {
		case sqlparse.ColRef:
			if aliasOf(ev, v) == alias {
				found = true
			}
		case sqlparse.BinaryExpr:
			walk(v.L)
			walk(v.R)
		case sqlparse.UnaryExpr:
			walk(v.X)
		case sqlparse.FuncCall:
			for _, a := range v.Args {
				walk(a)
			}
		case sqlparse.CaseExpr:
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if v.Else != nil {
				walk(v.Else)
			}
		case sqlparse.BetweenExpr:
			walk(v.X)
			walk(v.Lo)
			walk(v.Hi)
		case sqlparse.InExpr:
			walk(v.X)
			for _, x := range v.Vals {
				walk(x)
			}
		case sqlparse.LikeExpr:
			walk(v.X)
		case sqlparse.ExtractExpr:
			walk(v.X)
		}
	}
	walk(e)
	return found
}

func groupByIndex(groupBy []sqlparse.Expr, e sqlparse.Expr) int {
	for i, g := range groupBy {
		if exprEq(g, e) {
			return i
		}
	}
	// An unqualified SELECT column may match a qualified GROUP BY item
	// (or vice versa) by name.
	if cr, ok := e.(sqlparse.ColRef); ok {
		for i, g := range groupBy {
			if gc, ok := g.(sqlparse.ColRef); ok && gc.Name == cr.Name &&
				(gc.Qualifier == "" || cr.Qualifier == "" || gc.Qualifier == cr.Qualifier) {
				return i
			}
		}
	}
	return -1
}

func exprEq(a, b sqlparse.Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

func selectName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

// canonGroupVal canonicalizes a group value the way the engine's
// pseudo-encoding does: -0.0 folds into +0.0 and every NaN payload is
// the same group.
func canonGroupVal(v any) any {
	if f, ok := v.(float64); ok {
		if f == 0 {
			return 0.0
		}
		if math.IsNaN(f) {
			return math.NaN()
		}
	}
	return v
}

func groupKeyPart(v any) string {
	switch x := v.(type) {
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		if math.IsNaN(x) {
			return "fNaN"
		}
		return "f" + strconv.FormatFloat(x, 'x', -1, 64)
	case string:
		return "s" + x
	}
	return fmt.Sprintf("?%v", v)
}

// likeMatch reports whether s matches a SQL LIKE pattern with % and _
// wildcards, with the engine's matcher's semantics.
func likeMatch(s, pat string) bool {
	n, m := len(s), len(pat)
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		p := pat[j-1]
		cur[0] = prev[0] && p == '%'
		for i := 1; i <= n; i++ {
			switch p {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == p
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// SortKeyOrder is a stable textual ordering helper for tests that want
// deterministic row order from a Result.
func (r *Result) SortKeyOrder() []int {
	idx := make([]int, r.NumRows)
	for i := range idx {
		idx[i] = i
	}
	keys := make([]string, r.NumRows)
	for i := range keys {
		var sb strings.Builder
		for _, c := range r.Cols {
			if !c.IsAgg {
				sb.WriteString(groupKeyPart(c.Vals[i]))
				sb.WriteByte(0)
			}
		}
		keys[i] = sb.String()
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return idx
}
