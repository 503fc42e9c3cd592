// Package expr compiles the scalar sub-expressions of a SQL query over a
// single relation's columnar buffers, in two forms:
//
//   - block kernels (block.go): predicates compile to selection kernels
//     and numeric expressions to value kernels over blocks of up to
//     BlockSize rows. Scans and filtered trie builds use them for row
//     selection and for per-row annotation values (paper §IV-A rule 3,
//     e.g. l_extendedprice * (1 - l_discount)).
//   - row closures (CompileValue): one value at one row, for the
//     random-access metadata lookups of GROUP BY items resolved through
//     a primary key.
//
// Both forms perform the same float64 operation in the same
// association for every row, so their values are bit-identical.
//
// String predicates are evaluated once per dictionary entry rather than
// once per row: the compiler materializes a boolean table indexed by the
// column's order-preserving codes, so LIKE '%green%' costs one regexp
// -free scan of the dictionary, not of the data.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// rowPred is a compiled row predicate (CASE conditions and booleans in
// numeric context inside a row Value).
type rowPred func(row int32) bool

// Value is a compiled numeric row expression. Dates evaluate to their
// day count; booleans to 0/1.
type Value func(row int32) float64

// Binding resolves column names for one relation occurrence.
type Binding struct {
	// Alias is the relation's FROM alias (qualifier match).
	Alias string
	// Table supplies the columns.
	Table *storage.Table
}

// colFor resolves a column reference against the binding, nil if the
// reference belongs to another relation.
func (b *Binding) colFor(c sqlparse.ColRef) *storage.Column {
	if c.Qualifier != "" && c.Qualifier != b.Alias {
		return nil
	}
	return b.Table.Col(c.Name)
}

// CompileValue compiles a numeric expression into a row Value.
func CompileValue(e sqlparse.Expr, b *Binding) (Value, error) {
	c := &compiler{b: b}
	return c.compileNum(e)
}

type compiler struct {
	b *Binding
}

func (c *compiler) compileBool(e sqlparse.Expr) (rowPred, error) {
	if codes, table, ok, err := c.stringPred(e); err != nil || ok {
		if err != nil {
			return nil, err
		}
		return func(row int32) bool { return table[codes[row]] }, nil
	}
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "and":
			l, err := c.compileBool(v.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileBool(v.R)
			if err != nil {
				return nil, err
			}
			return func(row int32) bool { return l(row) && r(row) }, nil
		case "or":
			l, err := c.compileBool(v.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileBool(v.R)
			if err != nil {
				return nil, err
			}
			return func(row int32) bool { return l(row) || r(row) }, nil
		case "=", "<>", "<", "<=", ">", ">=":
			return c.compileComparison(v)
		default:
			return nil, fmt.Errorf("expr: %q is not a boolean operator", v.Op)
		}
	case sqlparse.UnaryExpr:
		if v.Op == "not" {
			f, err := c.compileBool(v.X)
			if err != nil {
				return nil, err
			}
			return func(row int32) bool { return !f(row) }, nil
		}
		return nil, fmt.Errorf("expr: unary %q is not boolean", v.Op)
	case sqlparse.BetweenExpr:
		x, err := c.compileNum(v.X)
		if err != nil {
			return nil, err
		}
		lo, err := c.compileNum(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compileNum(v.Hi)
		if err != nil {
			return nil, err
		}
		if v.Negate {
			return func(row int32) bool {
				xv := x(row)
				return xv < lo(row) || xv > hi(row)
			}, nil
		}
		return func(row int32) bool {
			xv := x(row)
			return xv >= lo(row) && xv <= hi(row)
		}, nil
	case sqlparse.InExpr:
		x, err := c.compileNum(v.X)
		if err != nil {
			return nil, err
		}
		vals, err := c.inList(v)
		if err != nil {
			return nil, err
		}
		neg := v.Negate
		return func(row int32) bool {
			xv := x(row)
			for _, val := range vals {
				if xv == val {
					return !neg
				}
			}
			return neg
		}, nil
	default:
		return nil, fmt.Errorf("expr: %T is not a boolean expression", e)
	}
}

// compileComparison handles numeric–numeric comparisons (string ones
// resolved through stringPred before it).
func (c *compiler) compileComparison(v sqlparse.BinaryExpr) (rowPred, error) {
	l, err := c.compileNum(v.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compileNum(v.R)
	if err != nil {
		return nil, err
	}
	switch v.Op {
	case "=":
		return func(row int32) bool { return l(row) == r(row) }, nil
	case "<>":
		return func(row int32) bool { return l(row) != r(row) }, nil
	case "<":
		return func(row int32) bool { return l(row) < r(row) }, nil
	case "<=":
		return func(row int32) bool { return l(row) <= r(row) }, nil
	case ">":
		return func(row int32) bool { return l(row) > r(row) }, nil
	case ">=":
		return func(row int32) bool { return l(row) >= r(row) }, nil
	}
	return nil, fmt.Errorf("expr: bad comparison %q", v.Op)
}

// stringPred resolves the string forms of a predicate — a string column
// compared with a string literal (either side), IN over string literals
// on a string column, and LIKE — to the column's code vector and a
// boolean table indexed by code. ok is false when e is none of them (it
// is then a numeric predicate or not a predicate at all).
func (c *compiler) stringPred(e sqlparse.Expr) (codes []uint32, table []bool, ok bool, err error) {
	var col *storage.Column
	var pred func(string) bool
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		if !isComparison(v.Op) {
			return nil, nil, false, nil
		}
		colRef, lit, op := sqlparse.ColRef{}, "", v.Op
		switch l := v.L.(type) {
		case sqlparse.ColRef:
			r, isLit := v.R.(sqlparse.StringLit)
			if !isLit {
				return nil, nil, false, nil
			}
			colRef, lit = l, r.Val
		case sqlparse.StringLit:
			r, isCol := v.R.(sqlparse.ColRef)
			if !isCol {
				return nil, nil, false, nil
			}
			colRef, lit = r, l.Val
			op = flipOp(op)
		default:
			return nil, nil, false, nil
		}
		if col = c.b.colFor(colRef); col == nil {
			return nil, nil, false, fmt.Errorf("expr: unknown column %s", colRef)
		}
		if col.Def.Kind != storage.String {
			return nil, nil, false, fmt.Errorf("expr: column %s is not a string", colRef)
		}
		pred = func(s string) bool {
			switch op {
			case "=":
				return s == lit
			case "<>":
				return s != lit
			case "<":
				return s < lit
			case "<=":
				return s <= lit
			case ">":
				return s > lit
			case ">=":
				return s >= lit
			}
			return false
		}
	case sqlparse.InExpr:
		cr, isCol := v.X.(sqlparse.ColRef)
		if !isCol {
			return nil, nil, false, nil
		}
		if col = c.b.colFor(cr); col == nil || col.Def.Kind != storage.String {
			return nil, nil, false, nil
		}
		lits := map[string]bool{}
		for _, e := range v.Vals {
			sl, isLit := e.(sqlparse.StringLit)
			if !isLit {
				return nil, nil, false, fmt.Errorf("expr: IN list on string column %s requires string literals", cr)
			}
			lits[sl.Val] = true
		}
		pred = func(s string) bool { return lits[s] != v.Negate }
	case sqlparse.LikeExpr:
		cr, isCol := v.X.(sqlparse.ColRef)
		if !isCol {
			return nil, nil, false, fmt.Errorf("expr: LIKE requires a column reference")
		}
		if col = c.b.colFor(cr); col == nil {
			return nil, nil, false, fmt.Errorf("expr: unknown column %s", cr)
		}
		if col.Def.Kind != storage.String {
			return nil, nil, false, fmt.Errorf("expr: LIKE on non-string column %s", cr)
		}
		m := compileLikePattern(v.Pattern)
		pred = func(s string) bool { return m(s) != v.Negate }
	default:
		return nil, nil, false, nil
	}
	if table, err = stringPredTable(col, pred); err != nil {
		return nil, nil, false, err
	}
	codes = col.AnnCodes()
	if codes == nil {
		// Key column of string kind: domain codes index a (possibly
		// larger) shared dictionary, but the table above was sized to it
		// via Dict(), so the same lookup applies.
		codes = col.KeyCodes()
	}
	return codes, table, true, nil
}

func isComparison(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// stringPredTable evaluates pred once per distinct dictionary value.
func stringPredTable(col *storage.Column, pred func(string) bool) ([]bool, error) {
	d := col.Dict()
	if d == nil {
		return nil, fmt.Errorf("expr: column %s has no dictionary (catalog not frozen?)", col.Def.Name)
	}
	table := make([]bool, d.Len())
	for i := range table {
		table[i] = pred(d.DecodeString(uint32(i)))
	}
	return table, nil
}

// inList evaluates the literal list of a numeric IN.
func (c *compiler) inList(v sqlparse.InExpr) ([]float64, error) {
	vals := make([]float64, len(v.Vals))
	for i, e := range v.Vals {
		f, err := c.compileNum(e)
		if err != nil {
			return nil, err
		}
		if !isConst(e) {
			return nil, fmt.Errorf("expr: IN list requires literals")
		}
		vals[i] = f(0) // literals only; row-independent
	}
	return vals, nil
}

func isConst(e sqlparse.Expr) bool {
	switch v := e.(type) {
	case sqlparse.NumberLit, sqlparse.StringLit, sqlparse.DateLit:
		return true
	case sqlparse.UnaryExpr:
		return v.Op == "-" && isConst(v.X)
	case sqlparse.BinaryExpr:
		return isConst(v.L) && isConst(v.R)
	}
	return false
}

// constNum evaluates a row-independent numeric expression with the row
// closure itself, so a folded constant is bit-identical to what the
// closure yields on every row.
func (c *compiler) constNum(e sqlparse.Expr) (float64, bool) {
	if !isConst(e) {
		return 0, false
	}
	f, err := c.compileNum(e)
	if err != nil {
		return 0, false
	}
	return f(0), true
}

// compileLikePattern builds a matcher for SQL LIKE with % and _.
func compileLikePattern(pat string) func(string) bool {
	// Fast paths for the common shapes.
	if !strings.ContainsAny(pat, "%_") {
		return func(s string) bool { return s == pat }
	}
	if strings.Count(pat, "%") == 2 && strings.HasPrefix(pat, "%") && strings.HasSuffix(pat, "%") {
		inner := pat[1 : len(pat)-1]
		if !strings.ContainsAny(inner, "%_") {
			return func(s string) bool { return strings.Contains(s, inner) }
		}
	}
	if strings.Count(pat, "%") == 1 && strings.HasSuffix(pat, "%") && !strings.Contains(pat, "_") {
		prefix := pat[:len(pat)-1]
		return func(s string) bool { return strings.HasPrefix(s, prefix) }
	}
	if strings.Count(pat, "%") == 1 && strings.HasPrefix(pat, "%") && !strings.Contains(pat, "_") {
		suffix := pat[1:]
		return func(s string) bool { return strings.HasSuffix(s, suffix) }
	}
	// General greedy matcher with backtracking over %.
	return func(s string) bool { return likeMatch(s, pat) }
}

func likeMatch(s, pat string) bool {
	// Dynamic programming over (s index, pattern index).
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

// boolAsNum compiles a predicate used in numeric context to 0/1.
func (c *compiler) boolAsNum(e sqlparse.Expr) (Value, error) {
	f, err := c.compileBool(e)
	if err != nil {
		return nil, err
	}
	return func(row int32) float64 {
		if f(row) {
			return 1
		}
		return 0
	}, nil
}

func (c *compiler) compileNum(e sqlparse.Expr) (Value, error) {
	switch v := e.(type) {
	case sqlparse.NumberLit:
		val := v.Val
		return func(int32) float64 { return val }, nil
	case sqlparse.DateLit:
		val := float64(v.Days)
		return func(int32) float64 { return val }, nil
	case sqlparse.ColRef:
		col := c.b.colFor(v)
		if col == nil {
			return nil, fmt.Errorf("expr: unknown column %s", v)
		}
		switch col.Def.Kind {
		case storage.String:
			return nil, fmt.Errorf("expr: string column %s in numeric context", v)
		}
		if col.Def.Role == storage.Key {
			// Keys participate in numeric expressions via raw values.
			ints := col.Ints
			return func(row int32) float64 { return float64(ints[row]) }, nil
		}
		f := col.AnnFloats()
		if f == nil {
			return nil, fmt.Errorf("expr: column %s has no numeric buffer (catalog not frozen?)", v)
		}
		return func(row int32) float64 { return f[row] }, nil
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "+", "-", "*", "/":
			l, err := c.compileNum(v.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileNum(v.R)
			if err != nil {
				return nil, err
			}
			switch v.Op {
			case "+":
				return func(row int32) float64 { return l(row) + r(row) }, nil
			case "-":
				return func(row int32) float64 { return l(row) - r(row) }, nil
			case "*":
				return func(row int32) float64 { return l(row) * r(row) }, nil
			default:
				return func(row int32) float64 { return l(row) / r(row) }, nil
			}
		default:
			// Boolean in numeric context evaluates to 0/1 (CASE shortcut).
			return c.boolAsNum(v)
		}
	case sqlparse.UnaryExpr:
		if v.Op == "-" {
			x, err := c.compileNum(v.X)
			if err != nil {
				return nil, err
			}
			return func(row int32) float64 { return -x(row) }, nil
		}
		if v.Op == "not" {
			return c.boolAsNum(v)
		}
		return nil, fmt.Errorf("expr: unary %q in numeric context", v.Op)
	case sqlparse.BetweenExpr, sqlparse.InExpr, sqlparse.LikeExpr:
		// Predicate forms in numeric context (e.g. a decomposed CASE
		// condition) evaluate to 0/1 like boolean BinaryExprs do.
		return c.boolAsNum(e)
	case sqlparse.CaseExpr:
		type arm struct {
			cond rowPred
			then Value
		}
		arms := make([]arm, len(v.Whens))
		for i, w := range v.Whens {
			cond, err := c.compileBool(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := c.compileNum(w.Then)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{cond, then}
		}
		var elseV Value = func(int32) float64 { return 0 }
		if v.Else != nil {
			ev, err := c.compileNum(v.Else)
			if err != nil {
				return nil, err
			}
			elseV = ev
		}
		return func(row int32) float64 {
			for _, a := range arms {
				if a.cond(row) {
					return a.then(row)
				}
			}
			return elseV(row)
		}, nil
	case sqlparse.ExtractExpr:
		x, err := c.compileNum(v.X)
		if err != nil {
			return nil, err
		}
		switch v.Unit {
		case "year":
			return func(row int32) float64 { return float64(sqlparse.DateYear(int32(x(row)))) }, nil
		case "month":
			return func(row int32) float64 { return float64(sqlparse.DateMonth(int32(x(row)))) }, nil
		case "day":
			return func(row int32) float64 { return float64(sqlparse.DateDay(int32(x(row)))) }, nil
		}
		return nil, fmt.Errorf("expr: bad EXTRACT unit %q", v.Unit)
	default:
		return nil, fmt.Errorf("expr: unsupported expression %T in numeric context", e)
	}
}
