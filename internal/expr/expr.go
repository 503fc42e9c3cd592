// Package expr compiles the scalar sub-expressions of a SQL query over a
// single relation's columnar buffers into block kernels (block.go):
// predicates become selection kernels and numeric expressions value
// kernels over blocks of up to BlockSize row ids. It is the engine's one
// scalar evaluator. Scans, filtered trie builds and the approximate tier
// use it for row selection and per-row annotation values (paper §IV-A
// rule 3, e.g. l_extendedprice * (1 - l_discount)); the token columns
// of GROUP BY items resolved through a primary key are one value-kernel
// pass over the key's table.
//
// Every kernel performs, per row, one float64 operation per operator in
// the expression's own association, and literal subexpressions fold to
// constants with the same operations, so a value does not depend on the
// block it was computed in or on folding.
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

type compiler struct {
	b *Binding
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

// inList folds the literal list of a numeric IN. A member that is not a
// literal reports its own compile error first, if it has one.
func (c *compiler) inList(v sqlparse.InExpr) ([]float64, error) {
	vals := make([]float64, len(v.Vals))
	for i, e := range v.Vals {
		k, ok := constNum(e)
		if !ok {
			if _, err := c.blockNum(e); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("expr: IN list requires literals")
		}
		vals[i] = k
	}
	return vals, nil
}

// constNum folds a row-independent numeric expression — number and date
// literals under unary minus and + - * / — with the float64 operations
// and association the value kernels use, so a folded constant is
// bit-identical to the kernel's value at every row.
func constNum(e sqlparse.Expr) (float64, bool) {
	switch v := e.(type) {
	case sqlparse.NumberLit:
		return v.Val, true
	case sqlparse.DateLit:
		return float64(v.Days), true
	case sqlparse.UnaryExpr:
		if v.Op != "-" {
			return 0, false
		}
		x, ok := constNum(v.X)
		return -x, ok
	case sqlparse.BinaryExpr:
		op, ok := ariths[v.Op]
		if !ok {
			return 0, false
		}
		l, ok := constNum(v.L)
		if !ok {
			return 0, false
		}
		r, ok := constNum(v.R)
		if !ok {
			return 0, false
		}
		switch op {
		case arAdd:
			return l + r, true
		case arSub:
			return l - r, true
		case arMul:
			return l * r, true
		default:
			return l / r, true
		}
	}
	return 0, false
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
