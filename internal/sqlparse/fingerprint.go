// Query fingerprinting: a canonical, literal-free rendering of a parsed
// statement plus a stable 64-bit hash of it. Two statements share a
// fingerprint exactly when they are the same query *shape* — same
// tables, joins, projections, grouping and predicate structure — no
// matter how their literals, IN-list lengths, whitespace or keyword
// case differ. The per-fingerprint statement store (internal/obs)
// keys on this, the slow-query log carries it, and /debug/statements
// groups workload history by it (the pg_stat_statements model).
//
// Normalization rules:
//
//   - number/string/date/interval literals render as "?" (a unary minus
//     over a literal folds into the placeholder, so x > -5 and x > 5
//     share a shape);
//   - IN-lists collapse: every literal member folds into one "?", so
//     IN (1,2,3) and IN (7) are the same shape (non-literal members,
//     e.g. column references, are kept and keep their order);
//   - LIKE patterns render as "?";
//   - identifiers are already lowercased by the lexer, and rendering
//     from the AST canonicalizes whitespace and keyword case.
//
// Structural properties stay visible: BETWEEN vs two comparisons, NOT
// variants, EXTRACT units, aggregate function names, aliases (they name
// result columns) and qualifier-ed column references all distinguish
// fingerprints.
package sqlparse

import (
	"hash/fnv"
	"strings"
)

// Fingerprint renders the canonical text of a parsed statement and
// returns it with its stable 64-bit FNV-1a fingerprint ID.
func Fingerprint(q *Query) (text string, id uint64) {
	var b strings.Builder
	b.Grow(128)
	normQuery(&b, q)
	text = b.String()
	h := fnv.New64a()
	h.Write([]byte(text))
	return text, h.Sum64()
}

// FingerprintSQL parses sql and fingerprints it (convenience for tools
// and tests; the engine fingerprints the AST it already has).
func FingerprintSQL(sql string) (text string, id uint64, err error) {
	q, err := Parse(sql)
	if err != nil {
		return "", 0, err
	}
	text, id = Fingerprint(q)
	return text, id, nil
}

func normQuery(b *strings.Builder, q *Query) {
	b.WriteString("select ")
	for i := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		normExpr(b, q.Select[i].Expr)
		if a := q.Select[i].Alias; a != "" {
			b.WriteString(" as ")
			b.WriteString(a)
		}
	}
	b.WriteString(" from ")
	for i, t := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Table)
		if t.Alias != "" && t.Alias != t.Table {
			b.WriteString(" as ")
			b.WriteString(t.Alias)
		}
	}
	if q.Where != nil {
		b.WriteString(" where ")
		normExpr(b, q.Where)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			normExpr(b, g)
		}
	}
	if q.Having != nil {
		b.WriteString(" having ")
		normExpr(b, q.Having)
	}
}

// isLiteral reports whether e normalizes to a bare placeholder.
func isLiteral(e Expr) bool {
	switch x := e.(type) {
	case NumberLit, StringLit, DateLit, IntervalLit:
		return true
	case UnaryExpr:
		return x.Op == "-" && isLiteral(x.X)
	}
	return false
}

// HasLiteral reports whether e holds a literal: anything Fingerprint
// renders as "?" (a number, string, date or interval, an IN-list member
// or a LIKE pattern).
func HasLiteral(e Expr) bool {
	var b strings.Builder
	normExpr(&b, e)
	return strings.IndexByte(b.String(), '?') >= 0
}

func normExpr(b *strings.Builder, e Expr) {
	if isLiteral(e) {
		b.WriteByte('?')
		return
	}
	switch x := e.(type) {
	case ColRef:
		if x.Qualifier != "" {
			b.WriteString(x.Qualifier)
			b.WriteByte('.')
		}
		b.WriteString(x.Name)
	case BinaryExpr:
		b.WriteByte('(')
		normExpr(b, x.L)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		normExpr(b, x.R)
		b.WriteByte(')')
	case UnaryExpr:
		b.WriteByte('(')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		normExpr(b, x.X)
		b.WriteByte(')')
	case FuncCall:
		b.WriteString(x.Name)
		if x.Star {
			b.WriteString("(*)")
			return
		}
		b.WriteByte('(')
		if x.Distinct {
			// count(distinct x) and count(x) must fingerprint apart: they
			// are different statements to the planner and the approx tier.
			b.WriteString("distinct ")
		}
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			normExpr(b, a)
		}
		b.WriteByte(')')
	case CaseExpr:
		b.WriteString("case")
		for _, w := range x.Whens {
			b.WriteString(" when ")
			normExpr(b, w.Cond)
			b.WriteString(" then ")
			normExpr(b, w.Then)
		}
		if x.Else != nil {
			b.WriteString(" else ")
			normExpr(b, x.Else)
		}
		b.WriteString(" end")
	case BetweenExpr:
		b.WriteByte('(')
		normExpr(b, x.X)
		if x.Negate {
			b.WriteString(" not")
		}
		b.WriteString(" between ")
		normExpr(b, x.Lo)
		b.WriteString(" and ")
		normExpr(b, x.Hi)
		b.WriteByte(')')
	case InExpr:
		b.WriteByte('(')
		normExpr(b, x.X)
		if x.Negate {
			b.WriteString(" not")
		}
		b.WriteString(" in (")
		// Collapse: all literal members fold into one leading "?";
		// non-literal members survive in order.
		wrote := false
		for _, v := range x.Vals {
			if isLiteral(v) {
				b.WriteByte('?')
				wrote = true
				break
			}
		}
		for _, v := range x.Vals {
			if isLiteral(v) {
				continue
			}
			if wrote {
				b.WriteString(", ")
			}
			normExpr(b, v)
			wrote = true
		}
		b.WriteString("))")
	case LikeExpr:
		b.WriteByte('(')
		normExpr(b, x.X)
		if x.Negate {
			b.WriteString(" not")
		}
		b.WriteString(" like ?)")
	case ExtractExpr:
		b.WriteString("extract(")
		b.WriteString(x.Unit)
		b.WriteString(" from ")
		normExpr(b, x.X)
		b.WriteByte(')')
	default:
		// Unknown node (future AST growth): fall back to its String form
		// so fingerprinting degrades to exact-text rather than colliding.
		b.WriteString(e.String())
	}
}
