package sqlparse

import (
	"fmt"
	"strings"
	"time"
)

// Query is a parsed SELECT statement.
type Query struct {
	Select  []SelectItem
	From    []TableRef
	Where   Expr // nil when absent; otherwise a boolean expression
	GroupBy []Expr
	Having  Expr // nil when absent; boolean over aggregates
}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef is one FROM-list entry. Alias defaults to the table name.
type TableRef struct {
	Table string
	Alias string
}

// Expr is a SQL expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Qualifier string // "" when unqualified
	Name      string
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Val   float64
	IsInt bool
}

// StringLit is a string literal.
type StringLit struct{ Val string }

// DateLit is a date literal, stored as days since 1970-01-01.
type DateLit struct{ Days int32 }

// IntervalLit is an INTERVAL 'n' DAY/MONTH/YEAR literal.
type IntervalLit struct {
	N    int
	Unit string // "day", "month", "year"
}

// BinaryExpr applies Op to L and R. Op is one of
// + - * / = <> < <= > >= and or.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr is -x or NOT x.
type UnaryExpr struct {
	Op string // "-" or "not"
	X  Expr
}

// FuncCall is an aggregate or scalar function call. Star marks COUNT(*);
// Distinct marks COUNT(DISTINCT col) (the only distinct aggregate the
// engine accepts — the planner rejects distinct on other functions).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// CaseExpr is CASE WHEN c1 THEN v1 [...] [ELSE e] END.
type CaseExpr struct {
	Whens []WhenClause
	Else  Expr // nil means NULL→0 semantics in this engine
}

// WhenClause is one WHEN/THEN arm.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// BetweenExpr is x BETWEEN lo AND hi (inclusive).
type BetweenExpr struct {
	X, Lo, Hi Expr
	Negate    bool
}

// InExpr is x IN (v1, v2, ...).
type InExpr struct {
	X      Expr
	Vals   []Expr
	Negate bool
}

// LikeExpr is x LIKE pattern with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern string
	Negate  bool
}

// ExtractExpr is EXTRACT(unit FROM x).
type ExtractExpr struct {
	Unit string // "year", "month", "day"
	X    Expr
}

// Unqualified returns e with every column reference's qualifier
// dropped. An expression over one relation renders the same under every
// alias of that relation.
func Unqualified(e Expr) Expr {
	switch x := e.(type) {
	case ColRef:
		return ColRef{Name: x.Name}
	case BinaryExpr:
		return BinaryExpr{Op: x.Op, L: Unqualified(x.L), R: Unqualified(x.R)}
	case UnaryExpr:
		return UnaryExpr{Op: x.Op, X: Unqualified(x.X)}
	case FuncCall:
		x.Args = unqualifiedAll(x.Args)
		return x
	case CaseExpr:
		whens := make([]WhenClause, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = WhenClause{Cond: Unqualified(w.Cond), Then: Unqualified(w.Then)}
		}
		x.Whens = whens
		if x.Else != nil {
			x.Else = Unqualified(x.Else)
		}
		return x
	case BetweenExpr:
		x.X, x.Lo, x.Hi = Unqualified(x.X), Unqualified(x.Lo), Unqualified(x.Hi)
		return x
	case InExpr:
		x.X, x.Vals = Unqualified(x.X), unqualifiedAll(x.Vals)
		return x
	case LikeExpr:
		x.X = Unqualified(x.X)
		return x
	case ExtractExpr:
		x.X = Unqualified(x.X)
		return x
	}
	return e
}

func unqualifiedAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Unqualified(e)
	}
	return out
}

func (ColRef) exprNode()      {}
func (NumberLit) exprNode()   {}
func (StringLit) exprNode()   {}
func (DateLit) exprNode()     {}
func (IntervalLit) exprNode() {}
func (BinaryExpr) exprNode()  {}
func (UnaryExpr) exprNode()   {}
func (FuncCall) exprNode()    {}
func (CaseExpr) exprNode()    {}
func (BetweenExpr) exprNode() {}
func (InExpr) exprNode()      {}
func (LikeExpr) exprNode()    {}
func (ExtractExpr) exprNode() {}

func (e ColRef) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

func (e NumberLit) String() string {
	if e.IsInt {
		return fmt.Sprintf("%d", int64(e.Val))
	}
	return fmt.Sprintf("%g", e.Val)
}

func (e StringLit) String() string { return "'" + e.Val + "'" }

func (e DateLit) String() string {
	return "date '" + DaysToDate(e.Days) + "'"
}

func (e IntervalLit) String() string { return fmt.Sprintf("interval '%d' %s", e.N, e.Unit) }

func (e BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

func (e UnaryExpr) String() string { return "(" + e.Op + " " + e.X.String() + ")" }

func (e FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	if e.Distinct {
		// Distinct-ness is part of the call's identity: String() drives
		// aggregate dedup in refeval and exprEq everywhere.
		return e.Name + "(distinct " + strings.Join(args, ", ") + ")"
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func (e CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("case")
	for _, w := range e.Whens {
		fmt.Fprintf(&b, " when %s then %s", w.Cond, w.Then)
	}
	if e.Else != nil {
		fmt.Fprintf(&b, " else %s", e.Else)
	}
	b.WriteString(" end")
	return b.String()
}

func (e BetweenExpr) String() string {
	op := "between"
	if e.Negate {
		op = "not between"
	}
	return fmt.Sprintf("(%s %s %s and %s)", e.X, op, e.Lo, e.Hi)
}

func (e InExpr) String() string {
	vals := make([]string, len(e.Vals))
	for i, v := range e.Vals {
		vals[i] = v.String()
	}
	op := "in"
	if e.Negate {
		op = "not in"
	}
	return fmt.Sprintf("(%s %s (%s))", e.X, op, strings.Join(vals, ", "))
}

func (e LikeExpr) String() string {
	op := "like"
	if e.Negate {
		op = "not like"
	}
	return fmt.Sprintf("(%s %s '%s')", e.X, op, e.Pattern)
}

func (e ExtractExpr) String() string {
	return fmt.Sprintf("extract(%s from %s)", e.Unit, e.X)
}

// epoch is day zero of the engine's date representation.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// ParseDate converts 'YYYY-MM-DD' to days since 1970-01-01.
func ParseDate(s string) (int32, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("sql: bad date %q: %v", s, err)
	}
	return int32(t.Sub(epoch).Hours() / 24), nil
}

// DaysToDate converts days since 1970-01-01 back to 'YYYY-MM-DD'.
func DaysToDate(days int32) string {
	return epoch.AddDate(0, 0, int(days)).Format("2006-01-02")
}

// AddInterval shifts a day count by an interval (calendar-aware for
// months and years).
func AddInterval(days int32, n int, unit string) int32 {
	t := epoch.AddDate(0, 0, int(days))
	switch unit {
	case "day":
		t = t.AddDate(0, 0, n)
	case "month":
		t = t.AddDate(0, n, 0)
	case "year":
		t = t.AddDate(n, 0, 0)
	}
	return int32(t.Sub(epoch).Hours() / 24)
}

// DateYear extracts the calendar year of a day count.
func DateYear(days int32) int {
	return epoch.AddDate(0, 0, int(days)).Year()
}

// DateMonth extracts the calendar month (1-12) of a day count.
func DateMonth(days int32) int {
	return int(epoch.AddDate(0, 0, int(days)).Month())
}

// DateDay extracts the day-of-month of a day count.
func DateDay(days int32) int {
	return epoch.AddDate(0, 0, int(days)).Day()
}
