// Package approx is the approximate query tier: a scan-shaped
// evaluator over single-table aggregate queries that can answer from a
// per-table summary (HyperLogLog cardinalities, a uniform reservoir
// sample of row ids) instead of the full WCOJ pipeline,
// reporting an explicit error bound with every estimate. It also owns
// the exact hash-set evaluation of COUNT(DISTINCT col) — a shape the
// trie engine does not execute — so the sketches always have an exact
// anchor on the same code path. Its WHERE runs through the engine's one
// scalar evaluator (internal/expr), so the tier accepts exactly the
// predicates the exact pipeline does.
//
// The tier is strictly opt-in (QueryOptions.ApproxOK): without the
// opt-in the only shape served here is the exact distinct scan, and
// every other query falls through to the normal engine untouched.
package approx

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Agg is one aggregate call of a supported shape.
type Agg struct {
	Fn       string // count | sum | avg | min | max
	Col      string // argument column name; "" for count(*)
	Distinct bool   // count(distinct Col)
}

// OutCol maps one SELECT position to its source: a GROUP BY column
// (Group ≥ 0) or an aggregate (Agg ≥ 0).
type OutCol struct {
	Name  string
	Group int
	Agg   int
}

// Shape is a supported single-table aggregate query: optional WHERE
// over the table's columns, plain-column GROUP BY, and SELECT items
// that are either group columns or bare aggregate calls. It is bound to
// the table it was analyzed against: the WHERE is compiled over that
// table's columns and every Eval reads them.
type Shape struct {
	Table   string
	Where   sqlparse.Expr
	GroupBy []string
	Aggs    []Agg
	Out     []OutCol

	HasDistinct bool
	HasMinMax   bool

	tab  *storage.Table
	pred *expr.Pred // compiled Where; nil without one
}

// Analyze reports whether q is a supported shape over the
// snapshot-resolved table t. A (nil, false) return means "not this
// tier's query" — the caller falls through to the normal engine, whose
// planner produces the authoritative error for unsupported distinct
// shapes and for a WHERE the expression compiler rejects.
func Analyze(q *sqlparse.Query, t *storage.Table) (*Shape, bool) {
	if len(q.From) != 1 || q.Having != nil {
		return nil, false
	}
	alias := q.From[0].Alias
	if alias == "" {
		alias = q.From[0].Table
	}
	sh := &Shape{Table: q.From[0].Table, tab: t}
	sch := &t.Schema

	resolve := func(cr sqlparse.ColRef) (string, bool) {
		if cr.Qualifier != "" && cr.Qualifier != alias {
			return "", false
		}
		if sch.Col(cr.Name) == nil {
			return "", false
		}
		return cr.Name, true
	}

	for _, ge := range q.GroupBy {
		cr, ok := ge.(sqlparse.ColRef)
		if !ok {
			return nil, false
		}
		name, ok := resolve(cr)
		if !ok {
			return nil, false
		}
		sh.GroupBy = append(sh.GroupBy, name)
	}

	addAgg := func(a Agg) int {
		for i, b := range sh.Aggs {
			if b == a {
				return i
			}
		}
		sh.Aggs = append(sh.Aggs, a)
		return len(sh.Aggs) - 1
	}

	for _, it := range q.Select {
		out := OutCol{Name: selectName(it), Group: -1, Agg: -1}
		switch e := it.Expr.(type) {
		case sqlparse.ColRef:
			name, ok := resolve(e)
			if !ok {
				return nil, false
			}
			gi := -1
			for i, g := range sh.GroupBy {
				if g == name {
					gi = i
				}
			}
			if gi < 0 {
				return nil, false
			}
			out.Group = gi
		case sqlparse.FuncCall:
			a, ok := analyzeAgg(e, sch, resolve)
			if !ok {
				return nil, false
			}
			out.Agg = addAgg(a)
		default:
			return nil, false
		}
		sh.Out = append(sh.Out, out)
	}
	if len(sh.Out) == 0 {
		return nil, false
	}

	for _, a := range sh.Aggs {
		if a.Distinct {
			sh.HasDistinct = true
		}
		if a.Fn == "min" || a.Fn == "max" {
			sh.HasMinMax = true
		}
	}

	if q.Where != nil {
		pred, err := expr.CompilePred(q.Where, &expr.Binding{Alias: alias, Table: t})
		if err != nil {
			return nil, false
		}
		sh.Where, sh.pred = q.Where, pred
	}
	return sh, true
}

// analyzeAgg validates one aggregate call: count(*) / count(col) /
// count(distinct col), and sum/avg/min/max over a numeric column.
func analyzeAgg(fc sqlparse.FuncCall, sch *storage.Schema, resolve func(sqlparse.ColRef) (string, bool)) (Agg, bool) {
	switch fc.Name {
	case "count", "sum", "avg", "min", "max":
	default:
		return Agg{}, false
	}
	if fc.Star || len(fc.Args) == 0 {
		if fc.Name != "count" || fc.Distinct {
			return Agg{}, false
		}
		return Agg{Fn: "count"}, true
	}
	if len(fc.Args) != 1 {
		return Agg{}, false
	}
	cr, ok := fc.Args[0].(sqlparse.ColRef)
	if !ok {
		return Agg{}, false
	}
	name, ok := resolve(cr)
	if !ok {
		return Agg{}, false
	}
	if fc.Distinct && fc.Name != "count" {
		return Agg{}, false
	}
	if !fc.Distinct && fc.Name != "count" && sch.Col(name).Kind == storage.String {
		// String columns have no numeric aggregate; let the normal
		// pipeline produce its own error.
		return Agg{}, false
	}
	if fc.Name == "count" && !fc.Distinct {
		// COUNT(col) counts rows in this engine (no NULLs): same as
		// count(*), keep the argument for the output name only.
		return Agg{Fn: "count", Col: name}, true
	}
	return Agg{Fn: fc.Name, Col: name, Distinct: fc.Distinct}, true
}

func selectName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

// Sketchable reports whether the shape can be answered from the
// whole-table HLL sketches alone: no filter, no grouping, and only
// count / count-distinct reads, at least one of them distinct
// (count(*) alone is exact from the row count; nothing to approximate).
func (sh *Shape) Sketchable() bool {
	if sh.Where != nil || len(sh.GroupBy) != 0 || !sh.HasDistinct {
		return false
	}
	for _, a := range sh.Aggs {
		if a.Fn != "count" {
			return false
		}
	}
	return true
}

// Sampleable reports whether the shape can be answered from a uniform
// row sample: distinct and min/max have no unbiased sample estimator,
// everything else scales.
func (sh *Shape) Sampleable() bool {
	return !sh.HasDistinct && !sh.HasMinMax
}

func (sh *Shape) String() string {
	return fmt.Sprintf("approx shape: table=%s groups=%d aggs=%d distinct=%t",
		sh.Table, len(sh.GroupBy), len(sh.Aggs), sh.HasDistinct)
}
