// Package approx is the approximate query tier: shape analysis, routing
// and bound math for single-table aggregate queries that can answer from
// a per-table summary (HyperLogLog cardinalities, a uniform reservoir
// sample of row ids) instead of exact execution, reporting an explicit
// error bound with every estimate. It owns no evaluator of its own: a
// sample answer is the planner's single-relation scan (exec.RunScan)
// restricted to the sampled row ids and scaled, and an HLL answer reads
// the sketches. Exact COUNT(DISTINCT) is a scan aggregate of the normal
// pipeline, so the sketches anchor on the same code path as every
// other single-table aggregate.
//
// The tier is strictly opt-in (QueryOptions.ApproxOK): without the
// opt-in nothing is served here, and a declined shape falls through to
// the normal engine untouched.
package approx

import (
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
// the table it was analyzed against, whose columns its WHERE compiles
// over.
type Shape struct {
	Where   sqlparse.Expr
	GroupBy []string
	Aggs    []Agg
	Out     []OutCol

	HasDistinct bool
	HasMinMax   bool

	tab *storage.Table
	q   *sqlparse.Query // the analyzed query, re-planned by EvalSample
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
	sh := &Shape{tab: t, q: q}
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
		if _, err := expr.CompilePred(q.Where, &expr.Binding{Alias: alias, Table: t}); err != nil {
			return nil, false
		}
		sh.Where = q.Where
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
// everything else scales. A primary-key group holds at most one sampled
// row, so grouping by one is declined too (its metadata decode would
// also read the whole key column, which a sample read must not).
func (sh *Shape) Sampleable() bool {
	for _, g := range sh.GroupBy {
		if sh.tab.Schema.Col(g).PK {
			return false
		}
	}
	return !sh.HasDistinct && !sh.HasMinMax
}
