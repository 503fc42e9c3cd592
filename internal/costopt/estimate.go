// Prefix-binding estimate: how many trie nodes an attribute order makes
// the join recursion visit. Walking the order, the bindings at depth k
// are
//
//	B_k = B_{k-1} · N_v · Π_{e ∋ v} fanout_e(v) / N_v
//	fanout_e(v) = D_e(bound ∪ {v}) / D_e(bound)
//	D_e(X) = min(rows_e, Π_{x∈X} D_e(x)),  D_e(x) = min(rows_e, N_x)
//
// with N_v the vertex's domain size, and Order.Est = Σ_k B_k. The
// statistics are literal-free: rows is the live row count times a
// Selinger default selectivity per filter conjunct class, and every
// statistic is rounded to a power of two before the search reads it, so
// the memo key can hold it and small appends leave the key unchanged.
// Products and quotients of powers of two are exact in float64, so
// equal estimates compare equal and ties fall to the §V comparator
// deterministically.
package costopt

import (
	"math"

	"repro/internal/ghd"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Selinger's default selectivities by conjunct class (the literal
// itself is never read). An equality on a dictionary-encoded column
// uses 1/|dict| instead of selEq.
const (
	selEq      = 1.0 / 10
	selRange   = 1.0 / 3
	selBetween = 1.0 / 4
	selLike    = 1.0 / 10
)

// log2Step rounds a statistic to the nearest power of two and returns
// the exponent (0 for anything up to 1): round(log2 x), read off the
// float's exponent and a mantissa comparison with √½.
func log2Step(x float64) int {
	if x <= 1 {
		return 0
	}
	frac, exp := math.Frexp(x) // x = frac · 2^exp, frac in [½, 1)
	if frac < math.Sqrt2/2 {
		return exp - 1
	}
	return exp
}

// relStats returns a relation's quantized statistics as log2
// exponents: its rows after the filter, and the domain size of each of
// its vertices (the dictionary size; the row count for a pseudo-vertex
// column without one).
func relStats(r *planner.RelInfo) (rows int, doms []int) {
	live := r.Table.Live()
	rows = log2Step(float64(live.NumRows) * selectivity(r.Filter, live))
	doms = make([]int, len(r.Vertices))
	for i, v := range r.Vertices {
		n := live.NumRows
		if col := live.Col(r.VertexCol[v]); col != nil && col.Dict() != nil {
			n = col.Dict().Len()
		}
		doms[i] = log2Step(float64(n))
	}
	return rows, doms
}

// selectivity estimates the fraction of t's rows a filter keeps:
// conjuncts multiply, disjuncts add (capped at 1), a negation takes the
// complement, and a predicate of no known class keeps every row.
func selectivity(e sqlparse.Expr, t *storage.Table) float64 {
	switch x := e.(type) {
	case nil:
		return 1
	case sqlparse.BinaryExpr:
		switch x.Op {
		case "and":
			return selectivity(x.L, t) * selectivity(x.R, t)
		case "or":
			return math.Min(1, selectivity(x.L, t)+selectivity(x.R, t))
		case "=":
			return eqSel(x.L, x.R, t)
		case "<>":
			return 1 - eqSel(x.L, x.R, t)
		case "<", "<=", ">", ">=":
			return selRange
		}
	case sqlparse.UnaryExpr:
		if x.Op == "not" {
			return 1 - selectivity(x.X, t)
		}
	case sqlparse.BetweenExpr:
		return negated(selBetween, x.Negate)
	case sqlparse.LikeExpr:
		return negated(selLike, x.Negate)
	case sqlparse.InExpr:
		return negated(math.Min(1, float64(len(x.Vals))*eqSel(x.X, nil, t)), x.Negate)
	}
	return 1
}

func negated(s float64, neg bool) float64 {
	if neg {
		return 1 - s
	}
	return s
}

// eqSel is the selectivity of l = r: 1/|dict| when one side is a
// dictionary-encoded column and the other is not a column, 1/10
// otherwise.
func eqSel(l, r sqlparse.Expr, t *storage.Table) float64 {
	lc, lok := l.(sqlparse.ColRef)
	rc, rok := r.(sqlparse.ColRef)
	var c sqlparse.ColRef
	switch {
	case lok && !rok:
		c = lc
	case rok && !lok:
		c = rc
	default:
		return selEq
	}
	if col := t.Col(c.Name); col != nil && col.Dict() != nil && col.Dict().Len() > 0 {
		return 1 / float64(col.Dict().Len())
	}
	return selEq
}

// pow2 turns a quantized exponent back into its statistic.
func pow2(exp int) float64 { return math.Ldexp(1, exp) }

// distinct is D_e(x) for a vertex of domain size nv, and capRows is
// D_e over a vertex set whose D_e(x) multiply to prod. A completely
// dense relation is the full cross product of its domains, so neither
// is capped by its rows: rows and domain sizes round independently, and
// capping would price the orders of a dense join differently when none
// is better.
func (e *nodeEdge) distinct(nv float64) float64 {
	if e.dense {
		return nv
	}
	return math.Min(e.rows, nv)
}

func (e *nodeEdge) capRows(prod float64) float64 {
	if e.dense {
		return prod
	}
	return math.Min(e.rows, prod)
}

// bindings walks an order and returns Σ_k B_k and the final B_n — the
// estimated size of the node's full join, the same for every order.
func (c *chooser) bindings(order []string, edges []nodeEdge) (sum, last float64) {
	prod := make([]float64, len(edges)) // Π D_e(x) over e's bound vertices
	for i := range prod {
		prod[i] = 1
	}
	b := 1.0
	for _, v := range order {
		nv := c.domain[v]
		b *= nv
		for ei := range edges {
			e := &edges[ei]
			if !e.covers(v) {
				continue
			}
			before := e.capRows(prod[ei])
			prod[ei] *= e.distinct(nv)
			b *= e.capRows(prod[ei]) / before / nv
		}
		sum += b
	}
	return sum, b
}

// resultRows estimates a child node's result — the edge its parent
// sees — as the child bag's own join estimate (at least one row).
func (c *chooser) resultRows(n *ghd.Node) float64 {
	_, r := c.bindings(n.Bag, c.nodeEdges(n))
	return math.Max(1, r)
}
