package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/costopt"
	"repro/internal/planner"
	"repro/internal/tpch"
)

// rootOrder is one valid root attribute order: materialized attributes
// first, optionally in the §V-A2 relaxed shape.
type rootOrder struct {
	attrs   []string
	relaxed bool
}

func (o rootOrder) String() string {
	if o.relaxed {
		return fmt.Sprintf("%v relaxed", o.attrs)
	}
	return fmt.Sprint(o.attrs)
}

// validRootOrders enumerates every order of the root bag that costopt
// could choose: a permutation of the materialized attributes followed
// by one of the rest, plus the relaxed swap when exactly one attribute
// is projected away.
func validRootOrders(p *planner.Plan) []rootOrder {
	var mat, proj []string
	for _, v := range p.GHD.Root.Bag {
		isOut := false
		for _, o := range p.OutVertices {
			isOut = isOut || o == v
		}
		if isOut {
			mat = append(mat, v)
		} else {
			proj = append(proj, v)
		}
	}
	var out []rootOrder
	for _, mp := range permStrs(mat) {
		for _, pp := range permStrs(proj) {
			ord := append(append([]string(nil), mp...), pp...)
			out = append(out, rootOrder{attrs: ord})
			if len(pp) == 1 && len(mp) >= 1 {
				sw := append([]string(nil), ord...)
				n := len(sw)
				sw[n-1], sw[n-2] = sw[n-2], sw[n-1]
				out = append(out, rootOrder{attrs: sw, relaxed: true})
			}
		}
	}
	return out
}

func permStrs(xs []string) [][]string {
	if len(xs) == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for i := range xs {
		rest := append(append([]string(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permStrs(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}

// isectWork runs sql on the WCOJ path with the given root order (nil:
// the chosen one) and sums the intersections of every GHD node.
func isectWork(t *testing.T, eng *Engine, sql string, o *rootOrder) uint64 {
	t.Helper()
	qo := QueryOptions{ForcePath: costopt.PathWCOJ, Threads: 1}
	if o != nil {
		qo.ForcedOrder, qo.ForcedRelaxed = o.attrs, o.relaxed
	}
	res, err := eng.QueryWithContext(context.Background(), sql, qo)
	if err != nil {
		t.Fatalf("%v: %v", o, err)
	}
	var n uint64
	for _, nc := range res.Stats.NodeCosts {
		n += nc.Isect
	}
	return n
}

// TestChosenOrderNearMinimumWork runs every valid root order of q3, q5,
// q9 and q10 (relaxed ones included) on the WCOJ path at SF 0.01 and
// counts each one's intersections over all GHD nodes: the order the
// optimizer picks may do at most 1.25× the work of the cheapest.
func TestChosenOrderNearMinimumWork(t *testing.T) {
	eng := New()
	if _, err := tpch.Populate(eng.Catalog(), 0.01, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"q3", "q5", "q9", "q10"} {
		sql := tpch.Queries[name]
		p, _, err := eng.Prepare(sql, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		chosen := isectWork(t, eng, sql, nil)
		best, bestOrder := ^uint64(0), rootOrder{}
		for _, o := range validRootOrders(p) {
			if w := isectWork(t, eng, sql, &o); w < best {
				best, bestOrder = w, o
			}
		}
		if float64(chosen) > 1.25*float64(best) {
			t.Errorf("%s: chosen order does %d intersections, %s does %d (%.2f×)",
				name, chosen, bestOrder, best, float64(chosen)/float64(best))
		}
	}
}
