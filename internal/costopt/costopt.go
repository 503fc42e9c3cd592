// Package costopt implements LevelHeaded's cost-based optimizer for
// WCOJ attribute ordering (paper §V). For each GHD node it enumerates
// the attribute orders that satisfy the materialized-attributes-first
// rule (plus the §V-A2 one-attribute-union relaxation) and picks the
// one with the fewest estimated prefix bindings (estimate.go): the trie
// nodes the join recursion visits, Σ_k B_k over the order's depths,
// from literal-free row and domain statistics.
//
// That estimate is a deviation from the paper. §V scores an order with
//
//	cost = Σ_i icost(v_i) × weight(v_i)
//
// where icost follows Observation 5.1 (a relation's first trie level is
// likely a bitset, the rest uints; icost(bs∩bs)=1, icost(bs∩uint)=10,
// icost(uint∩uint)=50; completely dense relations cost 0) and weight
// follows Observation 5.2 (highest-cardinality attributes first:
// relation scores are cardinalities relative to the heaviest relation,
// a vertex takes its max-score edge under an equality selection and its
// min-score edge otherwise). That sum does not depend on position, so it
// cannot see that an attribute's intersection runs once per binding of
// the prefix above it: it chose a cross product for TPC-H q10 (orderkey
// bound under nationkey, which shares no relation with it) and let q5
// enumerate orders before the region selection cut its nations. The §V
// cost is kept as Order.Cost: it breaks exact ties between estimates
// (every order of a one-edge node, the orders of a dense join), and it
// is what access-path classification, its drift correction and the
// cost audit price.
package costopt

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/ghd"
	"repro/internal/lru"
	"repro/internal/planner"
	"repro/internal/set"
)

// Intersection cost constants from Fig. 5a.
const (
	costBsBs     = 1
	costBsUint   = 10
	costUintUint = 50
)

// VertexCost records the per-attribute cost terms for EXPLAIN output
// and the Fig. 5b/5c experiments.
type VertexCost struct {
	Vertex string
	ICost  int
	Weight int
}

// Order is a chosen attribute order for one GHD node.
type Order struct {
	// Attrs is the execution order of the node's vertices.
	Attrs []string
	// MatSet marks which attrs are materialized (output) at this node.
	MatSet map[string]bool
	// Relaxed marks the §V-A2 shape: the last attribute is materialized,
	// the second-to-last projected away, executed with a 1-attribute
	// union.
	Relaxed bool
	// Est is the estimated number of prefix bindings the order
	// enumerates, the key order selection minimises. It is 0 on a node
	// with one edge: nothing is intersected there, so every order ties
	// and the §V comparator decides.
	Est float64
	// Cost is the §V sum Σ icost × weight, with Per its terms.
	Cost float64
	Per  []VertexCost
}

// String renders the order for EXPLAIN output.
func (o *Order) String() string {
	s := fmt.Sprintf("order=%v cost=%.0f est=%.0f", o.Attrs, o.Cost, o.Est)
	if o.Relaxed {
		s += " (relaxed: 1-attr union)"
	}
	return s
}

// Choice holds the per-node orders of a plan, plus the access-path
// decisions of the hybrid executor (populated by ClassifyPaths; nil
// or missing entries mean the WCOJ path).
type Choice struct {
	Orders map[*ghd.Node]*Order
	Paths  map[*ghd.Node]*PathInfo
}

// Options configures order selection.
type Options struct {
	// Disabled selects orders the way EmptyHeaded might: bag order with
	// materialized attributes first, no cost model, no relaxation. Used
	// for the LogicBlox comparison column and the Table III ablation.
	Disabled bool
	// PickWorst selects the highest-cost valid order instead of the
	// lowest (the "-Attr. Ord." rows of Table III).
	PickWorst bool
	// Forced pins the order of the root node (Fig. 5b/5c experiments).
	// The listed attributes must be a permutation of the root bag.
	Forced []string
	// ForcedRelaxed marks the forced order as a relaxed (1-attr union)
	// order.
	ForcedRelaxed bool
}

// nodeEdge is one relation (or child-result) edge visible to a node.
type nodeEdge struct {
	vertices []string
	score    int
	selected bool
	dense    bool
	rows     float64 // estimated rows (a child's estimated result size)
}

func (e *nodeEdge) covers(v string) bool {
	for _, x := range e.vertices {
		if x == v {
			return true
		}
	}
	return false
}

// memoCap bounds the order memo. An entry is one Choice of a few orders
// (a few KB), so the bound is by count.
const memoCap = 1024

// memo maps a search input's key to the search's result. The search is
// a pure function of the key, so one memo serves every engine.
var memo = lru.New[memoKey, *Choice](memoCap)

// Choose selects an attribute order for every node of the plan's GHD.
// The result is memoised on everything the search reads (input) and
// shared between callers: it must not be mutated.
func Choose(p *planner.Plan, opts Options) (*Choice, error) {
	if p.GHD == nil {
		return &Choice{Orders: map[*ghd.Node]*Order{}}, nil
	}
	in := newInput(p, opts)
	key := in.key()
	if ch, ok := memo.Get(key); ok {
		return ch, nil
	}
	ch, err := choose(in)
	if err != nil {
		return nil, err
	}
	memo.Put(key, ch)
	return ch, nil
}

// input is everything order selection reads. It is built before the
// search starts and the search reads nothing else, so the memo key —
// its encoding — covers every input by construction. No literal value
// is in it: a filter contributes whether it is an equality selection,
// through density whether it exists, and through the row estimate the
// classes of its conjuncts.
type input struct {
	g    *ghd.GHD // by identity: the GHD memo shares one per hypergraph shape
	rels []relInput
	out  []string // the plan's OutVertices
	opts Options
}

// relInput is what order selection reads of one relation.
type relInput struct {
	vertices []string
	score    int   // §V-B cardinality score
	selected bool  // HasEqualitySelection
	dense    bool  // complete density, the icost-0 case (§V-A1)
	rows     int   // log2 of the estimated rows after the filter
	doms     []int // log2 of each vertex's domain size
}

type memoKey struct {
	// g holds the GHD itself, not its address, so a collected GHD's
	// address cannot be reused by another while the entry lives.
	g   *ghd.GHD
	enc string
}

// newInput reads the plan and relation statistics order selection uses.
func newInput(p *planner.Plan, opts Options) *input {
	scores := relScores(p)
	in := &input{g: p.GHD, rels: make([]relInput, len(p.Rels)), out: p.OutVertices, opts: opts}
	for i := range p.Rels {
		r := &p.Rels[i]
		rows, doms := relStats(r)
		in.rels[i] = relInput{vertices: r.Vertices, score: scores[i], selected: r.HasEqualitySelection,
			dense: relCompletelyDense(r), rows: rows, doms: doms}
	}
	return in
}

// relScores returns each relation's §V-B cardinality score: its live
// rows as a percentage of the heaviest relation's, rounded up, at
// least 1.
func relScores(p *planner.Plan) []int {
	maxCard := 1
	for i := range p.Rels {
		if n := p.Rels[i].Table.LiveRows(); n > maxCard {
			maxCard = n
		}
	}
	scores := make([]int, len(p.Rels))
	for i := range p.Rels {
		scores[i] = max(1, int(math.Ceil(float64(p.Rels[i].Table.LiveRows())/float64(maxCard)*100)))
	}
	return scores
}

// key encodes the input. Every name is quoted and every name list
// bracketed, which keeps the encoding unambiguous; a relation has one
// domain exponent per vertex. It is built with strconv, not fmt: it is
// encoded on every Choose call, memo hit or not.
func (in *input) key() memoKey {
	b := appendNames(nil, in.out)
	for _, r := range in.rels {
		b = appendNames(b, r.vertices)
		b = strconv.AppendInt(b, int64(r.score), 10)
		b = strconv.AppendBool(append(b, ','), r.selected)
		b = strconv.AppendBool(append(b, ','), r.dense)
		b = strconv.AppendInt(append(b, ','), int64(r.rows), 10)
		for _, d := range r.doms {
			b = strconv.AppendInt(append(b, ','), int64(d), 10)
		}
		b = append(b, ';')
	}
	o := in.opts
	b = strconv.AppendBool(append(b, '|'), o.Disabled)
	b = strconv.AppendBool(append(b, ','), o.PickWorst)
	b = strconv.AppendBool(append(appendNames(append(b, ','), o.Forced), ','), o.ForcedRelaxed)
	return memoKey{g: in.g, enc: string(b)}
}

func appendNames(b []byte, names []string) []byte {
	b = append(b, '[')
	for _, n := range names {
		b = strconv.AppendQuote(b, n)
	}
	return append(b, ']')
}

// choose is the uncached search behind Choose.
func choose(in *input) (*Choice, error) {
	c := newChooser(in)
	if err := c.walk(in.g.Root, nil); err != nil {
		return nil, err
	}
	return c.out, nil
}

type chooser struct {
	in        *input
	out       *Choice
	globalPos map[string]int
	globalSeq int
	// domain is N_v: the largest quantized domain size any relation
	// covering v reports (relations sharing a vertex share its domain
	// dictionary).
	domain map[string]float64
}

func newChooser(in *input) *chooser {
	c := &chooser{in: in, out: &Choice{Orders: map[*ghd.Node]*Order{}}, globalPos: map[string]int{},
		domain: map[string]float64{}}
	for _, r := range in.rels {
		for i, v := range r.vertices {
			c.domain[v] = math.Max(c.domain[v], pow2(r.doms[i]))
		}
	}
	return c
}

// relCompletelyDense reports whether the relation's key structure is a
// full cross product of its join domains — the icost-0 case (§V-A1).
func relCompletelyDense(r *planner.RelInfo) bool {
	if len(r.PseudoVertices) > 0 || len(r.Vertices) == 0 {
		return false
	}
	prod := 1.0
	live := r.Table.Live()
	for _, v := range r.Vertices {
		col := live.Col(r.VertexCol[v])
		if col == nil || col.Dict() == nil {
			return false
		}
		prod *= float64(col.Dict().Len())
		if prod > 1e15 {
			return false
		}
	}
	// A filter can break density, so require unfiltered too.
	return r.Filter == nil && prod == float64(live.NumRows)
}

// nodeEdges assembles the edges visible to a node: its relations plus
// one pseudo-edge per child result.
func (c *chooser) nodeEdges(n *ghd.Node) []nodeEdge {
	var edges []nodeEdge
	for _, ei := range n.Edges {
		r := &c.in.rels[ei]
		edges = append(edges, nodeEdge{
			vertices: r.vertices,
			score:    r.score,
			selected: r.selected,
			dense:    r.dense,
			rows:     pow2(r.rows),
		})
	}
	for _, ch := range n.Children {
		shared := intersectStrs(n.Bag, ch.Bag)
		edges = append(edges, nodeEdge{
			vertices: shared,
			score:    c.subtreeMinScore(ch),
			selected: c.subtreeSelected(ch),
			rows:     c.resultRows(ch),
		})
	}
	return edges
}

func (c *chooser) subtreeMinScore(n *ghd.Node) int {
	s := 101
	var rec func(n *ghd.Node)
	rec = func(n *ghd.Node) {
		for _, ei := range n.Edges {
			if c.in.rels[ei].score < s {
				s = c.in.rels[ei].score
			}
		}
		for _, ch := range n.Children {
			rec(ch)
		}
	}
	rec(n)
	if s > 100 {
		s = 1
	}
	return s
}

func (c *chooser) subtreeSelected(n *ghd.Node) bool {
	for _, ei := range n.Edges {
		if c.in.rels[ei].selected {
			return true
		}
	}
	for _, ch := range n.Children {
		if c.subtreeSelected(ch) {
			return true
		}
	}
	return false
}

// walk assigns orders top-down so materialized attributes keep a
// consistent global order across nodes.
func (c *chooser) walk(n *ghd.Node, parent *ghd.Node) error {
	mat := c.materializedAt(n, parent)
	edges := c.nodeEdges(n)
	var chosen *Order
	if forced := c.in.opts.Forced; parent == nil && len(forced) > 0 {
		if err := validatePerm(forced, n.Bag); err != nil {
			return err
		}
		// The order is memoised: keep no alias to the caller's slice.
		chosen = c.scoreOrder(append([]string(nil), forced...), mat, edges, c.in.opts.ForcedRelaxed)
	} else {
		cands := c.candidates(n, mat, edges)
		if len(cands) == 0 {
			return fmt.Errorf("costopt: no valid order for node %v", n.Bag)
		}
		chosen = cands[0]
		for _, cand := range cands[1:] {
			if c.in.opts.PickWorst {
				if better(chosen, cand) {
					chosen = cand
				}
			} else if better(cand, chosen) {
				chosen = cand
			}
		}
	}
	c.out.Orders[n] = chosen
	// Record global positions of materialized attributes.
	for _, v := range chosen.Attrs {
		if chosen.MatSet[v] {
			if _, ok := c.globalPos[v]; !ok {
				c.globalPos[v] = c.globalSeq
				c.globalSeq++
			}
		}
	}
	for _, ch := range n.Children {
		if err := c.walk(ch, n); err != nil {
			return err
		}
	}
	return nil
}

// better orders candidates: primarily by estimated prefix bindings
// (Est), the deviation from §V that sees where in the order each
// intersection runs. An exact Est tie — a one-edge node, the orders of
// a dense join, symmetric LA shapes — falls back to the paper's
// comparator: the §V cost, then Observation 5.2 directly, the heavier
// (higher-weight) attributes first, so the weight sequence is compared
// for lexicographically *descending* preference. A full tie returns
// false, so walk keeps the first-enumerated order; enumeration follows
// bag order, which the planner's sorted vertex naming makes a function
// of the query text. PickWorst maximises the same key.
func better(a, b *Order) bool {
	if a.Est != b.Est {
		return a.Est < b.Est
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	for i := range a.Per {
		if i >= len(b.Per) {
			break
		}
		if a.Per[i].Weight != b.Per[i].Weight {
			return a.Per[i].Weight > b.Per[i].Weight
		}
	}
	return false
}

// materializedAt computes the vertices a node must materialize: the
// plan's output vertices for the root, the parent-shared vertices for
// inner nodes (both restricted to the bag).
func (c *chooser) materializedAt(n *ghd.Node, parent *ghd.Node) map[string]bool {
	mat := map[string]bool{}
	if parent == nil {
		for _, v := range c.in.out {
			if containsStr(n.Bag, v) {
				mat[v] = true
			}
		}
	} else {
		for _, v := range intersectStrs(n.Bag, parent.Bag) {
			mat[v] = true
		}
	}
	return mat
}

// candidates enumerates valid orders: permutations with materialized
// attributes first (respecting the global order), plus relaxed variants.
func (c *chooser) candidates(n *ghd.Node, mat map[string]bool, edges []nodeEdge) []*Order {
	var matAttrs, projAttrs []string
	for _, v := range n.Bag {
		if mat[v] {
			matAttrs = append(matAttrs, v)
		} else {
			projAttrs = append(projAttrs, v)
		}
	}
	var out []*Order
	if c.in.opts.Disabled {
		// EmptyHeaded-style: bag order, materialized first, no cost model.
		order := append(append([]string(nil), matAttrs...), projAttrs...)
		return []*Order{c.scoreOrder(order, mat, edges, false)}
	}
	matPerms := permsRespecting(matAttrs, c.globalPos)
	projPerms := perms(projAttrs)
	for _, mp := range matPerms {
		for _, pp := range projPerms {
			order := append(append([]string(nil), mp...), pp...)
			out = append(out, c.scoreOrder(order, mat, edges, false))
			// §V-A2 relaxation: exactly one projected attribute at the
			// end, preceded by a materialized one — consider the swap.
			if len(pp) == 1 && len(mp) >= 1 {
				sw := append([]string(nil), order...)
				last := len(sw) - 1
				sw[last], sw[last-1] = sw[last-1], sw[last]
				out = append(out, c.scoreOrder(sw, mat, edges, true))
			}
		}
	}
	return out
}

// scoreOrder computes the binding estimate and the §V cost of one
// attribute order.
func (c *chooser) scoreOrder(order []string, mat map[string]bool, edges []nodeEdge, relaxed bool) *Order {
	o := &Order{Attrs: order, MatSet: mat, Relaxed: relaxed}
	if len(edges) > 1 {
		o.Est, _ = c.bindings(order, edges)
	}
	seen := make([]bool, len(edges))
	for _, v := range order {
		var layouts []int // 0 = bs, 1 = uint
		weightLo, weightHi := 101, 0
		selectedVertex := false
		nEdges := 0
		for ei := range edges {
			e := &edges[ei]
			if !e.covers(v) {
				continue
			}
			nEdges++
			if e.score < weightLo {
				weightLo = e.score
			}
			if e.score > weightHi {
				weightHi = e.score
			}
			if e.selected {
				selectedVertex = true
			}
			if !e.dense {
				if seen[ei] {
					layouts = append(layouts, 1)
				} else {
					layouts = append(layouts, 0)
				}
			}
		}
		for ei := range edges {
			if edges[ei].covers(v) {
				seen[ei] = true
			}
		}
		ic := icostOf(layouts)
		w := weightLo
		if selectedVertex {
			w = weightHi
		}
		if nEdges == 0 {
			w = 1
		}
		o.Per = append(o.Per, VertexCost{Vertex: v, ICost: ic, Weight: w})
		o.Cost += float64(ic * w)
	}
	return o
}

// icostOf computes the N-way intersection cost: bitsets first, pairwise
// accumulation with uint = l(bs ∩ uint) (§V-A1).
func icostOf(layouts []int) int {
	if len(layouts) < 2 {
		return 0
	}
	sort.Ints(layouts) // bs (0) first
	cost := 0
	cur := layouts[0]
	for _, l := range layouts[1:] {
		switch {
		case cur == 0 && l == 0:
			cost += costBsBs
			cur = 0
		case cur == 1 && l == 1:
			cost += costUintUint
			cur = 1
		default:
			cost += costBsUint
			cur = 1 // uint = l(bs ∩ uint)
		}
	}
	return cost
}

// perms enumerates permutations (n ≤ 7 in practice).
func perms(items []string) [][]string {
	if len(items) == 0 {
		return [][]string{nil}
	}
	var out [][]string
	var rec func(cur []string, rest []string)
	rec = func(cur []string, rest []string) {
		if len(rest) == 0 {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := range rest {
			next := append([]string(nil), rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(cur, rest[i]), next)
		}
	}
	rec(nil, items)
	return out
}

// permsRespecting enumerates permutations consistent with previously
// assigned global positions (attributes without positions are free).
func permsRespecting(items []string, pos map[string]int) [][]string {
	all := perms(items)
	var out [][]string
	for _, p := range all {
		ok := true
		last := -1
		for _, v := range p {
			if gp, has := pos[v]; has {
				if gp < last {
					ok = false
					break
				}
				last = gp
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

func validatePerm(order, bag []string) error {
	if len(order) != len(bag) {
		return fmt.Errorf("costopt: forced order %v is not a permutation of %v", order, bag)
	}
	have := map[string]bool{}
	for _, v := range bag {
		have[v] = true
	}
	for _, v := range order {
		if !have[v] {
			return fmt.Errorf("costopt: forced order attribute %q not in bag %v", v, bag)
		}
	}
	return nil
}

func containsStr(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func intersectStrs(a, b []string) []string {
	var out []string
	for _, x := range a {
		if containsStr(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// ObservedCost maps measured kernel counts onto the Fig. 5a icost
// scale: each executed intersection weighted by its layout-pair
// constant. This is the "actual" side of the estimate-vs-actual audit —
// the model's Order.Cost predicts Σ icost×weight from cardinality
// scores before running; ObservedCost reprices the intersections the
// node really performed with the same icost constants, so their ratio
// is a per-shape calibration signal (stable ≈ model tracks the data;
// drifting across epochs ≈ appends/compaction changed the workload
// under the plan).
func ObservedCost(st *set.Stats) float64 {
	return float64(st.BsBs)*costBsBs +
		float64(st.BsUint)*costBsUint +
		float64(st.UintUintMerge+st.UintUintGallop)*costUintUint +
		float64(st.Probes)*costLazyProbe
}

// RelaxedValid reports whether an order satisfies the §V-A2 execution
// conditions given its materialized set.
func RelaxedValid(o *Order) bool {
	n := len(o.Attrs)
	if n < 2 {
		return false
	}
	return o.MatSet[o.Attrs[n-1]] && !o.MatSet[o.Attrs[n-2]]
}
