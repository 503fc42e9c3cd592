package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/costopt"
	"repro/internal/dict"
	"repro/internal/expr"
	"repro/internal/ghd"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trie"
)

// multAnn is the implicit duplicate-multiplicity annotation attached to
// every query trie (one 1.0 per source row, sum-combined).
const multAnn = "__mult"

// part identifies one relation's participation at one node level.
type part struct {
	rel int // index into cNode.rels
	lvl int // that relation's trie level for this attribute
}

// cRel is a compiled relation: a query trie plus bookkeeping.
type cRel struct {
	relIdx  int // index into plan.Rels; -1 for a child result
	alias   string
	ix      *trie.Lazy // nil for a child result until runNode builds it
	attrs   []string   // vertex per trie level, in node order
	hasDups bool
	mult    []float64 // the __mult buffer; bound by cNode.bind when hasDups
	child   *cNode    // non-nil for child results
}

// cAgg is a compiled aggregate at one node.
type cAgg struct {
	kind     planner.AggKind
	skel     *planner.EmitNode
	leafAnns []string    // per leaf: annotation name on its relation's trie
	leafBufs [][]float64 // per leaf: that pre-aggregated buffer, set by cNode.bind
	leafRels []int       // per leaf: rel index in cNode.rels
	multRels []int       // rels whose multiplicity multiplies in
}

// leafFactor is one factor of an aggregate's per-tuple value at a
// compiled leaf: a constant (rel < 0), or an annotation buffer read at
// rel's last-level rank.
type leafFactor struct {
	c    float64
	buf  []float64 // bound by cNode.bind
	rel  int       // index into cNode.rels; -1 for a constant
	lvl  int       // rel's last trie level
	leaf int       // the cAgg leaf whose buffer this is; -1 for a multiplicity
	part int       // rel's participant index at the leaf level; -1 when bound above it
}

// leafChain is one aggregate's per-tuple value at a compiled leaf: the
// product of fs, left-associated in the order evalAgg multiplies. The
// factors before split stay fixed along a leaf run.
type leafChain struct {
	fs    []leafFactor
	split int // index of the first factor read at a leaf rank (len(fs) when none is)
}

// leafKernelOff makes compile leave every leaf to the per-tuple emit
// path (tests compare the two).
var leafKernelOff bool

// cNode is a compiled GHD node.
type cNode struct {
	gnode      *ghd.Node
	order      []string
	est        *costopt.Order // the chosen order with its estimates (est-vs-actual audit)
	relaxed    bool
	rels       []*cRel
	parts      [][]part
	nLevels    int
	matCount   int // leading materialized levels (excludes the relaxed tail)
	aggs       []cAgg
	children   []*cNode
	lastDomain int // code-space size of the last attribute (relaxed union)
	// hashEmit: aggregate into a hash table keyed by metadata tokens at
	// emit time (plan.HashEmit); hgroups computes one token per GROUP BY
	// item from the current vertex bindings.
	hashEmit bool
	hgroups  []hashGroup
	// aggKinds mirrors aggs[i].kind so the aggregation table can combine
	// without reaching back into the node.
	aggKinds []planner.AggKind
	// path is the access path this node executes (costopt.PathWCOJ or
	// costopt.PathBinary); pinfo carries the priced alternatives when the
	// classifier ran (nil under ablations/forced orders).
	path  string
	pinfo *costopt.PathInfo
	// leaf, one chain per aggregate, is the compiled leaf level: when
	// set, the last level folds each candidate block in one loop
	// (worker.foldLeaf) instead of emitting tuple by tuple.
	leaf []leafChain
}

// hashGroup computes the emit-time group token of one GROUP BY item: a
// load from its token column at the item's vertex binding.
type hashGroup struct {
	level  int // position of the item's vertex in the node order
	domain int // token code-space size when known (> 0), else 0
	toks   []uint64
}

// absentTok marks a token-column entry whose code has no metadata row.
// CanonFloatBits never returns it (every NaN is the one quiet NaN), and a
// string annotation code has 32 bits.
const absentTok = math.MaxUint64

// metaTok loads the token of a code from a token column; ok is false for
// an absent code, including one minted after the column was built (a
// shared join domain grows through appends to other tables).
func metaTok(toks []uint64, code uint32) (tok uint64, ok bool) {
	if int(code) >= len(toks) {
		return 0, false
	}
	tok = toks[code]
	return tok, tok != absentTok
}

// pseudoDecoder decodes pseudo-vertex codes back to values.
type pseudoDecoder struct {
	strDict *dict.Dictionary // string pseudo: per-column dictionary
	numVals []float64        // numeric pseudo: code → value
	isDate  bool
}

// groupDecoder turns a result tuple into one GROUP BY output value.
type groupDecoder struct {
	item planner.GroupItem
	pos  int // index of the vertex within the root's materialized key
	// GroupVertex decode:
	domain *dict.Dictionary
	// GroupPseudo decode:
	pseudo *pseudoDecoder
	// GroupMeta decode (the metadata container M): the token column, and
	// a string item's dictionary.
	toks     []uint64
	metaDict *dict.Dictionary
	metaDate bool
	outKind  Kind
}

type compiled struct {
	p      *planner.Plan
	cat    *storage.Catalog
	opts   Options
	root   *cNode
	groups []groupDecoder
	// pseudo holds the numeric pseudo-vertex decoders a scan built with
	// its code columns, by column name; the group decoders reuse them.
	pseudo map[string]*pseudoDecoder
	// execSpan is the execute-phase span the dispatch kernels parent
	// their kernel spans under (SpanID(0) when telemetry is off).
	execSpan obs.SpanID
}

// compile builds query tries for every relation of every GHD node and
// resolves metadata lookups and group decoders.
func compile(p *planner.Plan, ch *costopt.Choice, cat *storage.Catalog, opts Options) (*compiled, error) {
	c := &compiled{p: p, cat: cat, opts: opts}
	if p.GHD == nil {
		return nil, fmt.Errorf("exec: plan has no GHD")
	}
	// Multi-node plans require every aggregate leaf in the root node
	// (the child contribution is then a pure multiplicity, which is the
	// only cross-node factorization this engine implements).
	if p.GHD.NumNodes > 1 {
		rootRels := map[int]bool{}
		for _, e := range p.GHD.Root.Edges {
			rootRels[e] = true
		}
		for _, a := range p.Aggs {
			for _, l := range a.Leaves {
				if !rootRels[l.Rel] {
					return nil, fmt.Errorf("exec: aggregate over relation %s in a non-root GHD node is not supported",
						p.Rels[l.Rel].Alias)
				}
			}
		}
	}
	root, err := c.compileNode(p.GHD.Root, ch, true)
	if err != nil {
		return nil, err
	}
	c.root = root
	if err := c.buildGroupDecoders(); err != nil {
		return nil, err
	}
	if !leafKernelOff {
		root.compileLeaf()
	}
	return c, nil
}

// compileLeaf decides, for this node and its children, whether the last
// level runs the compiled leaf: it must be relaxed or aggregated away
// (below the group boundary), the node must not hash-emit, and every
// aggregate must be COUNT, or SUM of a leaf, a constant or the product
// of two of them; multiplicities may multiply in.
func (cn *cNode) compileLeaf() {
	for _, ch := range cn.children {
		ch.compileLeaf()
	}
	if cn.hashEmit || cn.nLevels-1 < cn.matCount {
		return
	}
	chains := make([]leafChain, len(cn.aggs))
	for ai := range cn.aggs {
		fs, ok := cn.leafFactors(&cn.aggs[ai])
		if !ok {
			return
		}
		split := len(fs)
		for fi, f := range fs {
			if f.part >= 0 {
				split = fi
				break
			}
		}
		chains[ai] = leafChain{fs: fs, split: split}
	}
	cn.leaf = chains
}

// leafFactors lists an aggregate's per-tuple product in evalAgg's
// order: the skeleton's operands, then each multiplicity. ok is false
// for MIN/MAX and for any other skeleton shape.
func (cn *cNode) leafFactors(a *cAgg) (fs []leafFactor, ok bool) {
	operand := func(e *planner.EmitNode) bool {
		switch e.Op {
		case planner.EmitConst:
			fs = append(fs, leafFactor{c: e.Const, rel: -1, leaf: -1, part: -1})
		case planner.EmitLeaf:
			fs = append(fs, cn.relFactor(a.leafRels[e.Leaf], e.Leaf))
		default:
			return false
		}
		return true
	}
	switch {
	case a.kind == planner.AggCount:
		fs = append(fs, leafFactor{c: 1, rel: -1, leaf: -1, part: -1})
	case a.kind != planner.AggSum || a.skel == nil:
		return nil, false
	case a.skel.Op == planner.EmitMul:
		if !operand(a.skel.L) || !operand(a.skel.R) {
			return nil, false
		}
	case !operand(a.skel):
		return nil, false
	}
	for _, rel := range a.multRels {
		fs = append(fs, cn.relFactor(rel, -1))
	}
	return fs, true
}

// relFactor is the factor read from rel's annotation buffer: leaf li of
// the aggregate, or rel's multiplicity when li < 0.
func (cn *cNode) relFactor(rel, li int) leafFactor {
	f := leafFactor{rel: rel, lvl: len(cn.rels[rel].attrs) - 1, leaf: li, part: -1}
	for j, p := range cn.parts[cn.nLevels-1] {
		if p.rel == rel {
			f.part = j
		}
	}
	return f
}

// tbl resolves a relation's table handle through the execution's
// pinned epoch snapshot (a nil-pointer branch when the catalog has
// never seen a post-freeze append).
func (c *compiled) tbl(r *planner.RelInfo) *storage.Table {
	return c.opts.Snap.Resolve(r.Table)
}

// compileNode compiles one GHD node and, recursively, its children.
func (c *compiled) compileNode(n *ghd.Node, ch *costopt.Choice, isRoot bool) (*cNode, error) {
	ord := ch.Orders[n]
	if ord == nil {
		return nil, fmt.Errorf("exec: no attribute order for node %v", n.Bag)
	}
	cn := &cNode{gnode: n, order: ord.Attrs, est: ord, relaxed: ord.Relaxed, nLevels: len(ord.Attrs)}
	// Access-path decision: the classifier's per-node choice, overridden
	// uniformly by ForcePath (the A/B and difftest lever). Binary
	// navigation is value-identical to WCOJ on any node shape, so forcing
	// either path can only change speed, never results.
	cn.path = costopt.PathWCOJ
	if pi := ch.Paths[n]; pi != nil {
		cn.pinfo = pi
		cn.path = pi.Path
	}
	if fp := c.opts.ForcePath; fp != "" {
		cn.path = fp
	}
	mat := 0
	for _, v := range ord.Attrs {
		if ord.MatSet[v] {
			mat++
		} else {
			break
		}
	}
	cn.matCount = mat
	if cn.relaxed {
		if cn.nLevels < 2 || !ord.MatSet[ord.Attrs[cn.nLevels-1]] || ord.MatSet[ord.Attrs[cn.nLevels-2]] {
			return nil, fmt.Errorf("exec: invalid relaxed order %v", ord.Attrs)
		}
		cn.matCount = cn.nLevels - 2
	} else {
		for _, v := range ord.Attrs[mat:] {
			if ord.MatSet[v] {
				return nil, fmt.Errorf("exec: materialized attribute %s after projected ones in %v", v, ord.Attrs)
			}
		}
	}

	// Aggregates at this node: the plan's for the root, a single
	// multiplicity count for inner nodes (Yannakakis partial aggregate).
	var aggSpecs []planner.AggSpec
	if isRoot {
		aggSpecs = c.p.Aggs
	} else {
		aggSpecs = []planner.AggSpec{{Name: "__childmult", Kind: planner.AggCount}}
	}

	// Collect leaf annotations per relation, deduping identical
	// expressions (Q8 uses the same revenue leaf twice).
	leafAST := map[int]map[string]sqlparse.Expr{}     // relIdx → annotation name → AST
	combines := map[int]map[string]trie.CombineFunc{} // relIdx → annotation name → fold
	for ai := range aggSpecs {
		for _, leaf := range aggSpecs[ai].Leaves {
			if leafAST[leaf.Rel] == nil {
				leafAST[leaf.Rel] = map[string]sqlparse.Expr{}
				combines[leaf.Rel] = map[string]trie.CombineFunc{}
			}
			name := leafAnnName(aggSpecs[ai].Kind, leaf.Expr)
			leafAST[leaf.Rel][name] = leaf.Expr
			switch aggSpecs[ai].Kind {
			case planner.AggMin:
				combines[leaf.Rel][name] = minCombine
			case planner.AggMax:
				combines[leaf.Rel][name] = maxCombine
			}
		}
	}

	// Build relation tries over the semijoin-reduced selections: a WCOJ
	// node's are fully built at compile time (it intersects every level),
	// a binary-path node's materialize as its probes reach them.
	sels, err := c.selectNode(n.Edges)
	if err != nil {
		return nil, err
	}
	for i, ei := range n.Edges {
		cr, err := c.buildRel(ei, sels[i], ord.Attrs, leafAST[ei], combines[ei], cn.path == costopt.PathBinary)
		if err != nil {
			return nil, err
		}
		cn.rels = append(cn.rels, cr)
	}

	// Children: compiled now, tries built at run time.
	for _, gch := range n.Children {
		childCN, err := c.compileNode(gch, ch, false)
		if err != nil {
			return nil, err
		}
		cn.rels = append(cn.rels, &cRel{
			relIdx:  -1,
			alias:   "child",
			attrs:   sharedInOrder(ord.Attrs, gch.Bag),
			hasDups: true,
			child:   childCN,
		})
		cn.children = append(cn.children, childCN)
	}

	// Assemble compiled aggregates.
	for ai := range aggSpecs {
		spec := &aggSpecs[ai]
		ca := cAgg{kind: spec.Kind, skel: spec.Skeleton}
		leafRelSet := map[int]bool{}
		ca.leafBufs = make([][]float64, len(spec.Leaves))
		for _, leaf := range spec.Leaves {
			relPos := cn.relPos(leaf.Rel)
			if relPos < 0 {
				return nil, fmt.Errorf("exec: leaf relation %d not in node", leaf.Rel)
			}
			ca.leafAnns = append(ca.leafAnns, leafAnnName(spec.Kind, leaf.Expr))
			ca.leafRels = append(ca.leafRels, relPos)
			leafRelSet[relPos] = true
		}
		// Multiplicity factors: duplicated relations not consumed by a
		// leaf, plus all child results — except under min/max, which
		// multiplicities cannot affect.
		if spec.Kind != planner.AggMin && spec.Kind != planner.AggMax {
			for rp, cr := range cn.rels {
				if !leafRelSet[rp] && cr.hasDups {
					ca.multRels = append(ca.multRels, rp)
				}
			}
		}
		cn.aggs = append(cn.aggs, ca)
	}
	cn.aggKinds = make([]planner.AggKind, len(cn.aggs))
	for i := range cn.aggs {
		cn.aggKinds[i] = cn.aggs[i].kind
	}

	// Level participation table.
	cn.parts = make([][]part, cn.nLevels)
	for d, v := range ord.Attrs {
		for rp, cr := range cn.rels {
			for lvl, a := range cr.attrs {
				if a == v {
					cn.parts[d] = append(cn.parts[d], part{rel: rp, lvl: lvl})
				}
			}
		}
		if len(cn.parts[d]) == 0 {
			return nil, fmt.Errorf("exec: attribute %s has no participating relation", v)
		}
	}
	if cn.relaxed {
		cn.lastDomain = c.vertexDomainSize(ord.Attrs[cn.nLevels-1])
	}
	return cn, nil
}

// leafAnnName names the trie annotation holding one aggregate leaf. The
// combine class is part of the identity: min(x) and max(x) must not
// share a pre-aggregated buffer. The leaf ranges over one relation, so
// it is named without alias qualifiers and one cached trie serves every
// alias of the table.
func leafAnnName(k planner.AggKind, e sqlparse.Expr) string {
	e = sqlparse.Unqualified(e)
	switch k {
	case planner.AggMin:
		return "leaf:min|" + e.String()
	case planner.AggMax:
		return "leaf:max|" + e.String()
	default:
		return "leaf:sum|" + e.String()
	}
}

// bind resolves the node's annotation buffers — aggregate leaves and
// duplicate multiplicities — through its relations' indexes. runNode
// calls it once a level-0 survivor exists, so a lazily backed relation
// materializes its deeper levels only when a tuple will read them.
func (cn *cNode) bind() {
	for _, cr := range cn.rels {
		if cr.hasDups {
			cr.mult = cr.ix.Ann(multAnn).F64
		}
	}
	for ai := range cn.aggs {
		a := &cn.aggs[ai]
		for li, name := range a.leafAnns {
			a.leafBufs[li] = cn.rels[a.leafRels[li]].ix.Ann(name).F64
		}
	}
	for ai := range cn.leaf {
		for fi := range cn.leaf[ai].fs {
			f := &cn.leaf[ai].fs[fi]
			switch {
			case f.leaf >= 0:
				f.buf = cn.aggs[ai].leafBufs[f.leaf]
			case f.rel >= 0:
				f.buf = cn.rels[f.rel].mult
			}
		}
	}
}

func minCombine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxCombine(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// relPos maps a plan relation index to its position in cn.rels.
func (cn *cNode) relPos(relIdx int) int {
	for i, cr := range cn.rels {
		if cr.relIdx == relIdx {
			return i
		}
	}
	return -1
}

// sharedInOrder lists the vertices of bag in the order they appear in
// the node's attribute order.
func sharedInOrder(order []string, bag []string) []string {
	var out []string
	for _, v := range order {
		for _, b := range bag {
			if v == b {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// vertexDomainSize finds the dictionary size of the domain backing a
// vertex (0 when unknown).
func (c *compiled) vertexDomainSize(vertex string) int {
	for i := range c.p.Rels {
		r := &c.p.Rels[i]
		if colName, ok := r.VertexCol[vertex]; ok {
			col := c.tbl(r).Col(colName)
			if col != nil {
				if col.Def.Role == storage.Key && col.Dict() != nil {
					return col.Dict().Len()
				}
				// Pseudo vertices: string codes come from the column
				// dictionary; numeric ones from the ad-hoc encoding.
				if col.Def.Kind == storage.String && col.Dict() != nil {
					return col.Dict().Len()
				}
				codes, _ := pseudoEncode(col, nil)
				max := uint32(0)
				for _, x := range codes {
					if x > max {
						max = x
					}
				}
				return int(max) + 1
			}
		}
	}
	return 0
}

// semijoinOff makes compile skip the semijoin reduction (tests compare
// the two).
var semijoinOff bool

// selectNode runs the selection pass of every filtered relation of a
// node, then semijoin-reduces the selections against each other. sels[i]
// lists the ascending rows of edges[i] that enter its trie; nil means
// every row (an unfiltered relation).
func (c *compiled) selectNode(edges []int) ([][]int32, error) {
	sels := make([][]int32, len(edges))
	var filtered, selected []int
	for i, ei := range edges {
		r := &c.p.Rels[ei]
		if r.Filter == nil {
			continue
		}
		if err := ctxErr(c.opts.Ctx); err != nil {
			return nil, err
		}
		rows, err := c.selectRows(r)
		if err != nil {
			return nil, err
		}
		sels[i] = rows
		filtered = append(filtered, i)
		selected = append(selected, len(rows))
	}
	if !semijoinOff {
		if err := c.semijoinReduce(edges, filtered, sels); err != nil {
			return nil, err
		}
	}
	if st := c.opts.Stats; st != nil {
		for k, i := range filtered {
			st.Semijoins = append(st.Semijoins, obs.Semijoin{Rel: c.p.Rels[edges[i]].Alias, Selected: selected[k], Reduced: len(sels[i])})
		}
	}
	return sels, nil
}

// selectRows runs a relation's filter over its table, block at a time per
// parfor chunk (the kernels only read immutable column buffers), and
// returns the ascending surviving row ids.
func (c *compiled) selectRows(r *planner.RelInfo) ([]int32, error) {
	tb := c.tbl(r)
	pred, err := expr.CompilePred(r.Filter, &expr.Binding{Alias: r.Alias, Table: tb})
	if err != nil {
		return nil, err
	}
	buf := make([]int32, tb.NumRows)
	return keepRows(c.opts.threads(), buf, func(lo, hi int) int {
		sel := pred.Bind()
		ids := make([]int32, expr.BlockSize)
		k := lo
		for blk := lo; blk < hi; blk += expr.BlockSize {
			k += copy(buf[k:], sel(expr.Rows(ids, blk, min(blk+expr.BlockSize, hi)), ids))
		}
		return k - lo
	}), nil
}

// keepRows filters buf in parallel chunks: keep(lo, hi) writes the
// survivors of buf's range [lo, hi), ascending, over the front of that
// range and returns their count. Packing the chunks in order leaves the
// survivors ascending at the front of buf, which is returned.
func keepRows(threads int, buf []int32, keep func(lo, hi int) int) []int32 {
	spans := make([][2]int, max(threads, 1))
	parallelRangeID(threads, len(buf), func(id, lo, hi int) {
		spans[id] = [2]int{lo, lo + keep(lo, hi)}
	})
	m := 0
	for _, sp := range spans {
		m += copy(buf[m:], buf[sp[0]:sp[1]])
	}
	return buf[:m:m]
}

// semijoinReduce drops from each filtered relation's selection the rows
// that cannot join the node's other filtered relations. Smallest
// selection first (ties by edge index), each filtered relation marks the
// codes its selection holds on every join-key vertex it shares with
// another filtered relation, and that relation keeps only the rows
// whose code on the vertex is marked. The node is an inner equi-join,
// so a dropped row never meets a result tuple; surviving rows keep
// their order, so the tries built over them fold the same rows in the
// same order and results stay bit-identical. Unfiltered relations are
// neither reduced nor reducers: their tries are cached whole.
func (c *compiled) semijoinReduce(edges, filtered []int, sels [][]int32) error {
	if len(filtered) < 2 {
		return nil
	}
	order := slices.Clone(filtered)
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if len(sels[ia]) != len(sels[ib]) {
			return len(sels[ia]) < len(sels[ib])
		}
		return edges[ia] < edges[ib]
	})
	threads := c.opts.threads()
	for _, i := range order {
		r := &c.p.Rels[edges[i]]
		for _, v := range r.Vertices {
			codes, dom := c.joinKeyCodes(r, v)
			if codes == nil {
				continue
			}
			var words []uint64
			for _, j := range order {
				if j == i {
					continue
				}
				other, _ := c.joinKeyCodes(&c.p.Rels[edges[j]], v)
				if other == nil {
					continue
				}
				if words == nil {
					words = make([]uint64, (dom+63)/64)
					if err := c.opts.Mem.Charge(int64(8 * len(words))); err != nil {
						return err
					}
					for _, row := range sels[i] {
						k := codes[row]
						words[k>>6] |= 1 << (k & 63)
					}
				}
				sel := sels[j]
				sels[j] = keepRows(threads, sel, func(lo, hi int) int {
					m := lo
					for _, row := range sel[lo:hi] {
						// A code past the reducer's dictionary was minted
						// after it and is in none of its rows.
						if k := other[row]; int(k>>6) < len(words) && words[k>>6]&(1<<(k&63)) != 0 {
							sel[m] = row
							m++
						}
					}
					return m - lo
				})
			}
		}
	}
	return nil
}

// joinKeyCodes returns the code column and domain size behind vertex v
// of relation r when that column is a join key, and nil otherwise (a
// relation without v, or a pseudo-vertex, which is never a reduction
// key). Key columns sharing a vertex share a join domain, whose codes
// stay the same as its dictionary grows, so they compare across tables
// of different generations.
func (c *compiled) joinKeyCodes(r *planner.RelInfo, v string) ([]uint32, int) {
	name, ok := r.VertexCol[v]
	if !ok {
		return nil, 0
	}
	col := c.tbl(r).Col(name)
	if col == nil || col.Def.Role != storage.Key || col.Dict() == nil {
		return nil, 0
	}
	return col.KeyCodes(), col.Dict().Len()
}

// buildRel builds (or fetches from cache) the query trie for one
// relation over its selected rows (nil: every row): key levels in node
// order (attribute elimination: only the vertices this query touches
// enter the trie), leaf values computed by block kernels, leaf and
// multiplicity annotations pre-aggregated over duplicate key tuples.
// Unless lazy is set (binary access path), every level is materialized
// now.
//
// Both reusable pieces are the physical index whose creation the
// paper's measurements exclude. An unfiltered relation's whole trie is
// cached per table generation, so an append never serves a stale one;
// one entry serves both paths, its levels materializing across the
// queries that read it. A filtered relation derives its trie from
// a cached filter-free sort order of its key columns: one pass keeps
// the survivors, already in key order. That base is built on the second
// filtered miss of its table and columns and serves later generations
// too: rows appended since are a tail, sorted and merged in by Derive.
// Derived and direct builds are bit-identical.
func (c *compiled) buildRel(relIdx int, rows []int32, order []string,
	leafAST map[string]sqlparse.Expr, combines map[string]trie.CombineFunc, lazy bool) (*cRel, error) {

	r := &c.p.Rels[relIdx]
	tb := c.tbl(r)
	attrs := sharedInOrder(order, r.Vertices)
	if len(attrs) != len(r.Vertices) {
		return nil, fmt.Errorf("exec: node order %v does not cover relation %s vertices %v", order, r.Alias, r.Vertices)
	}

	var leafKeys []string
	for key := range leafAST {
		leafKeys = append(leafKeys, key)
	}
	sort.Strings(leafKeys)

	if err := ctxErr(c.opts.Ctx); err != nil {
		return nil, err
	}

	st := c.opts.Stats
	cache := c.opts.Cache
	if c.opts.NoAttrElim {
		cache = nil
	}
	// Level names come from the query's join domains, so one name can
	// stand for different columns of a table (a self-join binding i and
	// j the other way round): cached pieces are keyed on the columns.
	cols := make([]string, len(attrs))
	for i, v := range attrs {
		cols[i] = r.VertexCol[v]
	}
	cacheKey := trieKey{
		baseKey: baseKey{table: tb.Schema.Name, cols: strings.Join(cols, "\x00")},
		gen:     tb.Generation(), leaves: strings.Join(leafKeys, "\x00"),
	}
	threads := c.opts.threads()
	if r.Filter == nil && cache != nil {
		ix, ok := cache.get(cacheKey)
		countLookup(st, ok)
		if ok {
			return newCRel(relIdx, r.Alias, ix, attrs, lazy, threads), nil
		}
	}

	binding := &expr.Binding{Alias: r.Alias, Table: tb}
	n := tb.NumRows
	nRows := n
	if rows != nil {
		nRows = len(rows)
	}

	// A filtered relation derives from its base order when one is
	// cached; its key's second miss builds the base. The base belongs to
	// the cache, not to the query that happens to build it: it is built
	// only when it fits the query's remaining budget, and not charged to
	// it, so building one never pushes a query over its budget.
	var base *cachedBase
	if r.Filter != nil && cache != nil {
		var admit bool
		gen := tb.Generation()
		base, admit = cache.base(cacheKey.baseKey, gen, n, stableCodes(tb, cols))
		countLookup(st, base != nil)
		if admit && c.opts.Mem.Fits(trie.BaseBytes(n, len(cols))) {
			keys, err := c.keyColumns(r, tb, cols)
			if err != nil {
				return nil, err
			}
			lz, err := trie.NewBase(trie.BuildInput{Attrs: cols, Keys: keys, Threads: threads})
			if err != nil {
				return nil, fmt.Errorf("exec: building base order for %s: %v", r.Alias, err)
			}
			base = &cachedBase{Lazy: lz, gen: gen, rows: n}
			cache.putBase(cacheKey.baseKey, base)
			if st != nil {
				st.TriesBuilt++
			}
		}
	}

	// Leaf values over the selected rows, indexed by position in rows.
	lastLvl := len(attrs) - 1
	var anns []trie.AnnSpec
	for _, key := range leafKeys {
		num, err := expr.CompileNum(leafAST[key], binding)
		if err != nil {
			return nil, err
		}
		buf := make([]float64, nRows)
		parallelRange(threads, nRows, func(lo, hi int) {
			val := num.Bind()
			var ids []int32
			if rows == nil {
				ids = make([]int32, expr.BlockSize)
			}
			for blk := lo; blk < hi; blk += expr.BlockSize {
				end := min(blk+expr.BlockSize, hi)
				if rows == nil {
					val(expr.Rows(ids, blk, end), buf[blk:end])
				} else {
					val(rows[blk:end], buf[blk:end])
				}
			}
		})
		anns = append(anns, trie.AnnSpec{
			Name: key, Level: lastLvl, Kind: trie.F64, F64: buf,
			Combine: combines[key],
		})
	}

	// The selection bitsets, the leaf buffers and every output the pass
	// appends to: what a derived build really holds. Under a memory
	// budget a relation derives only when that charges no more than its
	// direct build would, so a later run of a query never charges more
	// than its first and a budget that admits the first admits them all.
	var deriveEst int64
	var tail int // survivors past the base's rows
	if base != nil {
		tail = nRows - sort.Search(nRows, func(i int) bool { return rows[i] >= int32(base.rows) })
		deriveEst = int64(8*len(anns))*int64(nRows) + base.DeriveBytes(nRows, tail, len(anns)+1)
		if c.opts.Mem != nil && deriveEst > directBytes(nRows, len(attrs), len(anns)+1) {
			base = nil
		}
	}
	if base != nil {
		if err := c.opts.Mem.Charge(deriveEst); err != nil {
			return nil, err
		}
		var keys [][]uint32
		if tail > 0 {
			var err error
			if keys, err = c.keyColumns(r, tb, cols); err != nil {
				return nil, err
			}
		}
		d, err := base.Derive(trie.DeriveInput{Sel: rows, Keys: keys, Anns: anns, Count: multAnn, Threads: threads})
		if err != nil {
			return nil, fmt.Errorf("exec: deriving trie for %s: %v", r.Alias, err)
		}
		if st != nil {
			st.TriesDerived++
		}
		return newCRel(relIdx, r.Alias, d, attrs, lazy, threads), nil
	}

	keys, err := c.keyColumns(r, tb, cols)
	if err != nil {
		return nil, err
	}
	in := trie.BuildInput{Attrs: attrs, Threads: threads, Anns: anns}
	for _, codes := range keys {
		in.Keys = append(in.Keys, gatherU32(codes, rows))
	}
	ones := make([]float64, nRows)
	for i := range ones {
		ones[i] = 1
	}
	in.Anns = append(in.Anns, trie.AnnSpec{Name: multAnn, Level: lastLvl, Kind: trie.F64, F64: ones})

	// Attribute-elimination ablation: load every annotation column into
	// the trie, as an engine without physical elimination would.
	if c.opts.NoAttrElim {
		for _, cd := range tb.Schema.Cols {
			if cd.Role != storage.Annotation {
				continue
			}
			col := tb.Col(cd.Name)
			name := "all:" + cd.Name
			if f := col.AnnFloats(); f != nil {
				in.Anns = append(in.Anns, trie.AnnSpec{Name: name, Level: lastLvl, Kind: trie.F64, F64: gatherF64(f, rows)})
			} else if codes := col.AnnCodes(); codes != nil {
				in.Anns = append(in.Anns, trie.AnnSpec{Name: name, Level: lastLvl, Kind: trie.Code, Codes: gatherU32(codes, rows)})
			}
		}
	}

	// Charge the query-trie build before running it, so an over-budget
	// query aborts here rather than OOM inside the build.
	if err := c.opts.Mem.Charge(directBytes(nRows, len(in.Keys), len(in.Anns))); err != nil {
		return nil, err
	}
	lz, err := trie.NewLazy(in)
	if err != nil {
		return nil, fmt.Errorf("exec: building trie for %s: %v", r.Alias, err)
	}
	if st != nil {
		st.TriesBuilt++
	}
	if r.Filter == nil && cache != nil {
		cache.put(cacheKey, lz)
	}
	return newCRel(relIdx, r.Alias, lz, attrs, lazy, threads), nil
}

// directBytes is what a direct trie build over nRows rows with k key
// columns and nAnns annotations is charged: roughly twice its input
// columns (the frontier permutations and per-level row offsets the
// counting passes hold, plus the trie levels).
func directBytes(nRows, k, nAnns int) int64 {
	return int64(nRows) * int64(4*k+8*nAnns) * 2
}

// keyColumns returns the code columns of the named key columns, over
// every row of the table.
func (c *compiled) keyColumns(r *planner.RelInfo, tb *storage.Table, cols []string) ([][]uint32, error) {
	keys := make([][]uint32, len(cols))
	for i, name := range cols {
		col := tb.Col(name)
		if col == nil {
			return nil, fmt.Errorf("exec: missing column %s.%s", r.Alias, name)
		}
		codes, err := c.keyCodesFor(r, col)
		if err != nil {
			return nil, err
		}
		keys[i] = codes
	}
	return keys, nil
}

// stableCodes reports whether the named columns keep their rows' codes
// as the table grows: a key column's or a string column's dictionary
// only ever adds codes, while a numeric column on a trie level is
// re-ranked over the whole column on every build.
func stableCodes(tb *storage.Table, cols []string) bool {
	for _, name := range cols {
		if col := tb.Col(name); col == nil || col.Def.Role != storage.Key && col.Def.Kind != storage.String {
			return false
		}
	}
	return true
}

// countLookup records one trie-cache lookup in the query stats.
func countLookup(st *obs.QueryStats, hit bool) {
	switch {
	case st == nil:
	case hit:
		st.TrieCacheHits++
	default:
		st.TrieCacheMisses++
	}
}

// newCRel wraps a relation's trie, first materializing all of it
// unless lazy is set.
func newCRel(relIdx int, alias string, ix *trie.Lazy, attrs []string, lazy bool, threads int) *cRel {
	if !lazy {
		ix.Full(threads)
	}
	return &cRel{relIdx: relIdx, alias: alias, ix: ix, attrs: attrs, hasDups: ix.HasDups()}
}

// keyCodesFor returns the code column for a key or pseudo-vertex column.
func (c *compiled) keyCodesFor(r *planner.RelInfo, col *storage.Column) ([]uint32, error) {
	if col.Def.Role == storage.Key {
		codes := col.KeyCodes()
		if codes == nil {
			return nil, fmt.Errorf("exec: key column %s.%s not encoded", r.Alias, col.Def.Name)
		}
		return codes, nil
	}
	if col.Def.Kind == storage.String {
		return col.AnnCodes(), nil
	}
	codes, _ := pseudoEncode(col, nil)
	return codes, nil
}

// pseudoEncode builds an ad-hoc order-preserving code space for a
// numeric annotation column promoted to a trie level, over the rows at
// the given ids (codes[i] is the code of row rows[i]), or over every row
// when rows is nil.
func pseudoEncode(col *storage.Column, rows []int32) ([]uint32, *pseudoDecoder) {
	f := gatherF64(col.AnnFloats(), rows)
	// NaN map keys are each distinct (NaN != NaN), so dedup/rank maps
	// would mint unbounded entries and every rank[NaN] lookup would
	// miss, silently coding NaN rows as 0. Code dict.CanonFloat classes:
	// the one NaN gets the trailing code, kept out of the maps.
	hasNaN := false
	uniq := map[float64]struct{}{}
	for _, v := range f {
		if v = dict.CanonFloat(v); v != v {
			hasNaN = true
			continue
		}
		uniq[v] = struct{}{}
	}
	vals := make([]float64, 0, len(uniq)+1)
	for v := range uniq {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	rank := make(map[float64]uint32, len(vals))
	for i, v := range vals {
		rank[v] = uint32(i)
	}
	nanCode := uint32(len(vals))
	if hasNaN {
		vals = append(vals, math.NaN())
	}
	codes := make([]uint32, len(f))
	for i, v := range f {
		if v = dict.CanonFloat(v); v != v {
			codes[i] = nanCode
			continue
		}
		codes[i] = rank[v]
	}
	return codes, &pseudoDecoder{numVals: vals, isDate: col.Def.Kind == storage.Date}
}

func gatherU32(src []uint32, rows []int32) []uint32 {
	if rows == nil {
		return src
	}
	out := make([]uint32, len(rows))
	for i, r := range rows {
		out[i] = src[r]
	}
	return out
}

func gatherF64(src []float64, rows []int32) []float64 {
	if rows == nil {
		return src
	}
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = src[r]
	}
	return out
}

// buildGroupDecoders resolves each GROUP BY item to a decoder over the
// root's materialized key (the metadata container M of §IV-A rule 4).
func (c *compiled) buildGroupDecoders() error {
	root := c.root
	posOf := map[string]int{}
	if c.p.HashEmit {
		// Hash-emit mode: any position in the order works — the token is
		// computed from the live vertex binding.
		root.hashEmit = true
		for i, v := range root.order {
			posOf[v] = i
		}
	} else {
		for i := 0; i < root.matCount; i++ {
			posOf[root.order[i]] = i
		}
		if root.relaxed {
			// The relaxed tail's materialized attribute lands after the
			// prefix in the output key.
			posOf[root.order[root.nLevels-1]] = root.matCount
		}
	}
	for _, g := range c.p.Groups {
		pos, ok := posOf[g.Vertex]
		if !ok {
			return fmt.Errorf("exec: group vertex %s not bound in root order %v", g.Vertex, root.order)
		}
		gd := groupDecoder{item: g, pos: pos}
		switch g.Kind {
		case planner.GroupVertex:
			col := c.tbl(&c.p.Rels[g.Rel]).Col(g.Col)
			gd.domain = col.Dict()
			if col.Def.Kind == storage.String {
				gd.outKind = KindString
			} else {
				gd.outKind = KindInt
			}
		case planner.GroupPseudo:
			col := c.tbl(&c.p.Rels[g.Rel]).Col(g.Col)
			if col.Def.Kind == storage.String {
				gd.pseudo = &pseudoDecoder{strDict: col.Dict()}
				gd.outKind = KindString
			} else {
				dec := c.pseudo[g.Col]
				if dec == nil {
					_, dec = pseudoEncode(col, nil)
				}
				gd.pseudo = dec
				switch {
				case c.p.StoredGroupKinds && col.Def.Kind != storage.Float64:
					gd.outKind = KindInt
				case dec.isDate:
					gd.outKind = KindString
				default:
					gd.outKind = KindFloat
				}
			}
		case planner.GroupMeta:
			r := &c.p.Rels[g.Rel]
			tb := c.tbl(r)
			col, isStr, isDate, ok := metaColRef(r, tb, g.Expr)
			var strCol *storage.Column
			switch {
			case isStr:
				strCol = col
				gd.metaDict = col.Dict()
				gd.outKind = KindString
			case isDate && !c.p.StoredGroupKinds:
				gd.metaDate = true
				gd.outKind = KindString
			case ok && col.Def.Kind != storage.Float64:
				gd.outKind = KindInt
			default:
				gd.outKind = KindFloat
			}
			toks, err := c.metaTokens(r, tb, g, strCol)
			if err != nil {
				return err
			}
			gd.toks = toks
		}
		c.groups = append(c.groups, gd)
		if c.p.HashEmit {
			hg := hashGroup{level: gd.pos, toks: gd.toks}
			if gd.metaDict != nil {
				// Dictionary-coded tokens have a known domain, enabling the
				// aggregation table's dense direct-indexed fallback.
				hg.domain = gd.metaDict.Len()
			}
			root.hgroups = append(root.hgroups, hg)
		}
	}
	return nil
}

// metaTokens returns GroupMeta item g's token column over r's primary
// key: toks[code] is the item's token at the row whose key has that
// code — dict.CanonFloatBits of a numeric item's value, the annotation
// code of a string item (strCol) — and absentTok where no row has it.
// The column depends only on the table generation, so it is cached per
// {table, generation, key column, expression}; an expression holding a
// literal is built per query and not cached, so redrawn literals never
// grow the cache. A build is charged to the building query.
func (c *compiled) metaTokens(r *planner.RelInfo, tb *storage.Table, g planner.GroupItem, strCol *storage.Column) ([]uint64, error) {
	pkName := r.VertexCol[g.Vertex]
	pkCol := tb.Col(pkName)
	e := sqlparse.Unqualified(g.Expr)
	cache := c.opts.Cache
	if cache != nil && sqlparse.HasLiteral(e) {
		cache = nil
	}
	key := metaKey{table: tb.Schema.Name, gen: tb.Generation(), pk: pkName, expr: e.String()}
	if cache != nil {
		if toks, ok := cache.meta(key); ok {
			return toks, nil
		}
	}
	var num *expr.Num
	var ann []uint32
	if strCol != nil {
		ann = strCol.AnnCodes()
	} else {
		var err error
		if num, err = expr.CompileNum(g.Expr, &expr.Binding{Alias: r.Alias, Table: tb}); err != nil {
			return nil, err
		}
	}
	n := pkCol.Dict().Len()
	if err := c.opts.Mem.Charge(int64(8 * n)); err != nil {
		return nil, err
	}
	toks := make([]uint64, n)
	fillMeta(toks, pkCol.KeyCodes(), num, ann)
	if cache != nil {
		cache.putMeta(key, toks)
	}
	return toks, nil
}

// fillMeta fills a token column (tests swap in a per-row reference).
var fillMeta = fillMetaBlocks

// fillMetaBlocks sets toks[keys[row]] to each row's token: its string
// annotation code when ann is set, else num's value, evaluated in one
// block-kernel pass over the rows. Codes no row holds are absent.
func fillMetaBlocks(toks []uint64, keys []uint32, num *expr.Num, ann []uint32) {
	for i := range toks {
		toks[i] = absentTok
	}
	if ann != nil {
		for row, code := range keys {
			toks[code] = uint64(ann[row])
		}
		return
	}
	val := num.Bind()
	ids := make([]int32, expr.BlockSize)
	vals := make([]float64, expr.BlockSize)
	for blk := 0; blk < len(keys); blk += expr.BlockSize {
		end := min(blk+expr.BlockSize, len(keys))
		out := vals[:end-blk]
		val(expr.Rows(ids, blk, end), out)
		for i, v := range out {
			toks[keys[blk+i]] = dict.CanonFloatBits(v)
		}
	}
}

// metaColRef inspects a GroupMeta expression: when it is a plain column
// reference it returns the column (from the snapshot-resolved table tb)
// and its type flags.
func metaColRef(r *planner.RelInfo, tb *storage.Table, e sqlparse.Expr) (col *storage.Column, isStr, isDate, ok bool) {
	cr, isCR := e.(sqlparse.ColRef)
	if !isCR {
		return nil, false, false, false
	}
	if cr.Qualifier != "" && cr.Qualifier != r.Alias {
		return nil, false, false, false
	}
	col = tb.Col(cr.Name)
	if col == nil {
		return nil, false, false, false
	}
	return col, col.Def.Kind == storage.String, col.Def.Kind == storage.Date, true
}
