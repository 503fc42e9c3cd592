// Package ghd implements generalized hypertree decompositions — the
// query-plan representation of LevelHeaded (paper §II-B, §II-C, §IV-B).
//
// Given a query hypergraph it enumerates valid GHDs (edge coverage +
// running intersection), scores each node's bag with the fractional
// edge cover LP to obtain the FHW, picks a decomposition with the
// minimum FHW, and breaks ties with the paper's four heuristics:
//
//  1. minimize the number of tree nodes,
//  2. minimize the depth,
//  3. minimize the number of shared vertices between nodes,
//  4. maximize the depth of selections.
//
// GHDs whose FHW is 1 are compressed to a single node, since the plan is
// then equivalent to one run of the WCOJ algorithm (paper §II-C).
package ghd

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/hypergraph"
	"repro/internal/lru"
)

// Node is one bag of a GHD. Children are executed before their parent
// (Yannakakis' algorithm runs bottom-up for aggregate queries).
type Node struct {
	// Bag is χ(t): the hypergraph vertices materialized in this node.
	Bag []string
	// Edges are the indices (into the hypergraph edge list) of relations
	// assigned to this node.
	Edges []int
	// Width is the fractional edge cover number of Bag.
	Width    float64
	Children []*Node
}

// GHD is a selected decomposition with its summary statistics.
type GHD struct {
	Root *Node
	// FHW is the maximum node width.
	FHW float64
	// NumNodes, Depth, Shared and SelectionDepth are the tie-break
	// statistics of §IV-B.
	NumNodes       int
	Depth          int
	Shared         int
	SelectionDepth int
}

// Options configures enumeration.
type Options struct {
	// RootMustContain lists vertices that must appear in the root bag —
	// the output (GROUP BY / materialized) vertices, so results need no
	// upward projection (AJAR compatibility of the aggregation ordering).
	RootMustContain []string
	// SelectionEdges are indices of relations carrying selective
	// (equality) predicates, used by heuristic 4.
	SelectionEdges []int
	// MaxCandidates bounds the number of (sub)decompositions retained at
	// each enumeration step; 0 means the default.
	MaxCandidates int
}

const defaultMaxCandidates = 24

// memoCap bounds the decomposition memo. An entry is one GHD of a few
// nodes (a few KB), so the bound is by count.
const memoCap = 1024

// memo maps the encoding of a search's inputs to its result. The search
// is a pure function of that encoding, so one memo serves every engine.
var memo = lru.New[string, *GHD](memoCap)

// Decompose enumerates GHDs of h and returns the best one under
// (FHW, heuristics) ordering. The result is memoised on everything the
// search reads and shared between callers: it must not be mutated.
func Decompose(h *hypergraph.Hypergraph, opts Options) (*GHD, error) {
	key := searchKey(h, opts)
	if g, ok := memo.Get(key); ok {
		return g, nil
	}
	g, err := search(h, opts)
	if err != nil {
		return nil, err
	}
	memo.Put(key, g)
	return g, nil
}

// searchKey encodes the inputs search reads: the vertex list, each
// edge's vertex list in order, and the options. Edge names and
// cardinalities are not read, so they are not part of the key. %q
// quotes every name, which keeps the encoding unambiguous.
func searchKey(h *hypergraph.Hypergraph, opts Options) string {
	b := fmt.Appendf(nil, "%q", h.Vertices)
	for i := range h.Edges {
		b = fmt.Appendf(b, "%q", h.Edges[i].Vertices)
	}
	b = fmt.Appendf(b, "|%q|%v|%d", opts.RootMustContain, opts.SelectionEdges, opts.MaxCandidates)
	return string(b)
}

// search is the uncached decomposition behind Decompose.
func search(h *hypergraph.Hypergraph, opts Options) (*GHD, error) {
	if len(h.Edges) == 0 {
		return nil, fmt.Errorf("ghd: empty hypergraph")
	}
	if len(h.Edges) > 30 {
		return nil, fmt.Errorf("ghd: %d edges exceeds enumeration limit", len(h.Edges))
	}
	e := &enumerator{
		h:         h,
		opts:      opts,
		selEdges:  map[int]bool{},
		memo:      map[memoKey][]*candidate{},
		widthMemo: map[string]float64{},
	}
	if opts.MaxCandidates <= 0 {
		e.opts.MaxCandidates = defaultMaxCandidates
	}
	for _, s := range opts.SelectionEdges {
		e.selEdges[s] = true
	}
	fullMask := uint32(1)<<len(h.Edges) - 1

	pick := func(required []string) (*GHD, error) {
		cands, err := e.decompose(fullMask, required, true)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			return nil, nil
		}
		best := cands[0]
		for _, c := range cands[1:] {
			if c.better(best) {
				best = c
			}
		}
		g := &GHD{
			Root:           best.node,
			FHW:            best.fhw,
			NumNodes:       best.numNodes,
			Depth:          best.depth,
			Shared:         best.shared,
			SelectionDepth: best.selDepth,
		}
		// Compression: an FHW-1 plan is a single WCOJ run.
		if g.FHW <= 1+1e-9 && g.NumNodes > 1 {
			g = compress(h, g)
		}
		return g, nil
	}

	// The output-vertex requirement is applied softly: FHW minimization
	// runs unconstrained first (matching the theory), and only if the
	// winning multi-node plan fails to expose the output vertices at its
	// root is enumeration redone with the hard constraint. A single
	// all-edge node is always a valid last resort.
	g, err := pick(nil)
	if err != nil {
		return nil, err
	}
	if g != nil && rootHasAll(g.Root, opts.RootMustContain) {
		return g, nil
	}
	g2, err := pick(opts.RootMustContain)
	if err == nil && g2 != nil {
		return g2, nil
	}
	full := compress(h, &GHD{FHW: math.Inf(1)})
	full.FHW = full.Root.Width
	return full, nil
}

// rootHasAll reports whether every vertex in req appears in the root bag.
func rootHasAll(root *Node, req []string) bool {
	for _, v := range req {
		found := false
		for _, x := range root.Bag {
			if x == v {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// compress collapses the whole decomposition into one node covering all
// edges and vertices.
func compress(h *hypergraph.Hypergraph, g *GHD) *GHD {
	all := make([]int, len(h.Edges))
	for i := range all {
		all[i] = i
	}
	w, err := h.Width(h.Vertices)
	if err != nil {
		w = g.FHW
	}
	return &GHD{
		Root: &Node{
			Bag:   append([]string(nil), h.Vertices...),
			Edges: all,
			Width: w,
		},
		FHW:      g.FHW,
		NumNodes: 1,
		Depth:    1,
	}
}

type memoKey struct {
	mask uint32
	req  string
}

// candidate is a (sub)decomposition with composable statistics.
type candidate struct {
	node     *Node
	fhw      float64
	numNodes int
	depth    int
	shared   int
	selDepth int
}

// better implements the (FHW; nodes; depth; shared; -selDepth) order.
func (c *candidate) better(o *candidate) bool {
	if math.Abs(c.fhw-o.fhw) > 1e-9 {
		return c.fhw < o.fhw
	}
	if c.numNodes != o.numNodes {
		return c.numNodes < o.numNodes
	}
	if c.depth != o.depth {
		return c.depth < o.depth
	}
	if c.shared != o.shared {
		return c.shared < o.shared
	}
	return c.selDepth > o.selDepth
}

type enumerator struct {
	h         *hypergraph.Hypergraph
	opts      Options
	selEdges  map[int]bool
	memo      map[memoKey][]*candidate
	widthMemo map[string]float64
}

func (e *enumerator) width(bag []string) (float64, error) {
	key := strings.Join(bag, ",")
	if w, ok := e.widthMemo[key]; ok {
		return w, nil
	}
	w, err := e.h.Width(bag)
	if err != nil {
		return 0, err
	}
	e.widthMemo[key] = w
	return w, nil
}

// decompose returns candidate subtrees that decompose the edges in mask
// and whose root bag contains every vertex in required.
func (e *enumerator) decompose(mask uint32, required []string, isRoot bool) ([]*candidate, error) {
	reqSorted := append([]string(nil), required...)
	sort.Strings(reqSorted)
	key := memoKey{mask: mask, req: strings.Join(reqSorted, ",")}
	if cands, ok := e.memo[key]; ok {
		return cands, nil
	}

	var edgeIdx []int
	for i := 0; i < len(e.h.Edges); i++ {
		if mask&(1<<i) != 0 {
			edgeIdx = append(edgeIdx, i)
		}
	}

	var cands []*candidate
	// Enumerate non-empty subsets S of the edges in mask as the root
	// bag's covering edges.
	for sub := mask; sub != 0; sub = (sub - 1) & mask {
		if bits.OnesCount32(sub) > 6 {
			continue // bags wider than 6 relations never help on our workloads
		}
		bagSet := map[string]bool{}
		var bag []string
		var rootEdges []int
		for _, i := range edgeIdx {
			if sub&(1<<i) != 0 {
				rootEdges = append(rootEdges, i)
				for _, v := range e.h.Edges[i].Vertices {
					if !bagSet[v] {
						bagSet[v] = true
						bag = append(bag, v)
					}
				}
			}
		}
		// Running intersection with the parent: required vertices must be
		// in this bag.
		okReq := true
		for _, v := range required {
			if !bagSet[v] {
				okReq = false
				break
			}
		}
		if !okReq {
			continue
		}
		// All edges fully inside the bag are covered here.
		covered := sub
		for _, i := range edgeIdx {
			if covered&(1<<i) != 0 {
				continue
			}
			inside := true
			for _, v := range e.h.Edges[i].Vertices {
				if !bagSet[v] {
					inside = false
					break
				}
			}
			if inside {
				covered |= 1 << i
				rootEdges = append(rootEdges, i)
			}
		}
		remaining := mask &^ covered

		w, err := e.width(bag)
		if err != nil {
			return nil, err
		}
		selDepthHere := 0
		for _, i := range rootEdges {
			if e.selEdges[i] {
				selDepthHere = 1 // depth of this node relative to subtree root
			}
		}

		if remaining == 0 {
			sort.Ints(rootEdges)
			cands = append(cands, &candidate{
				node:     &Node{Bag: bag, Edges: rootEdges, Width: w},
				fhw:      w,
				numNodes: 1,
				depth:    1,
				shared:   0,
				selDepth: selDepthHere,
			})
			continue
		}

		// Split remaining edges into components connected through
		// vertices outside the bag.
		outside := map[string]bool{}
		var remIdx []int
		for _, i := range edgeIdx {
			if remaining&(1<<i) != 0 {
				remIdx = append(remIdx, i)
				for _, v := range e.h.Edges[i].Vertices {
					if !bagSet[v] {
						outside[v] = true
					}
				}
			}
		}
		comps := e.h.ConnectedComponents(remIdx, outside)

		// For each component, the interface with this bag must appear in
		// the child's root bag (running intersection).
		childChoices := make([][]*candidate, len(comps))
		feasible := true
		for ci, comp := range comps {
			var cmask uint32
			ifaceSet := map[string]bool{}
			var iface []string
			for _, i := range comp {
				cmask |= 1 << i
				for _, v := range e.h.Edges[i].Vertices {
					if bagSet[v] && !ifaceSet[v] {
						ifaceSet[v] = true
						iface = append(iface, v)
					}
				}
			}
			sub, err := e.decompose(cmask, iface, false)
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				feasible = false
				break
			}
			childChoices[ci] = sub
		}
		if !feasible {
			continue
		}

		// Combine: take the best candidate per component (statistics
		// compose monotonically, so per-component argmin is safe for the
		// lexicographic order used here).
		sort.Ints(rootEdges)
		combos := [][]*candidate{nil}
		for _, choices := range childChoices {
			// Keep a handful of top choices per component to allow
			// different tie-break tradeoffs to surface at the root.
			top := topK(choices, 3)
			var next [][]*candidate
			for _, combo := range combos {
				for _, ch := range top {
					next = append(next, append(append([]*candidate(nil), combo...), ch))
				}
				if len(next) > e.opts.MaxCandidates {
					break
				}
			}
			combos = next
		}
		for _, combo := range combos {
			node := &Node{Bag: bag, Edges: rootEdges, Width: w}
			cand := &candidate{fhw: w, numNodes: 1, depth: 1, selDepth: selDepthHere}
			for _, ch := range combo {
				node.Children = append(node.Children, ch.node)
				cand.fhw = math.Max(cand.fhw, ch.fhw)
				cand.numNodes += ch.numNodes
				if ch.depth+1 > cand.depth {
					cand.depth = ch.depth + 1
				}
				// Shared vertices between this bag and the child bag.
				for _, v := range ch.node.Bag {
					if bagSet[v] {
						cand.shared++
					}
				}
				cand.shared += ch.shared
				if ch.selDepth > 0 && ch.selDepth+1 > cand.selDepth {
					cand.selDepth = ch.selDepth + 1
				}
			}
			cand.node = node
			cands = append(cands, cand)
		}
	}

	cands = topK(cands, e.opts.MaxCandidates)
	e.memo[key] = cands
	return cands, nil
}

// topK sorts candidates best-first and truncates to k.
func topK(cands []*candidate, k int) []*candidate {
	sort.Slice(cands, func(i, j int) bool { return cands[i].better(cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// Walk visits nodes depth-first, parents before children.
func (g *GHD) Walk(f func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		f(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	rec(g.Root, 1)
}

// String renders the decomposition for EXPLAIN output.
func (g *GHD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GHD fhw=%.2f nodes=%d depth=%d\n", g.FHW, g.NumNodes, g.Depth)
	g.Walk(func(n *Node, d int) {
		fmt.Fprintf(&b, "%s[%s] edges=%v width=%.2f\n", strings.Repeat("  ", d-1),
			strings.Join(n.Bag, ","), n.Edges, n.Width)
	})
	return b.String()
}

// AcyclicHyper reports whether the hypergraph formed by the given edges
// (each a list of vertex names) is α-acyclic, via GYO ear removal: an
// edge e is an ear when every vertex it shares with the rest of the
// hypergraph is contained in one single other edge w (its witness), or
// when it shares nothing at all. Repeatedly removing ears reduces an
// α-acyclic hypergraph to at most one edge. This is the per-GHD-node
// classification used by the hybrid executor: acyclic bags admit a
// binary hash-join chain, cyclic cores need the WCOJ path.
func AcyclicHyper(edges [][]string) bool {
	live := make([][]string, 0, len(edges))
	for _, e := range edges {
		if len(e) > 0 {
			live = append(live, e)
		}
	}
	for len(live) > 1 {
		removed := false
		for i := 0; i < len(live) && !removed; i++ {
			if gyoEar(live, i) {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				removed = true
			}
		}
		if !removed {
			return false
		}
	}
	return true
}

// gyoEar reports whether live[i] is an ear of the hypergraph.
func gyoEar(live [][]string, i int) bool {
	e := live[i]
	// shared: vertices of e appearing in at least one other edge.
	var shared []string
	for _, v := range e {
		for j, f := range live {
			if j == i {
				continue
			}
			if containsVert(f, v) {
				shared = append(shared, v)
				break
			}
		}
	}
	if len(shared) == 0 {
		return true
	}
	for j, f := range live {
		if j == i {
			continue
		}
		all := true
		for _, v := range shared {
			if !containsVert(f, v) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func containsVert(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
