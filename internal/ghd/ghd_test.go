package ghd

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hypergraph"
)

func mustHG(t *testing.T, edges []hypergraph.Edge) *hypergraph.Hypergraph {
	t.Helper()
	h, err := hypergraph.New(edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func q5Hypergraph(t *testing.T) *hypergraph.Hypergraph {
	return mustHG(t, []hypergraph.Edge{
		{Name: "customer", Vertices: []string{"custkey", "nationkey"}, Card: 150000},
		{Name: "orders", Vertices: []string{"custkey", "orderkey"}, Card: 1500000},
		{Name: "lineitem", Vertices: []string{"orderkey", "suppkey"}, Card: 6000000},
		{Name: "supplier", Vertices: []string{"suppkey", "nationkey"}, Card: 10000},
		{Name: "nation", Vertices: []string{"nationkey", "regionkey"}, Card: 25},
		{Name: "region", Vertices: []string{"regionkey"}, Card: 5},
	})
}

func TestTriangleSingleNode(t *testing.T) {
	h := mustHG(t, []hypergraph.Edge{
		{Name: "R", Vertices: []string{"a", "b"}, Card: 100},
		{Name: "S", Vertices: []string{"b", "c"}, Card: 100},
		{Name: "T", Vertices: []string{"a", "c"}, Card: 100},
	})
	g, err := Decompose(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.FHW-1.5) > 1e-6 {
		t.Fatalf("triangle FHW = %v, want 1.5", g.FHW)
	}
	if g.NumNodes != 1 {
		t.Fatalf("triangle should be a single node, got %d", g.NumNodes)
	}
	if len(g.Root.Edges) != 3 {
		t.Fatalf("root edges = %v", g.Root.Edges)
	}
}

func TestAcyclicCompressesToSingleNode(t *testing.T) {
	// Path R(a,b) ⋈ S(b,c) ⋈ T(c,d): FHW 1, and §II-C compression should
	// yield one WCOJ node.
	h := mustHG(t, []hypergraph.Edge{
		{Name: "R", Vertices: []string{"a", "b"}, Card: 100},
		{Name: "S", Vertices: []string{"b", "c"}, Card: 100},
		{Name: "T", Vertices: []string{"c", "d"}, Card: 100},
	})
	g, err := Decompose(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.FHW-1) > 1e-6 {
		t.Fatalf("path FHW = %v, want 1", g.FHW)
	}
	if g.NumNodes != 1 {
		t.Fatalf("FHW-1 plan should compress to one node, got %d", g.NumNodes)
	}
	if len(g.Root.Edges) != 3 || len(g.Root.Bag) != 4 {
		t.Fatalf("compressed root = %+v", g.Root)
	}
}

func TestQ5TwoNodePlan(t *testing.T) {
	h := q5Hypergraph(t)
	g, err := Decompose(h, Options{
		RootMustContain: []string{"nationkey"},
		SelectionEdges:  []int{5}, // region has r_name = 'ASIA'
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's plan: FHW 2, two nodes — the {regionkey,nationkey}
	// filter node under the 4-attribute join node.
	if math.Abs(g.FHW-2) > 1e-6 {
		t.Fatalf("Q5 FHW = %v, want 2", g.FHW)
	}
	if g.NumNodes != 2 {
		t.Fatalf("Q5 should be a 2-node GHD, got %d:\n%s", g.NumNodes, g)
	}
	if len(g.Root.Children) != 1 {
		t.Fatalf("root should have one child:\n%s", g)
	}
	child := g.Root.Children[0]
	bag := strings.Join(child.Bag, ",")
	if !strings.Contains(bag, "regionkey") || !strings.Contains(bag, "nationkey") {
		t.Fatalf("child bag = %v, want {regionkey, nationkey}", child.Bag)
	}
	// Root must contain the output vertex.
	found := false
	for _, v := range g.Root.Bag {
		if v == "nationkey" {
			found = true
		}
	}
	if !found {
		t.Fatalf("root bag %v missing nationkey", g.Root.Bag)
	}
}

func TestRootMustContainRespected(t *testing.T) {
	h := mustHG(t, []hypergraph.Edge{
		{Name: "R", Vertices: []string{"a", "b"}, Card: 100},
		{Name: "S", Vertices: []string{"b", "c"}, Card: 100},
	})
	g, err := Decompose(h, Options{RootMustContain: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range g.Root.Bag {
		if v == "c" {
			found = true
		}
	}
	if !found {
		t.Fatalf("root bag %v does not contain required vertex c", g.Root.Bag)
	}
}

func TestEveryEdgeAssignedExactlyOnce(t *testing.T) {
	h := q5Hypergraph(t)
	g, err := Decompose(h, Options{RootMustContain: []string{"nationkey"}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	g.Walk(func(n *Node, _ int) {
		for _, e := range n.Edges {
			seen[e]++
		}
	})
	for i := range h.Edges {
		if seen[i] != 1 {
			t.Fatalf("edge %d assigned %d times:\n%s", i, seen[i], g)
		}
	}
}

func TestRunningIntersectionProperty(t *testing.T) {
	// For every vertex, the set of nodes containing it must form a
	// connected subtree.
	h := q5Hypergraph(t)
	for _, req := range [][]string{nil, {"nationkey"}, {"orderkey", "nationkey"}} {
		g, err := Decompose(h, Options{RootMustContain: req})
		if err != nil {
			t.Fatal(err)
		}
		checkRunningIntersection(t, g)
	}
}

func checkRunningIntersection(t *testing.T, g *GHD) {
	t.Helper()
	// For each vertex, collect nodes containing it; check connectivity by
	// walking: a node's vertex occurrence is connected iff the occurrences
	// form one subtree — equivalently, for every node n containing v whose
	// parent does not contain v, n is the unique "topmost" occurrence.
	type nodeInfo struct {
		node   *Node
		parent *Node
	}
	var infos []nodeInfo
	var walk func(n, p *Node)
	walk = func(n, p *Node) {
		infos = append(infos, nodeInfo{n, p})
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(g.Root, nil)
	vertices := map[string]bool{}
	for _, in := range infos {
		for _, v := range in.node.Bag {
			vertices[v] = true
		}
	}
	has := func(n *Node, v string) bool {
		if n == nil {
			return false
		}
		for _, x := range n.Bag {
			if x == v {
				return true
			}
		}
		return false
	}
	for v := range vertices {
		tops := 0
		for _, in := range infos {
			if has(in.node, v) && !has(in.parent, v) {
				tops++
			}
		}
		if tops != 1 {
			t.Fatalf("vertex %s occurs in %d disconnected subtrees:\n%s", v, tops, g)
		}
	}
}

func TestSelectionDepthHeuristic(t *testing.T) {
	// Two same-FHW decompositions exist for this query; the one putting
	// the selected relation deeper should win, all earlier tie-breaks
	// being equal.
	h := q5Hypergraph(t)
	g, err := Decompose(h, Options{
		RootMustContain: []string{"nationkey"},
		SelectionEdges:  []int{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The selection edge (region) should not be in the root.
	for _, e := range g.Root.Edges {
		if e == 5 {
			t.Fatalf("selection edge in root; want it pushed into the leaf:\n%s", g)
		}
	}
	if g.SelectionDepth < 2 {
		t.Fatalf("selection depth = %d, want >= 2", g.SelectionDepth)
	}
}

func TestEmptyHypergraphErrors(t *testing.T) {
	h := &hypergraph.Hypergraph{}
	if _, err := Decompose(h, Options{}); err == nil {
		t.Error("empty hypergraph should error")
	}
}

func TestSingleEdge(t *testing.T) {
	h := mustHG(t, []hypergraph.Edge{{Name: "R", Vertices: []string{"a", "b"}, Card: 5}})
	g, err := Decompose(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 1 || math.Abs(g.FHW-1) > 1e-9 {
		t.Fatalf("single edge: nodes=%d fhw=%v", g.NumNodes, g.FHW)
	}
}

func TestMatrixMultiplyHypergraph(t *testing.T) {
	// m1(i,k) ⋈ m2(k,j): FHW 1 → single WCOJ node (Fig. 4 right).
	h := mustHG(t, []hypergraph.Edge{
		{Name: "m1", Vertices: []string{"i", "k"}, Card: 1000},
		{Name: "m2", Vertices: []string{"k", "j"}, Card: 1000},
	})
	g, err := Decompose(h, Options{RootMustContain: []string{"i", "j"}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes != 1 {
		t.Fatalf("matmul should be single node, got:\n%s", g)
	}
	if math.Abs(g.FHW-1) > 1e-9 {
		t.Fatalf("matmul FHW = %v, want 1", g.FHW)
	}
}

func TestStringOutput(t *testing.T) {
	h := q5Hypergraph(t)
	g, err := Decompose(h, Options{RootMustContain: []string{"nationkey"}})
	if err != nil {
		t.Fatal(err)
	}
	if s := g.String(); !strings.Contains(s, "fhw=") {
		t.Errorf("String output = %q", s)
	}
}

// randomEdges draws one hypergraph: even trials a chain of 2-vertex
// edges (acyclic), odd trials a spanning chain plus random extra edges.
func randomEdges(r *rand.Rand, trial int) []hypergraph.Edge {
	vertexName := func(i int) string { return string(rune('a' + i)) }
	nV := 3 + r.Intn(5)
	prefix := "e"
	if trial%2 == 1 {
		prefix = "c"
	}
	var edges []hypergraph.Edge
	for i := 0; i+1 < nV; i++ {
		edges = append(edges, hypergraph.Edge{
			Name:     fmt.Sprintf("%s%d", prefix, i),
			Vertices: []string{vertexName(i), vertexName(i + 1)},
			Card:     10 + r.Intn(100),
		})
	}
	if trial%2 == 1 {
		for k := 0; k < r.Intn(3); k++ {
			a, b := r.Intn(nV), r.Intn(nV)
			if a == b {
				continue
			}
			edges = append(edges, hypergraph.Edge{
				Name:     fmt.Sprintf("x%d", k),
				Vertices: []string{vertexName(a), vertexName(b)},
				Card:     10 + r.Intn(100),
			})
		}
	}
	return edges
}

// Property: random chain/star (acyclic) hypergraphs always decompose to
// FHW 1 and compress to a single node; random arbitrary hypergraphs
// always yield a valid decomposition (edges covered once, running
// intersection).
func TestRandomHypergraphProperties(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		edges := randomEdges(r, trial)
		h, err := hypergraph.New(edges)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decompose(h, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if trial%2 == 0 {
			if math.Abs(g.FHW-1) > 1e-9 || g.NumNodes != 1 {
				t.Fatalf("trial %d: acyclic chain FHW=%v nodes=%d", trial, g.FHW, g.NumNodes)
			}
		}
		// Every edge assigned exactly once.
		seen := map[int]int{}
		g.Walk(func(n *Node, _ int) {
			for _, e := range n.Edges {
				seen[e]++
			}
		})
		for i := range edges {
			if seen[i] != 1 {
				t.Fatalf("trial %d: edge %d assigned %d times", trial, i, seen[i])
			}
		}
		checkRunningIntersection(t, g)
	}
}

// TestDecomposeMemo: a repeated search over an equal hypergraph returns
// the memoised GHD itself, equal to an uncached search; edge names and
// cardinalities are not read, so changing them still hits; changing
// anything the search reads misses.
func TestDecomposeMemo(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	clone := func(edges []hypergraph.Edge) []hypergraph.Edge {
		out := make([]hypergraph.Edge, len(edges))
		for i, e := range edges {
			e.Vertices = append([]string(nil), e.Vertices...)
			out[i] = e
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		edges := randomEdges(r, trial)
		opts := Options{RootMustContain: []string{edges[0].Vertices[0]}, SelectionEdges: []int{len(edges) - 1}}
		g, err := Decompose(mustHG(t, edges), opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		u, err := search(mustHG(t, edges), opts)
		if err != nil {
			t.Fatal(err)
		}
		if g.String() != u.String() {
			t.Fatalf("trial %d: memoised\n%s\nuncached\n%s", trial, g, u)
		}
		renamed := clone(edges)
		for i := range renamed {
			renamed[i].Name += "_r"
			renamed[i].Card *= 7
		}
		if hit, _ := Decompose(mustHG(t, renamed), opts); hit != g {
			t.Fatalf("trial %d: names and cards changed the result identity", trial)
		}

		moved := clone(edges)
		moved[0].Vertices[1] = "z"
		otherRoot, otherSel := opts, opts
		otherRoot.RootMustContain = []string{edges[0].Vertices[1]}
		otherSel.SelectionEdges = []int{0}
		for name, c := range map[string]struct {
			edges []hypergraph.Edge
			opts  Options
		}{
			"edge vertex":     {moved, opts},
			"RootMustContain": {edges, otherRoot},
			"SelectionEdges":  {edges, otherSel},
		} {
			miss, err := Decompose(mustHG(t, c.edges), c.opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if miss == g {
				t.Fatalf("trial %d: changed %s hit the memo", trial, name)
			}
		}
	}
}

func TestAcyclicHyper(t *testing.T) {
	cases := []struct {
		name  string
		edges [][]string
		want  bool
	}{
		{"empty", nil, true},
		{"single", [][]string{{"a", "b"}}, true},
		{"chain", [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}}, true},
		{"star", [][]string{{"a", "b"}, {"a", "c"}, {"a", "d"}}, true},
		{"triangle", [][]string{{"a", "b"}, {"b", "c"}, {"a", "c"}}, false},
		{"triangle-covered", [][]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c"}}, true},
		{"q3-shape", [][]string{{"ck"}, {"ok", "ck"}, {"ok"}}, true},
		{"q10-shape", [][]string{{"ck", "nk"}, {"ck", "ok"}, {"ok"}, {"nk"}}, true},
		{"4-cycle", [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}, false},
		{"disconnected", [][]string{{"a", "b"}, {"c", "d"}}, true},
		{"superedge", [][]string{{"a", "b", "c"}, {"a"}, {"b"}, {"a", "c"}}, true},
	}
	for _, tc := range cases {
		if got := AcyclicHyper(tc.edges); got != tc.want {
			t.Errorf("%s: AcyclicHyper=%v want %v", tc.name, got, tc.want)
		}
	}
}
