// Command pagerank runs power-iteration PageRank entirely as SQL:
// each iteration is one sparse matrix–vector multiplication — the SMV
// kernel of Table II — against the column-normalized adjacency matrix.
// This is the workload class the paper's introduction motivates:
// machine-learning-style iteration expressed and executed inside the
// relational engine, with no export to an external LA package.
//
// Usage: pagerank [-nodes 5000] [-edges 50000] [-iters 20]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"
	"time"

	lh "repro"
)

func main() {
	nodes := flag.Int("nodes", 5000, "vertex count")
	edges := flag.Int("edges", 50000, "edge count")
	iters := flag.Int("iters", 20, "power iterations")
	damping := flag.Float64("d", 0.85, "damping factor")
	flag.Parse()

	// Random graph with a few hub pages.
	r := rand.New(rand.NewSource(7))
	type edge struct{ s, d int64 }
	seen := map[edge]bool{}
	outDeg := make([]int, *nodes)
	var es []edge
	for len(es) < *edges {
		e := edge{int64(r.Intn(*nodes)), int64(r.Intn(*nodes / 10))}
		if r.Intn(3) > 0 {
			e.d = int64(r.Intn(*nodes))
		}
		if e.s == e.d || seen[e] {
			continue
		}
		seen[e] = true
		es = append(es, e)
		outDeg[e.s]++
	}

	eng := lh.New()
	// The transition matrix Mᵀ stored as a relation: M[j,i] = 1/outdeg(i)
	// for each edge i→j, so rank' = Mᵀ·rank is one SMV.
	m, err := eng.CreateTable(lh.Schema{Name: "m", Cols: []lh.ColumnDef{
		{Name: "i", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
		{Name: "j", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
		{Name: "v", Kind: lh.Float64, Role: lh.Annotation},
	}})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range es {
		if err := m.Append(e.d, e.s, 1/float64(outDeg[e.s])); err != nil {
			log.Fatal(err)
		}
	}
	// Guarantee every node exists in the shared domain.
	diag, err := eng.CreateTable(lh.Schema{Name: "nodes", Cols: []lh.ColumnDef{
		{Name: "id", Kind: lh.Int64, Role: lh.Key, Domain: "node", PK: true},
		{Name: "one", Kind: lh.Float64, Role: lh.Annotation},
	}})
	if err != nil {
		log.Fatal(err)
	}
	for n := 0; n < *nodes; n++ {
		if err := diag.Append(int64(n), 1.0); err != nil {
			log.Fatal(err)
		}
	}
	// The rank vector lives in its own table, rebuilt per iteration.
	mkVec := func(eng *lh.Engine, name string, vals []float64) *lh.Engine {
		t, err := eng.CreateTable(lh.Schema{Name: name, Cols: []lh.ColumnDef{
			{Name: "k", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
			{Name: "x", Kind: lh.Float64, Role: lh.Annotation},
		}})
		if err != nil {
			log.Fatal(err)
		}
		for k, v := range vals {
			if err := t.Append(int64(k), v); err != nil {
				log.Fatal(err)
			}
		}
		return eng
	}

	rank := make([]float64, *nodes)
	for i := range rank {
		rank[i] = 1 / float64(*nodes)
	}

	t0 := time.Now()
	for it := 0; it < *iters; it++ {
		// A fresh engine per iteration keeps the example simple (the rank
		// vector is replaced wholesale each round, not appended to); the
		// matrix trie rebuild is the dominant cost and is shared across
		// the comparison anyway.
		iterEng := lh.New()
		cloneTables(eng, iterEng)
		mkVec(iterEng, "rank", rank)
		res, err := iterEng.Query(context.Background(), `SELECT m.i, sum(m.v * rank.x) as y
			FROM m, rank WHERE m.j = rank.k GROUP BY m.i`)
		if err != nil {
			log.Fatal(err)
		}
		next := make([]float64, *nodes)
		base := (1 - *damping) / float64(*nodes)
		for i := range next {
			next[i] = base
		}
		for rrow := 0; rrow < res.NumRows; rrow++ {
			next[res.Col("i").I64[rrow]] += *damping * res.Col("y").F64[rrow]
		}
		// Redistribute dangling mass to keep the vector stochastic.
		var total float64
		for _, v := range next {
			total += v
		}
		for i := range next {
			next[i] /= total
		}
		rank = next
	}
	sqlTime := time.Since(t0)

	// Reference: plain Go power iteration.
	ref := make([]float64, *nodes)
	for i := range ref {
		ref[i] = 1 / float64(*nodes)
	}
	t0 = time.Now()
	for it := 0; it < *iters; it++ {
		next := make([]float64, *nodes)
		base := (1 - *damping) / float64(*nodes)
		for i := range next {
			next[i] = base
		}
		for _, e := range es {
			next[e.d] += *damping * ref[e.s] / float64(outDeg[e.s])
		}
		var total float64
		for _, v := range next {
			total += v
		}
		for i := range next {
			next[i] /= total
		}
		ref = next
	}
	refTime := time.Since(t0)

	maxDiff := 0.0
	for i := range rank {
		if d := math.Abs(rank[i] - ref[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("pagerank over %d nodes / %d edges, %d iterations\n", *nodes, len(es), *iters)
	fmt.Printf("  as SQL (incl. per-iteration load): %v\n", sqlTime.Round(time.Millisecond))
	fmt.Printf("  native power iteration:            %v\n", refTime.Round(time.Millisecond))
	fmt.Printf("  max |sql - native| = %.3e\n", maxDiff)

	type nr struct {
		id int64
		r  float64
	}
	top := make([]nr, *nodes)
	for i, v := range rank {
		top[i] = nr{int64(i), v}
	}
	sort.Slice(top, func(a, b int) bool { return top[a].r > top[b].r })
	fmt.Println("top pages:")
	for _, x := range top[:5] {
		fmt.Printf("  node %-6d rank %.5f\n", x.id, x.r)
	}
}

// cloneTables copies the immutable matrix and node tables into a fresh
// engine.
func cloneTables(src, dst *lh.Engine) {
	for _, name := range []string{"m", "nodes"} {
		st := src.Table(name)
		t, err := dst.CreateTable(st.Schema)
		if err != nil {
			log.Fatal(err)
		}
		data := map[string]interface{}{}
		for _, col := range st.Cols {
			switch col.Def.Kind {
			case lh.Int64, lh.Date:
				data[col.Def.Name] = col.Ints
			case lh.Float64:
				data[col.Def.Name] = col.Floats
			case lh.String:
				strs := make([]string, st.NumRows)
				for i := range strs {
					strs[i] = col.Str(i)
				}
				data[col.Def.Name] = strs
			}
		}
		if err := t.SetColumnData(data); err != nil {
			log.Fatal(err)
		}
	}
}
