package trie

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Exec's MIN/MAX combines: unlike math.Min they keep the accumulator on
// a NaN comparison, so the fold order is observable.
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

// randSel draws an ascending selection of [0, n): empty, all rows, one
// row, or a random density.
func randSel(rng *rand.Rand, n int) []int32 {
	var sel []int32
	switch mode := rng.Intn(6); {
	case mode == 0 || n == 0:
	case mode == 1:
		for r := 0; r < n; r++ {
			sel = append(sel, int32(r))
		}
	case mode == 2:
		sel = []int32{int32(rng.Intn(n))}
	default:
		p := rng.Float64()
		for r := 0; r < n; r++ {
			if rng.Float64() < p {
				sel = append(sel, int32(r))
			}
		}
	}
	return sel
}

// gatherInput is the direct build's input for sel: key columns and
// annotations gathered to the survivors, plus the "__count" ones column
// Derive's Count stands in for.
func gatherInput(in BuildInput, sel []int32) (BuildInput, []AnnSpec) {
	g := BuildInput{Attrs: in.Attrs, Threads: in.Threads}
	for _, col := range in.Keys {
		out := make([]uint32, len(sel))
		for i, r := range sel {
			out[i] = col[r]
		}
		g.Keys = append(g.Keys, out)
	}
	for _, a := range in.Anns {
		ga := a
		if a.Kind == F64 {
			ga.F64 = make([]float64, len(sel))
			for i, r := range sel {
				ga.F64[i] = a.F64[r]
			}
		} else {
			ga.Codes = make([]uint32, len(sel))
			for i, r := range sel {
				ga.Codes[i] = a.Codes[r]
			}
		}
		g.Anns = append(g.Anns, ga)
	}
	anns := g.Anns
	ones := make([]float64, len(sel))
	for i := range ones {
		ones[i] = 1
	}
	g.Anns = append(g.Anns[:len(anns):len(anns)], AnnSpec{Name: "__count", Level: len(in.Keys) - 1, Kind: F64, F64: ones})
	return g, anns
}

// appendTail makes rows [b, n) of in a tail appended after a base over
// rows [0, b): their key codes are redrawn from a domain wider than the
// base's, so tail tuples repeat base tuples, extend a base prefix at an
// inner level or the leaf, or are new from level 0 on (with codes below,
// between and above the base's). It returns the base's input.
func appendTail(rng *rand.Rand, in BuildInput, b int) BuildInput {
	base := BuildInput{Attrs: in.Attrs, Threads: in.Threads}
	for _, col := range in.Keys {
		dom := uint32(1)
		for _, c := range col[:b] {
			dom = max(dom, c+1)
		}
		wide := int(dom) + 1 + int(dom)/4
		for i := b; i < len(col); i++ {
			col[i] = uint32(rng.Intn(wide))
		}
		base.Keys = append(base.Keys, col[:b])
	}
	return base
}

// tailSel draws an ascending selection of [0, n) whose base part (rows
// below b) and tail part are drawn independently, so either may be
// empty, full or sparse.
func tailSel(rng *rand.Rand, b, n int) []int32 {
	sel := randSel(rng, b)
	for _, r := range randSel(rng, n-b) {
		sel = append(sel, r+int32(b))
	}
	return sel
}

// TestDeriveMatchesDirectBuild: a trie derived from the filter-free base
// is bit-identical — levels, Starts, set layouts, every annotation by
// bit pattern, and the whole query surface — to the sort-and-scan reference
// over the gathered survivors, as are Build and NewLazy().Full(), across
// 1–3 levels, duplicate key tuples, NaN and ±0 leaf values, Sum/min/max
// folds, Code annotations, and empty, all-pass and single-row
// selections. Most bases cover only a
// prefix of the rows: the rest are a tail of appended rows whose tuples
// are new at level 0, at an inner level or at the leaf, or repeat a base
// tuple across the base/tail boundary, and selections reach into the
// base only, the tail only, both or neither.
func TestDeriveMatchesDirectBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	combines := []CombineFunc{nil, minCombine, maxCombine}
	for iter := 0; iter < 600; iter++ {
		k := 1 + rng.Intn(3)
		n := rng.Intn(400)
		in := randBuildInput(rng, k, n)
		for i := range in.Anns {
			if in.Anns[i].Level == k-1 && in.Anns[i].Kind == F64 {
				in.Anns[i].Combine = combines[rng.Intn(len(combines))]
			}
		}
		b := n
		switch rng.Intn(4) {
		case 0:
		case 1:
			b = 0
		default:
			b = rng.Intn(n + 1)
		}
		base, err := NewBase(appendTail(rng, in, b))
		if err != nil {
			t.Fatalf("NewBase: %v", err)
		}
		for draw := 0; draw < 4; draw++ {
			sel := tailSel(rng, b, n)
			g, anns := gatherInput(in, sel)
			want := refBuild(g)
			built, err := Build(g)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			requireTrieEqual(t, want, built)
			lz, err := NewLazy(g)
			if err != nil {
				t.Fatalf("NewLazy: %v", err)
			}
			got, err := base.Derive(DeriveInput{Sel: sel, Keys: in.Keys, Anns: anns, Count: "__count", Threads: g.Threads})
			if err != nil {
				t.Fatalf("Derive: %v", err)
			}
			if got.BuiltLevels() != k {
				t.Fatalf("iter %d: derived BuiltLevels=%d, want %d", iter, got.BuiltLevels(), k)
			}
			if d := indexDiff(want, got, len(sel)); d != "" {
				t.Fatalf("iter %d (k=%d n=%d base=%d sel=%d): derived index: %s", iter, k, n, b, len(sel), d)
			}
			requireTrieEqual(t, want, got.Full(0))
			requireTrieEqual(t, want, lz.Full(0))
		}
	}
}

// TestDeriveParallelRegions: selections large enough to split the pass
// across threads (at level-0 boundaries, over wide and narrow key
// domains) stay bit-identical to the reference at every thread count, with and
// without a tail of appended rows (whose new tuples fall inside, between
// and after the regions).
func TestDeriveParallelRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 3 * deriveSplitMin
	for iter := 0; iter < 24; iter++ {
		k := 1 + iter%3
		in := randBuildInput(rng, k, n)
		for d := range in.Keys {
			dom := []int{3, 200, 20000}[rng.Intn(3)]
			for i := range in.Keys[d] {
				in.Keys[d][i] = uint32(rng.Intn(dom))
			}
		}
		b := n
		if iter%2 == 1 {
			b = n - 1 - rng.Intn(n/8)
		}
		base, err := NewBase(appendTail(rng, in, b))
		if err != nil {
			t.Fatal(err)
		}
		var sel []int32
		p := 0.4 + 0.6*rng.Float64()
		for r := 0; r < n; r++ {
			if rng.Float64() < p {
				sel = append(sel, int32(r))
			}
		}
		g, anns := gatherInput(in, sel)
		want := refBuild(g)
		for _, threads := range []int{1, 2, 3, 7} {
			got, err := base.Derive(DeriveInput{Sel: sel, Keys: in.Keys, Anns: anns, Count: "__count", Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			requireTrieEqual(t, want, got.Full(0))
		}
	}
}

// TestDeriveConcurrent derives from one shared base in many goroutines
// at once (the cached-base case; run under -race by make hybrid-race).
func TestDeriveConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randBuildInput(rng, 2, 5000)
	base, err := NewBase(in)
	if err != nil {
		t.Fatal(err)
	}
	sels := make([][]int32, 8)
	wants := make([]*Trie, len(sels))
	for i := range sels {
		sels[i] = randSel(rng, 5000)
		g, _ := gatherInput(in, sels[i])
		wants[i] = refBuild(g)
	}
	got := make([]*Trie, len(sels))
	errs := make([]error, len(sels))
	var wg sync.WaitGroup
	for i := range sels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, anns := gatherInput(in, sels[i])
			d, err := base.Derive(DeriveInput{Sel: sels[i], Anns: anns, Count: "__count"})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = d.Full(2)
		}(i)
	}
	wg.Wait()
	for i := range sels {
		if errs[i] != nil {
			t.Fatalf("Derive: %v", errs[i])
		}
		requireTrieEqual(t, wants[i], got[i])
	}
}

// TestDeriveRejectsBadSelections: the selection is the caller's
// contract; an unsorted, repeated or out-of-range id is an error, not a
// silently wrong trie.
func TestDeriveRejectsBadSelections(t *testing.T) {
	in := randBuildInput(rand.New(rand.NewSource(3)), 2, 10)
	base, err := NewBase(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range [][]int32{{2, 1}, {3, 3}, {10}, {-1}} {
		if _, err := base.Derive(DeriveInput{Sel: sel}); err == nil {
			t.Fatalf("Derive(%v): want an error", sel)
		}
	}
	// A tail needs key columns covering it, in order.
	keys := [][]uint32{make([]uint32, 12), make([]uint32, 12)}
	for _, sel := range [][]int32{{11, 10}, {10, 10}, {12}} {
		if _, err := base.Derive(DeriveInput{Sel: sel, Keys: keys}); err == nil {
			t.Fatalf("Derive(%v) with a tail: want an error", sel)
		}
	}
	if _, err := base.Derive(DeriveInput{Sel: []int32{10}, Keys: keys[:1]}); err == nil {
		t.Fatal("Derive with a missing key column: want an error")
	}
	if _, err := base.Derive(DeriveInput{Sel: []int32{1}, Anns: []AnnSpec{{Name: "x", Level: 0, Kind: F64}}}); err == nil {
		t.Fatal("Derive with a short annotation: want an error")
	}
}

// BenchmarkDerive derives a quarter of a 600k-row, 150k-key clustered
// base (lineitem's [orderkey] shape at scale factor 0.1) against the
// direct lazy build over the same survivors.
func BenchmarkDerive(b *testing.B) {
	const n, keys = 600_000, 150_000
	rng := rand.New(rand.NewSource(1))
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(i * keys / n)
	}
	var sel []int32
	for r := 0; r < n; r++ {
		if rng.Intn(4) == 0 {
			sel = append(sel, int32(r))
		}
	}
	vals := make([]float64, len(sel))
	for i := range vals {
		vals[i] = rng.Float64()
	}
	in := BuildInput{Attrs: []string{"a"}, Keys: [][]uint32{col}}
	base, err := NewBase(in)
	if err != nil {
		b.Fatal(err)
	}
	anns := []AnnSpec{{Name: "v", Kind: F64, F64: vals}}
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("derive/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := base.Derive(DeriveInput{Sel: sel, Anns: anns, Count: "__count", Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, _ := gatherInput(in, sel)
			g.Anns = append(g.Anns, anns...)
			lz, err := NewLazy(g)
			if err != nil {
				b.Fatal(err)
			}
			lz.Ann("v")
		}
	})
}
