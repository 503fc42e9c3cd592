package trie

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randBuildInput generates a duplicate-heavy input with F64 annotations
// (including NaN and signed zeros) and a Code annotation per level.
func randBuildInput(rng *rand.Rand, k, n int) BuildInput {
	in := BuildInput{Threads: 1 + rng.Intn(4)}
	for d := 0; d < k; d++ {
		in.Attrs = append(in.Attrs, string(rune('a'+d)))
		dom := 1 + rng.Intn(8)
		col := make([]uint32, n)
		for i := range col {
			col[i] = uint32(rng.Intn(dom))
		}
		in.Keys = append(in.Keys, col)
	}
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), -3.5}
	for d := 0; d < k; d++ {
		f := make([]float64, n)
		for i := range f {
			if rng.Intn(4) == 0 {
				f[i] = specials[rng.Intn(len(specials))]
			} else {
				f[i] = float64(rng.Intn(100)) / 4
			}
		}
		var comb CombineFunc
		if d == k-1 && rng.Intn(2) == 0 {
			comb = func(a, b float64) float64 { return math.Min(a, b) }
		}
		in.Anns = append(in.Anns, AnnSpec{Name: "f" + string(rune('0'+d)), Level: d, Kind: F64, F64: f, Combine: comb})
		c := make([]uint32, n)
		for i := range c {
			c[i] = uint32(rng.Intn(50))
		}
		in.Anns = append(in.Anns, AnnSpec{Name: "c" + string(rune('0'+d)), Level: d, Kind: Code, Codes: c})
	}
	return in
}

// refBuild is the trie tests' reference, independent of the counting
// passes: row ids stably sorted by key tuple, one sequential dedup/emit
// scan that folds each duplicate tuple's leaf annotations in row order
// (keeping the first row's value elsewhere), then buildLevel.
func refBuild(in BuildInput) *Trie {
	k, n := len(in.Keys), len(in.Keys[0])
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		for _, col := range in.Keys {
			if x, y := col[order[a]], col[order[b]]; x != y {
				return x < y
			}
		}
		return false
	})
	t := &Trie{
		Attrs:  append([]string(nil), in.Attrs...),
		Levels: make([]*Level, k),
		Anns:   make(map[string]*Annotation, len(in.Anns)),
	}
	anns := make([]*Annotation, len(in.Anns))
	for i, a := range in.Anns {
		anns[i] = &Annotation{Name: a.Name, Level: a.Level, Kind: a.Kind}
		t.Anns[a.Name] = anns[i]
	}
	vals := make([][]uint32, k)
	starts := make([][]int32, k)
	for d := range starts {
		starts[d] = []int32{0}
	}
	for i, r := range order {
		// First level at which this row differs from the previous one.
		d := 0
		for i > 0 && d < k && in.Keys[d][r] == in.Keys[d][order[i-1]] {
			d++
		}
		if d == k {
			for ai, a := range in.Anns {
				if a.Level == k-1 && a.Kind == F64 {
					comb := a.Combine
					if comb == nil {
						comb = Sum
					}
					f := anns[ai].F64
					f[len(f)-1] = comb(f[len(f)-1], a.F64[r])
				}
			}
			continue
		}
		// Levels below d get new sets (their parent changed).
		for lvl := d + 1; i > 0 && lvl < k; lvl++ {
			starts[lvl] = append(starts[lvl], int32(len(vals[lvl])))
		}
		for lvl := d; lvl < k; lvl++ {
			vals[lvl] = append(vals[lvl], in.Keys[lvl][r])
			for ai, a := range in.Anns {
				switch {
				case a.Level != lvl:
				case a.Kind == F64:
					anns[ai].F64 = append(anns[ai].F64, a.F64[r])
				default:
					anns[ai].Codes = append(anns[ai].Codes, a.Codes[r])
				}
			}
		}
	}
	for d := 0; d < k; d++ {
		starts[d] = append(starts[d], int32(len(vals[d])))
		t.Levels[d] = buildLevel(vals[d], starts[d], in.Threads)
	}
	t.NumTuples = t.Levels[k-1].NumElems()
	return t
}

// requireTrieEqual asserts two tries are bit-identical: shape, sets,
// ranks, layouts, and annotation buffers (float comparisons by bits).
func requireTrieEqual(t *testing.T, want, got *Trie) {
	t.Helper()
	if got.NumTuples != want.NumTuples {
		t.Fatalf("tuples: got %d want %d", got.NumTuples, want.NumTuples)
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("levels: got %d want %d", len(got.Levels), len(want.Levels))
	}
	for d := range want.Levels {
		wl, gl := want.Levels[d], got.Levels[d]
		if len(gl.Sets) != len(wl.Sets) {
			t.Fatalf("level %d: sets=%d, want %d", d, len(gl.Sets), len(wl.Sets))
		}
		if len(gl.Starts) != len(wl.Starts) {
			t.Fatalf("level %d starts len: got %d want %d", d, len(gl.Starts), len(wl.Starts))
		}
		for i := range wl.Starts {
			if gl.Starts[i] != wl.Starts[i] {
				t.Fatalf("level %d Starts[%d]: got %d want %d", d, i, gl.Starts[i], wl.Starts[i])
			}
		}
		for p := range wl.Sets {
			if gl.Sets[p].Layout() != wl.Sets[p].Layout() {
				t.Fatalf("level %d set %d layout: got %v want %v", d, p, gl.Sets[p].Layout(), wl.Sets[p].Layout())
			}
			wv := wl.Sets[p].Values()
			gv := gl.Sets[p].Values()
			if len(wv) != len(gv) {
				t.Fatalf("level %d set %d card: got %d want %d", d, p, len(gv), len(wv))
			}
			for i := range wv {
				if wv[i] != gv[i] {
					t.Fatalf("level %d set %d elem %d: got %d want %d", d, p, i, gv[i], wv[i])
				}
			}
		}
	}
	if len(got.Anns) != len(want.Anns) {
		t.Fatalf("anns: got %d want %d", len(got.Anns), len(want.Anns))
	}
	for name, wa := range want.Anns {
		ga := got.Anns[name]
		if ga == nil || ga.Level != wa.Level || ga.Kind != wa.Kind {
			t.Fatalf("ann %q mismatch: %+v vs %+v", name, ga, wa)
		}
		if len(ga.F64) != len(wa.F64) || len(ga.Codes) != len(wa.Codes) {
			t.Fatalf("ann %q buffers: got %d/%d want %d/%d", name, len(ga.F64), len(ga.Codes), len(wa.F64), len(wa.Codes))
		}
		for i := range wa.F64 {
			if math.Float64bits(ga.F64[i]) != math.Float64bits(wa.F64[i]) {
				t.Fatalf("ann %q F64[%d]: got %v want %v (bits differ)", name, i, ga.F64[i], wa.F64[i])
			}
		}
		for i := range wa.Codes {
			if ga.Codes[i] != wa.Codes[i] {
				t.Fatalf("ann %q Codes[%d]: got %d want %d", name, i, ga.Codes[i], wa.Codes[i])
			}
		}
	}
}

// flatDiff compares the flattened level d of l with level d of the
// reference: its value run and, over a non-empty input, its set bounds.
func flatDiff(want *Trie, l *Lazy, d int) string {
	wl := want.Levels[d]
	var wvals []uint32
	for i := range wl.Sets {
		wvals = append(wvals, wl.Sets[i].Values()...)
	}
	lv := l.levels[d]
	if !slices.Equal(lv.vals, wvals) {
		return fmt.Sprintf("level %d vals=%v want %v", d, lv.vals, wvals)
	}
	// An empty input has no parents below level 0; the reference keeps
	// one empty set per level.
	if l.n > 0 && !slices.Equal(lv.starts, wl.Starts) {
		return fmt.Sprintf("level %d starts=%v want %v", d, lv.starts, wl.Starts)
	}
	return ""
}

// TestLazyEquivalence: NewLazy, level by level and then through Full,
// and Build are bit-identical to the sort-and-scan reference across
// shapes, duplicates, special floats and empty inputs.
func TestLazyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(3)
		n := rng.Intn(200)
		if iter%10 == 0 {
			n = 0
		}
		in := randBuildInput(rng, k, n)
		want := refBuild(in)
		lz, err := NewLazy(in)
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}
		// Exercise the incremental path before converting.
		for d := 0; d < k; d++ {
			lz.ensureLevels(d)
			if lz.BuiltLevels() != d+1 {
				t.Fatalf("BuiltLevels=%d after ensureLevels(%d)", lz.BuiltLevels(), d)
			}
			if diff := flatDiff(want, lz, d); diff != "" {
				t.Fatalf("iter %d (k=%d n=%d): %s", iter, k, n, diff)
			}
		}
		lz.ensureAnns()
		requireTrieEqual(t, want, lz.Full(0))
		got, err := Build(in)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		requireTrieEqual(t, want, got)
	}
}

// indexDiff walks the whole query surface of got, a trie over rows
// source rows — every (level, parent): cardinality, value run, base
// rank, set, and batched rank lookups incl. absent values, before and
// after the level's set form exists — plus every annotation buffer and
// HasDups, and describes the first disagreement with the eagerly built
// reference.
func indexDiff(want *Trie, got *Lazy, rows int) string {
	dups := rows != want.NumTuples
	if dups && !got.HasDups() {
		return "HasDups=false on an input with duplicate tuples"
	}
	for d, lv := range want.Levels {
		// Reachable parents only: an empty input still carries one
		// (unaddressable) empty set per deeper level of the reference.
		parents := 1
		if d > 0 {
			parents = want.Levels[d-1].NumElems()
		}
		for p := 0; p < parents; p++ {
			at := fmt.Sprintf("(%d,%d)", d, p)
			wvals := lv.Sets[p].Values()
			if c := got.Card(d, int32(p)); c != len(wvals) {
				return fmt.Sprintf("Card%s=%d want %d", at, c, len(wvals))
			}
			vals, base := got.Run(d, int32(p))
			if !slices.Equal(vals, wvals) || base != lv.Starts[p] {
				return fmt.Sprintf("Run%s=%v@%d want %v@%d", at, vals, base, wvals, lv.Starts[p])
			}
			// Probe block: every present value interleaved with its
			// (mostly absent) successor, plus an out-of-domain code.
			probe := []uint32{1 << 31}
			for _, v := range wvals {
				probe = append(probe, v, v+1)
			}
			wr := make([]int32, len(probe))
			lv.RankBlock(int32(p), probe, wr)
			ranks := make([]int32, len(probe))
			for _, form := range []string{"flat", "set"} {
				if form == "set" {
					if sv := got.Set(d, int32(p)).Values(); !slices.Equal(sv, wvals) {
						return fmt.Sprintf("Set%s=%v want %v", at, sv, wvals)
					}
				}
				got.RankBlock(d, int32(p), probe, ranks)
				if !slices.Equal(ranks, wr) {
					return fmt.Sprintf("RankBlock%s over the %s form=%v want %v", at, form, ranks, wr)
				}
			}
		}
	}
	for name, wa := range want.Anns {
		ga := got.Ann(name)
		if ga == nil || !slices.Equal(ga.Codes, wa.Codes) || len(ga.F64) != len(wa.F64) {
			return fmt.Sprintf("Ann(%q) shape mismatch", name)
		}
		for i := range wa.F64 {
			if math.Float64bits(ga.F64[i]) != math.Float64bits(wa.F64[i]) {
				return fmt.Sprintf("Ann(%q).F64[%d]=%v want %v", name, i, ga.F64[i], wa.F64[i])
			}
		}
	}
	// Ann built every level: HasDups is exact now.
	if got.HasDups() != dups {
		return fmt.Sprintf("HasDups=%v on a built trie, want %v", got.HasDups(), dups)
	}
	return ""
}

// TestIndexSurfaceAgrees is the property behind the one trie type:
// over random inputs — duplicate-heavy, single-level, and empty — the
// query surface of NewLazy(in), fully built first or not, answers
// exactly like the reference's, with every lazy level, the probe index,
// the set form and the annotations first touched concurrently by
// several goroutines (run under -race).
func TestIndexSurfaceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 120; iter++ {
		k := 1 + rng.Intn(3)
		n := rng.Intn(300)
		if iter%10 == 0 {
			n = 0
		}
		in := randBuildInput(rng, k, n)
		want := refBuild(in)
		built, err := NewLazy(in)
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}
		built.Full(0)
		if d := indexDiff(want, built, n); d != "" {
			t.Fatalf("iter %d: built index: %s", iter, d)
		}
		lz, err := NewLazy(in)
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}
		diffs := make(chan string, 4)
		for g := 0; g < cap(diffs); g++ {
			go func() { diffs <- indexDiff(want, lz, n) }()
		}
		for g := 0; g < cap(diffs); g++ {
			if d := <-diffs; d != "" {
				t.Fatalf("iter %d (k=%d n=%d): lazy index: %s", iter, k, n, d)
			}
		}
		if lz.BuiltLevels() != k {
			t.Fatalf("iter %d: BuiltLevels=%d after a full walk, want %d", iter, lz.BuiltLevels(), k)
		}
	}
}

// TestLazyConcurrentEnsure hammers the level, probe-index, annotation
// and Full materializers from many goroutines to exercise the
// single-flight path under -race.
func TestLazyConcurrentEnsure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randBuildInput(rng, 3, 5000)
	want := refBuild(in)
	lz, err := NewLazy(in)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Trie, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			lz.Card(g%3, 0)
			lz.RankBlock(0, 0, []uint32{1}, make([]int32, 1))
			lz.Ann("f0")
			done <- lz.Full(0)
		}(g)
	}
	for g := 0; g < 8; g++ {
		got := <-done
		requireTrieEqual(t, want, got)
	}
}

// TestFullLazyDropsBuildState: once a non-base Lazy is fully built, its
// MemBytes counts only the levels' values and set bounds, the probe
// index and the annotation buffers — no frontier, row offsets or
// counting scratch — and its query surface, first touched concurrently
// after the drop (run under -race), still answers like the reference.
func TestFullLazyDropsBuildState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 40; iter++ {
		k := 1 + rng.Intn(3)
		n := rng.Intn(3000)
		if iter%10 == 0 {
			n = 0
		}
		in := randBuildInput(rng, k, n)
		want := refBuild(in)
		lz, err := NewLazy(in)
		if err != nil {
			t.Fatal(err)
		}
		requireTrieEqual(t, want, lz.Full(0))
		diffs := make(chan string, 4)
		for g := 0; g < cap(diffs); g++ {
			go func() { diffs <- indexDiff(want, lz, n) }()
		}
		for g := 0; g < cap(diffs); g++ {
			if d := <-diffs; d != "" {
				t.Fatalf("iter %d (k=%d n=%d): index after the drop: %s", iter, k, n, d)
			}
		}
		kept := len(lz.probe0) * 4
		for _, lv := range lz.levels {
			kept += (len(lv.vals) + len(lv.starts)) * 4
		}
		for _, a := range want.Anns {
			kept += len(a.F64)*8 + len(a.Codes)*4
		}
		if got := lz.MemBytes(); got != kept {
			t.Fatalf("iter %d (k=%d n=%d): MemBytes=%d after Full, want %d (levels, probe index and annotations only)", iter, k, n, got, kept)
		}
		if lz.rows != nil || lz.cnt != nil || lz.gvbuf != nil || lz.in.Keys != nil || lz.in.Anns != nil {
			t.Fatalf("iter %d: build state kept after Full", iter)
		}
	}
}
