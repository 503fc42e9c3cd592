package trie

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// requireTrieEqual asserts two tries are bit-identical: shape, sets,
// ranks, density, and annotation buffers (float comparisons by bits).
func requireTrieEqual(t *testing.T, want, got *Trie) {
	t.Helper()
	if got.NumTuples != want.NumTuples || got.SourceRows != want.SourceRows {
		t.Fatalf("tuples/rows: got %d/%d want %d/%d", got.NumTuples, got.SourceRows, want.NumTuples, want.SourceRows)
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("levels: got %d want %d", len(got.Levels), len(want.Levels))
	}
	for d := range want.Levels {
		wl, gl := want.Levels[d], got.Levels[d]
		if len(gl.Sets) != len(wl.Sets) || gl.Dense != wl.Dense {
			t.Fatalf("level %d: sets=%d dense=%v, want sets=%d dense=%v", d, len(gl.Sets), gl.Dense, len(wl.Sets), wl.Dense)
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

// TestLazyEquivalence: Full() on a Lazy must be bit-identical to Build
// on the same input, across shapes, duplicates, and special floats.
func TestLazyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(3)
		n := rng.Intn(200)
		in := randBuildInput(rng, k, n)
		want, err := Build(in)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
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
		}
		lz.ensureAnns()
		got := lz.Full(0)
		requireTrieEqual(t, want, got)
	}
}

// indexDiff walks the whole Index surface of got — every (level,
// parent): cardinality, value run, base rank, set, scalar and batched
// rank lookups incl. absent values — plus every annotation buffer, and
// describes the first disagreement with the eagerly built reference.
func indexDiff(want *Trie, got Index) string {
	if want.HasDups() && !got.HasDups() {
		return "HasDups=false on an input with duplicate tuples"
	}
	var buf []uint32
	for d, lv := range want.Levels {
		// Reachable parents only: an empty input still carries one
		// (unaddressable) empty set per deeper eager level.
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
			vals, base := got.Run(d, int32(p), &buf)
			if !slices.Equal(vals, wvals) || base != lv.Starts[p] {
				return fmt.Sprintf("Run%s=%v@%d want %v@%d", at, vals, base, wvals, lv.Starts[p])
			}
			if sv := got.Set(d, int32(p)).Values(); !slices.Equal(sv, wvals) {
				return fmt.Sprintf("Set%s=%v want %v", at, sv, wvals)
			}
			// Probe block: every present value interleaved with its
			// (mostly absent) successor, plus an out-of-domain code.
			probe := []uint32{1 << 31}
			for _, v := range wvals {
				probe = append(probe, v, v+1)
			}
			ranks := make([]int32, len(probe))
			got.RankBlock(d, int32(p), probe, ranks)
			for i, v := range probe {
				wr := want.RankOf(d, int32(p), v)
				if ranks[i] != wr {
					return fmt.Sprintf("RankBlock%s[%d]=%d want %d", at, v, ranks[i], wr)
				}
				if r := got.RankOf(d, int32(p), v); r != wr {
					return fmt.Sprintf("RankOf%s[%d]=%d want %d", at, v, r, wr)
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
	return ""
}

// TestIndexSurfaceAgrees is the property behind the one-handle seam:
// over random inputs — duplicate-heavy, single-level, and empty — the
// Index surface of NewLazy(in) answers exactly like Build(in)'s, with
// every lazy level, the probe index, the set form and the annotations
// first touched concurrently by several goroutines (run under -race).
func TestIndexSurfaceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 120; iter++ {
		k := 1 + rng.Intn(3)
		n := rng.Intn(300)
		if iter%10 == 0 {
			n = 0
		}
		in := randBuildInput(rng, k, n)
		want, err := Build(in)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if d := indexDiff(want, want); d != "" {
			t.Fatalf("iter %d: eager index disagrees with itself: %s", iter, d)
		}
		lz, err := NewLazy(in)
		if err != nil {
			t.Fatalf("NewLazy: %v", err)
		}
		if lz.Eager() != nil || want.Eager() != want {
			t.Fatal("Eager(): want the trie itself for *Trie, nil for *Lazy")
		}
		diffs := make(chan string, 4)
		for g := 0; g < cap(diffs); g++ {
			go func() { diffs <- indexDiff(want, lz) }()
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
	want, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := NewLazy(in)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Trie, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			lz.Card(g%3, 0)
			lz.RankOf(0, 0, 1)
			lz.Ann("f0")
			done <- lz.Full(0)
		}(g)
	}
	for g := 0; g < 8; g++ {
		got := <-done
		requireTrieEqual(t, want, got)
	}
}
