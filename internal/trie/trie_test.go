package trie

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/set"
)

// matrixInput builds the paper's Fig. 3 example: a sparse matrix stored
// as a (row, col) trie with a value annotation.
func matrixInput() BuildInput {
	// (0,0)=0.1 (0,2)=0.2 (1,1)=0.3 (2,0)=0.4 (2,2)=0.5
	return BuildInput{
		Attrs: []string{"i", "j"},
		Keys: [][]uint32{
			{0, 0, 1, 2, 2},
			{0, 2, 1, 0, 2},
		},
		Anns: []AnnSpec{{
			Name: "v", Level: 1, Kind: F64,
			F64: []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		}},
	}
}

func TestBuildMatrixTrie(t *testing.T) {
	tr, err := Build(matrixInput())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLevels() != 2 || tr.NumTuples != 5 {
		t.Fatalf("levels=%d tuples=%d", tr.NumLevels(), tr.NumTuples)
	}
	lz, err := NewLazy(matrixInput())
	if err != nil {
		t.Fatal(err)
	}
	l0, base := lz.Run(0, 0)
	if want := []uint32{0, 1, 2}; !reflect.DeepEqual(l0, want) || base != 0 {
		t.Fatalf("level0 = %v@%d, want %v@0", l0, base, want)
	}
	// Children of row 0 are cols {0,2}; row 1 -> {1}; row 2 -> {0,2}.
	wantChildren := [][]uint32{{0, 2}, {1}, {0, 2}}
	for i, v := range l0 {
		if got := lz.Set(1, int32(i)).Values(); !reflect.DeepEqual(got, wantChildren[v]) {
			t.Errorf("children of row %d = %v, want %v", v, got, wantChildren[v])
		}
	}
	// Annotation values follow sorted (i,j) order.
	ann := lz.Ann("v")
	if ann == nil || ann.Level != 1 {
		t.Fatal("missing annotation v at level 1")
	}
	want := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if !reflect.DeepEqual(ann.F64, want) {
		t.Fatalf("annotation = %v, want %v", ann.F64, want)
	}
}

func TestBuildUnsortedInputMatchesSorted(t *testing.T) {
	in := matrixInput()
	// Shuffle rows; trie must come out identical.
	perm := []int{4, 2, 0, 3, 1}
	shuf := BuildInput{Attrs: in.Attrs, Keys: [][]uint32{make([]uint32, 5), make([]uint32, 5)}}
	f := make([]float64, 5)
	for to, from := range perm {
		shuf.Keys[0][to] = in.Keys[0][from]
		shuf.Keys[1][to] = in.Keys[1][from]
		f[to] = in.Anns[0].F64[from]
	}
	shuf.Anns = []AnnSpec{{Name: "v", Level: 1, Kind: F64, F64: f}}
	a, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(shuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Anns["v"].F64, b.Anns["v"].F64) {
		t.Fatalf("annotations differ: %v vs %v", a.Anns["v"].F64, b.Anns["v"].F64)
	}
	if a.NumTuples != b.NumTuples {
		t.Fatalf("tuple counts differ: %d vs %d", a.NumTuples, b.NumTuples)
	}
}

func TestDuplicateKeysCombine(t *testing.T) {
	in := BuildInput{
		Attrs: []string{"k"},
		Keys:  [][]uint32{{7, 7, 7, 3}},
		Anns: []AnnSpec{{
			Name: "v", Level: 0, Kind: F64,
			F64: []float64{1, 2, 4, 10},
		}},
	}
	lz, err := NewLazy(in)
	if err != nil {
		t.Fatal(err)
	}
	tr := lz.Full(0)
	if tr.NumTuples != 2 || !lz.HasDups() {
		t.Fatalf("tuples=%d dups=%v", tr.NumTuples, lz.HasDups())
	}
	// Sorted keys: 3 (10), 7 (1+2+4).
	if got, want := tr.Anns["v"].F64, []float64{10, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("combined annotations = %v, want %v", got, want)
	}
}

func TestDuplicateKeysCustomCombine(t *testing.T) {
	min := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	in := BuildInput{
		Attrs: []string{"k"},
		Keys:  [][]uint32{{5, 5}},
		Anns:  []AnnSpec{{Name: "v", Level: 0, Kind: F64, F64: []float64{9, 2}, Combine: min}},
	}
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Anns["v"].F64[0]; got != 2 {
		t.Fatalf("min combine = %v, want 2", got)
	}
}

func TestIntermediateLevelAnnotation(t *testing.T) {
	// orders-like relation: key (orderkey, custkey), o_date determined by
	// orderkey, attached at level 0.
	in := BuildInput{
		Attrs: []string{"ok", "ck"},
		Keys: [][]uint32{
			{1, 1, 2},
			{10, 11, 10},
		},
		Anns: []AnnSpec{{
			Name: "o_date", Level: 0, Kind: Code,
			Codes: []uint32{100, 100, 200},
		}},
	}
	tr, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	ann := tr.Anns["o_date"]
	if got, want := ann.Codes, []uint32{100, 200}; !reflect.DeepEqual(got, want) {
		t.Fatalf("level-0 annotation = %v, want %v", got, want)
	}
}

// TestRankOf ranks through the flat run (with level 0's probe index)
// and, once the level is in set-per-node form, through its sets.
func TestRankOf(t *testing.T) {
	lz, err := NewLazy(matrixInput())
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range []string{"flat", "set"} {
		if form == "set" {
			lz.Full(0)
		}
		r := make([]int32, 2)
		if lz.RankBlock(0, 0, []uint32{1, 9}, r); r[0] != 1 || r[1] != -1 {
			t.Errorf("%s: level-0 ranks of 1, 9 = %v, want [1 -1]", form, r)
		}
		// Row 2's children set is the third set at level 1: global ranks 3,4.
		if lz.RankBlock(1, 2, []uint32{2, 1}, r); r[0] != 4 || r[1] != -1 {
			t.Errorf("%s: ranks of (2,2), (2,1) = %v, want [4 -1]", form, r)
		}
	}
	if v := lz.Ann("v").F64[4]; v != 0.5 {
		t.Errorf("ann[(2,2)] = %v, want 0.5", v)
	}
}

// TestDenseDetection: a fully dense matrix has only contiguous runs,
// which are always bitsets (the dense kernels' trigger); a sparse one
// has a gap.
func TestDenseDetection(t *testing.T) {
	n := 64
	keys := make([][]uint32, 2)
	keys[0] = make([]uint32, n*n)
	keys[1] = make([]uint32, n*n)
	vals := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			keys[0][i*n+j] = uint32(i)
			keys[1][i*n+j] = uint32(j)
			vals[i*n+j] = float64(i + j)
		}
	}
	lz, err := NewLazy(BuildInput{
		Attrs: []string{"i", "j"},
		Keys:  keys,
		Anns:  []AnnSpec{{Name: "v", Level: 1, Kind: F64, F64: vals}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := lz.Full(0)
	for d, parents := range []int{1, n} {
		for p := 0; p < parents; p++ {
			run, _ := lz.Run(d, int32(p))
			if len(run) != n || run[0] != 0 || run[n-1] != uint32(n-1) || tr.Levels[d].Sets[p].Layout() != set.Bitset {
				t.Fatalf("dense matrix: level %d run %d is not a contiguous bitset", d, p)
			}
		}
	}
	// The dense annotation buffer is exactly the row-major matrix — the
	// BLAS-compatibility property of attribute elimination.
	if lz.Ann("v").F64[5] != 5 || lz.Ann("v").F64[n*n-1] != float64(2*(n-1)) {
		t.Error("dense annotation buffer is not row-major")
	}
	sparse, err := NewLazy(matrixInput())
	if err != nil {
		t.Fatal(err)
	}
	if run, _ := sparse.Run(1, 0); len(run) != 2 || run[1]-run[0] == 1 {
		t.Errorf("sparse matrix row 0 = %v, want a gap", run)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(BuildInput{}); err == nil {
		t.Error("no key columns should error")
	}
	if _, err := Build(BuildInput{Attrs: []string{"a"}, Keys: [][]uint32{{1}, {2}}}); err == nil {
		t.Error("attr/key mismatch should error")
	}
	if _, err := Build(BuildInput{Attrs: []string{"a", "b"}, Keys: [][]uint32{{1, 2}, {3}}}); err == nil {
		t.Error("ragged key columns should error")
	}
	if _, err := Build(BuildInput{
		Attrs: []string{"a"}, Keys: [][]uint32{{1}},
		Anns: []AnnSpec{{Name: "v", Level: 3, Kind: F64, F64: []float64{1}}},
	}); err == nil {
		t.Error("annotation level out of range should error")
	}
	if _, err := Build(BuildInput{
		Attrs: []string{"a"}, Keys: [][]uint32{{1}},
		Anns: []AnnSpec{{Name: "v", Level: 0, Kind: F64, F64: []float64{1, 2}}},
	}); err == nil {
		t.Error("annotation length mismatch should error")
	}
	if _, err := Build(BuildInput{
		Attrs: []string{"a"}, Keys: [][]uint32{{1}},
		Anns: []AnnSpec{
			{Name: "v", Level: 0, Kind: F64, F64: []float64{1}},
			{Name: "v", Level: 0, Kind: F64, F64: []float64{1}},
		},
	}); err == nil {
		t.Error("duplicate annotation name should error")
	}
}

func TestEmptyRelation(t *testing.T) {
	tr, err := Build(BuildInput{Attrs: []string{"a", "b"}, Keys: [][]uint32{{}, {}}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTuples != 0 {
		t.Fatalf("empty relation tuples = %d", tr.NumTuples)
	}
	if !tr.Levels[0].Sets[0].Empty() {
		t.Error("empty relation level-0 set should be empty")
	}
}

// Property: for random 3-column inputs, every input tuple is reachable
// through the trie and the trie contains exactly the distinct tuples.
func TestTrieContainsExactlyInputTuples(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 1
		keys := [][]uint32{make([]uint32, n), make([]uint32, n), make([]uint32, n)}
		vals := make([]float64, n)
		type tup [3]uint32
		sum := map[tup]float64{}
		for i := 0; i < n; i++ {
			tp := tup{uint32(r.Intn(6)), uint32(r.Intn(6)), uint32(r.Intn(6))}
			keys[0][i], keys[1][i], keys[2][i] = tp[0], tp[1], tp[2]
			vals[i] = float64(r.Intn(100))
			sum[tp] += vals[i]
		}
		tr, err := Build(BuildInput{
			Attrs: []string{"a", "b", "c"},
			Keys:  keys,
			Anns:  []AnnSpec{{Name: "v", Level: 2, Kind: F64, F64: vals}},
		})
		if err != nil {
			return false
		}
		if tr.NumTuples != len(sum) {
			return false
		}
		// Walk the full trie; check each tuple and annotation.
		found := 0
		ok := true
		at := func(d int, p int32) (*set.Set, int32) { return &tr.Levels[d].Sets[p], tr.Levels[d].Starts[p] }
		s0, _ := at(0, 0)
		s0.ForEachIndexed(func(i0 int, v0 uint32) {
			s1, b1 := at(1, int32(i0))
			s1.ForEachIndexed(func(i1 int, v1 uint32) {
				s2, b2 := at(2, b1+int32(i1))
				s2.ForEachIndexed(func(i2 int, v2 uint32) {
					want, present := sum[tup{v0, v1, v2}]
					if !present || tr.Anns["v"].F64[b2+int32(i2)] != want {
						ok = false
					}
					found++
				})
			})
		})
		return ok && found == len(sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStringSummary(t *testing.T) {
	tr, err := Build(matrixInput())
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.String(); s == "" {
		t.Error("String() should not be empty")
	}
}
