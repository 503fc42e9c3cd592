package trie

import (
	"testing"
)

// TestParallelBuildMatchesSequential builds the same input with one
// thread and with many (set construction split across parent chunks)
// and requires bit-identical tries, including combined duplicate
// annotations, both equal to the sort-and-scan reference.
func TestParallelBuildMatchesSequential(t *testing.T) {
	const n = 40000 // level 2 gets ≈ 37×101 parents, past buildLevel's 1024
	k0 := make([]uint32, n)
	k1 := make([]uint32, n)
	k2 := make([]uint32, n)
	ann := make([]float64, n)
	x := uint32(12345)
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		k0[i] = x % 37
		k1[i] = (x >> 8) % 101
		k2[i] = (x >> 16) % 53 // collisions → full-duplicate combining
		ann[i] = float64(i%7) + 1
	}
	mkInput := func(threads int) BuildInput {
		return BuildInput{
			Attrs: []string{"a", "b", "c"},
			Keys:  [][]uint32{k0, k1, k2},
			Anns: []AnnSpec{{
				Name: "w", Level: 2, Kind: F64, F64: ann,
			}},
			Threads: threads,
		}
	}
	seq, err := Build(mkInput(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(mkInput(8))
	if err != nil {
		t.Fatal(err)
	}
	requireTrieEqual(t, seq, par)
	requireTrieEqual(t, refBuild(mkInput(1)), par)
}
