package trie

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/qerr"
	"repro/internal/set"
)

// CombineFunc merges the annotation values of two rows that share the
// same full key tuple (e.g. + for SUM annotations, min for MIN).
type CombineFunc func(a, b float64) float64

// Sum is the default CombineFunc.
func Sum(a, b float64) float64 { return a + b }

// AnnSpec describes one annotation column to attach during Build.
type AnnSpec struct {
	Name string
	// Level is the trie level the buffer hangs off (usually the last).
	Level int
	Kind  AnnKind
	// F64 / Codes hold one value per input row, matching Kind.
	F64   []float64
	Codes []uint32
	// Combine merges duplicate key tuples; nil means Sum. Only meaningful
	// for F64 annotations on the last level — elsewhere the key prefix is
	// assumed to functionally determine the value and the first is kept.
	Combine CombineFunc
}

// BuildInput is the columnar input to Build. All key columns and
// annotation columns must have the same length.
type BuildInput struct {
	Attrs []string   // key attribute name per level, outermost first
	Keys  [][]uint32 // Keys[level][row]: encoded key values
	Anns  []AnnSpec
	// Threads bounds the parallelism of the set-per-node conversion
	// (Full, Set); 0 means GOMAXPROCS.
	Threads int
}

// Build constructs the trie of in as NewLazy(in).Full: every level
// bucketed by counting, then converted to set-per-node form. Identical
// key tuples are deduplicated by combining their annotations
// (the AJAR pre-aggregation that makes annotations 1-1 with last-level
// trie elements, paper §II-C, §III-B).
func Build(in BuildInput) (*Trie, error) {
	l, err := NewLazy(in)
	if err != nil {
		return nil, err
	}
	return l.Full(in.Threads), nil
}

// checkAnns validates annotation specs against k key levels and n
// input rows: a level in range, one value per row, and a name no other
// annotation (nor reserved, when non-empty) has.
func checkAnns(anns []AnnSpec, k, n int, reserved string) error {
	names := make(map[string]bool, len(anns))
	for _, a := range anns {
		if a.Level < 0 || a.Level >= k {
			return fmt.Errorf("trie: annotation %q at level %d of %d", a.Name, a.Level, k)
		}
		if a.Kind == F64 && len(a.F64) != n {
			return fmt.Errorf("trie: annotation %q has %d values, want %d", a.Name, len(a.F64), n)
		}
		if a.Kind == Code && len(a.Codes) != n {
			return fmt.Errorf("trie: annotation %q has %d codes, want %d", a.Name, len(a.Codes), n)
		}
		if names[a.Name] || (reserved != "" && a.Name == reserved) {
			return fmt.Errorf("trie: duplicate annotation %q", a.Name)
		}
		names[a.Name] = true
	}
	return nil
}

// buildThreads resolves the parallelism bound for Derive's pass.
func buildThreads(threads int) int {
	if threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return threads
}

// buildLevel splits the flattened values at the set bounds starts
// (len(starts) = sets+1, held as the level's Starts) into per-parent
// sets and builds their rank indexes.
func buildLevel(vals []uint32, starts []int32, threads int) *Level {
	n := len(starts) - 1
	l := &Level{Sets: make([]set.Set, n), Starts: starts}
	// Set construction (layout choice, bitset fill, rank indexes) is
	// independent per parent and parallelizes cleanly.
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if n < 1024 || threads <= 1 {
		threads = 1
	}
	chunk := (n + threads - 1) / threads
	var wg sync.WaitGroup
	var pc qerr.PanicCell
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer pc.Recover()
			for i := lo; i < hi; i++ {
				s := set.FromSorted(vals[starts[i]:starts[i+1]])
				s.BuildRankIndex()
				l.Sets[i] = s
			}
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
	pc.Repanic()
	return l
}
