// Package set implements the two trie-set layouts at the core of the
// LevelHeaded storage engine: a sorted unsigned-integer layout ("uint")
// for sparse sets and a bitset layout ("bs") for dense sets, together
// with the intersection kernels that form the bottleneck operation of
// the generic worst-case optimal join algorithm (paper §III-B, §V-A).
package set

import (
	"fmt"
	"math/bits"
	"sort"
)

// Layout identifies the physical representation of a Set.
type Layout uint8

const (
	// Uint is the sparse layout: sorted distinct uint32 values.
	Uint Layout = iota
	// Bitset is the dense layout: a 64-bit word bitmap with a base offset.
	Bitset
)

// String returns the layout name used in the paper ("uint" / "bs").
func (l Layout) String() string {
	switch l {
	case Uint:
		return "uint"
	case Bitset:
		return "bs"
	default:
		return fmt.Sprintf("Layout(%d)", uint8(l))
	}
}

// DensityThreshold is the minimum fraction card/range at which a set is
// stored as a bitset. EmptyHeaded/LevelHeaded switch to bitsets once a
// set is dense enough that word-parallel AND beats value merging; 1/16
// reproduces the published crossover shape on scalar (non-SIMD) code.
const DensityThreshold = 1.0 / 16.0

// Set is an immutable sorted set of uint32 values in one of two layouts.
//
// The zero value is the empty set (Uint layout, no values).
type Set struct {
	layout Layout
	vals   []uint32 // Uint layout: sorted distinct values
	words  []uint64 // Bitset layout: bitmap words
	base   uint32   // Bitset layout: value of bit 0 of words[0]; multiple of 64
	card   int
	ranks  []int32 // Bitset layout, optional: cumulative popcount before each word
}

// Layout reports the physical layout of s.
func (s *Set) Layout() Layout { return s.layout }

// Card reports the number of elements in s.
func (s *Set) Card() int { return s.card }

// Empty reports whether s has no elements.
func (s *Set) Empty() bool { return s.card == 0 }

// FromSorted builds a set from sorted distinct values. The slice is
// retained; callers must not mutate it afterwards. The layout is chosen
// by density.
func FromSorted(vals []uint32) Set {
	if len(vals) == 0 {
		return Set{}
	}
	span := uint64(vals[len(vals)-1]) - uint64(vals[0]) + 1
	if float64(len(vals)) >= DensityThreshold*float64(span) {
		return bitsetFromSorted(vals)
	}
	return Set{layout: Uint, vals: vals, card: len(vals)}
}

// FromSortedSparse builds a uint-layout set from sorted distinct values
// regardless of density. Used for forcing layouts in microbenchmarks.
func FromSortedSparse(vals []uint32) Set {
	return Set{layout: Uint, vals: vals, card: len(vals)}
}

// FromUnsorted sorts and deduplicates vals (in place) and builds a set.
func FromUnsorted(vals []uint32) Set {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	vals = dedupSorted(vals)
	return FromSorted(vals)
}

func dedupSorted(vals []uint32) []uint32 {
	if len(vals) < 2 {
		return vals
	}
	w := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[w-1] {
			vals[w] = vals[i]
			w++
		}
	}
	return vals[:w]
}

// bitsetFromSorted builds a Bitset-layout set from sorted distinct values.
func bitsetFromSorted(vals []uint32) Set {
	base := vals[0] &^ 63
	span := vals[len(vals)-1] - base + 1
	nw := int((span + 63) / 64)
	words := make([]uint64, nw)
	for _, v := range vals {
		off := v - base
		words[off>>6] |= 1 << (off & 63)
	}
	return Set{layout: Bitset, words: words, base: base, card: len(vals)}
}

// BitsetFromSorted exposes forced bitset construction for benchmarks and
// the trie builder's dense levels.
func BitsetFromSorted(vals []uint32) Set {
	if len(vals) == 0 {
		return Set{layout: Bitset}
	}
	return bitsetFromSorted(vals)
}

// DenseRange builds the bitset {lo, lo+1, ..., hi-1}. It is the layout
// of a completely dense trie level (e.g. dense matrix row indices), for
// which the optimizer assigns an icost of 0 (paper §V-A1).
func DenseRange(lo, hi uint32) Set {
	if hi <= lo {
		return Set{layout: Bitset}
	}
	base := lo &^ 63
	span := hi - base
	nw := int((span + 63) / 64)
	words := make([]uint64, nw)
	for v := lo; v < hi; v++ {
		off := v - base
		words[off>>6] |= 1 << (off & 63)
	}
	return Set{layout: Bitset, words: words, base: base, card: int(hi - lo)}
}

// Values materializes the elements of s in ascending order.
func (s *Set) Values() []uint32 {
	out := make([]uint32, 0, s.card)
	s.ForEach(func(v uint32) {
		out = append(out, v)
	})
	return out
}

// Run returns the elements of s as one ascending run for read-only
// iteration: the uint layout's own value slice, or the bitset layout
// expanded into *buf (grown to fit and kept by the caller for reuse).
func (s *Set) Run(buf *[]uint32) []uint32 {
	if s.layout == Uint {
		return s.vals
	}
	out := (*buf)[:0]
	if cap(out) < s.card {
		out = make([]uint32, 0, s.card)
	}
	for i, w := range s.words {
		hi := s.base + uint32(i<<6)
		for w != 0 {
			out = append(out, hi+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	*buf = out
	return out
}

// Contains reports whether v is an element of s.
func (s *Set) Contains(v uint32) bool {
	switch s.layout {
	case Uint:
		i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
		return i < len(s.vals) && s.vals[i] == v
	case Bitset:
		if v < s.base {
			return false
		}
		off := v - s.base
		w := int(off >> 6)
		if w >= len(s.words) {
			return false
		}
		return s.words[w]&(1<<(off&63)) != 0
	}
	return false
}

// Min returns the smallest element. It panics on the empty set.
func (s *Set) Min() uint32 {
	if s.card == 0 {
		panic("set: Min of empty set")
	}
	if s.layout == Uint {
		return s.vals[0]
	}
	for i, w := range s.words {
		if w != 0 {
			return s.base + uint32(i<<6) + uint32(bits.TrailingZeros64(w))
		}
	}
	panic("set: corrupt bitset")
}

// Max returns the largest element. It panics on the empty set.
func (s *Set) Max() uint32 {
	if s.card == 0 {
		panic("set: Max of empty set")
	}
	if s.layout == Uint {
		return s.vals[len(s.vals)-1]
	}
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return s.base + uint32(i<<6) + uint32(63-bits.LeadingZeros64(w))
		}
	}
	panic("set: corrupt bitset")
}

// ForEach calls f for every element in ascending order.
func (s *Set) ForEach(f func(v uint32)) {
	switch s.layout {
	case Uint:
		for _, v := range s.vals {
			f(v)
		}
	case Bitset:
		for i, w := range s.words {
			hi := s.base + uint32(i<<6)
			for w != 0 {
				f(hi + uint32(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
}

// ForEachIndexed calls f(rank, value) for every element in ascending
// order, where rank is the element's 0-based position. Trie traversal
// uses the rank to locate child sets at the next level.
func (s *Set) ForEachIndexed(f func(i int, v uint32)) {
	switch s.layout {
	case Uint:
		for i, v := range s.vals {
			f(i, v)
		}
	case Bitset:
		n := 0
		for i, w := range s.words {
			hi := s.base + uint32(i<<6)
			for w != 0 {
				f(n, hi+uint32(bits.TrailingZeros64(w)))
				n++
				w &= w - 1
			}
		}
	}
}

// ForEachUntil calls f for every element in ascending order until f
// returns false. It reports whether iteration ran to completion.
func (s *Set) ForEachUntil(f func(v uint32) bool) bool {
	switch s.layout {
	case Uint:
		for _, v := range s.vals {
			if !f(v) {
				return false
			}
		}
	case Bitset:
		for i, w := range s.words {
			hi := s.base + uint32(i<<6)
			for w != 0 {
				if !f(hi + uint32(bits.TrailingZeros64(w))) {
					return false
				}
				w &= w - 1
			}
		}
	}
	return true
}

// BuildRankIndex precomputes per-word cumulative popcounts so Rank runs
// in O(1) on bitsets. It is a no-op for uint sets.
func (s *Set) BuildRankIndex() {
	if s.layout != Bitset || s.ranks != nil {
		return
	}
	ranks := make([]int32, len(s.words))
	var run int32
	for i, w := range s.words {
		ranks[i] = run
		run += int32(bits.OnesCount64(w))
	}
	s.ranks = ranks
}

// Rank returns the 0-based position of v in s, or -1 if v is not an
// element. For bitsets without a rank index it is O(words).
func (s *Set) Rank(v uint32) int {
	switch s.layout {
	case Uint:
		i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
		if i < len(s.vals) && s.vals[i] == v {
			return i
		}
		return -1
	case Bitset:
		if v < s.base {
			return -1
		}
		off := v - s.base
		wi := int(off >> 6)
		if wi >= len(s.words) {
			return -1
		}
		bit := uint64(1) << (off & 63)
		if s.words[wi]&bit == 0 {
			return -1
		}
		below := bits.OnesCount64(s.words[wi] & (bit - 1))
		if s.ranks != nil {
			return int(s.ranks[wi]) + below
		}
		r := 0
		for i := 0; i < wi; i++ {
			r += bits.OnesCount64(s.words[i])
		}
		return r + below
	}
	return -1
}

// Select returns the element at 0-based rank i. It panics if i is out of
// range.
func (s *Set) Select(i int) uint32 {
	if i < 0 || i >= s.card {
		panic(fmt.Sprintf("set: Select(%d) out of range [0,%d)", i, s.card))
	}
	if s.layout == Uint {
		return s.vals[i]
	}
	if s.ranks != nil {
		// Binary search the word whose cumulative rank covers i.
		lo, hi := 0, len(s.ranks)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if int(s.ranks[mid]) <= i {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		w := s.words[lo]
		rem := i - int(s.ranks[lo])
		for ; rem > 0; rem-- {
			w &= w - 1
		}
		return s.base + uint32(lo<<6) + uint32(bits.TrailingZeros64(w))
	}
	n := 0
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if n+c > i {
			rem := i - n
			for ; rem > 0; rem-- {
				w &= w - 1
			}
			return s.base + uint32(wi<<6) + uint32(bits.TrailingZeros64(w))
		}
		n += c
	}
	panic("set: corrupt set in Select")
}

// MemBytes estimates the heap bytes held by the set's payload.
func (s *Set) MemBytes() int {
	return len(s.vals)*4 + len(s.words)*8 + len(s.ranks)*4
}

// Uints exposes the sorted value slice of a uint-layout set, letting
// hot loops iterate without per-element closure calls. ok is false for
// bitsets (use ForEach / ForEachIndexed there).
func (s *Set) Uints() ([]uint32, bool) {
	if s.layout != Uint {
		return nil, false
	}
	return s.vals, true
}
