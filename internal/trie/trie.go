// Package trie implements LevelHeaded's only physical index: a
// level-per-attribute trie over dictionary-encoded keys, with columnar
// annotation buffers attached to (and reachable from) any level (paper
// §III-B, Fig. 3, Table I).
//
// Each trie level L holds one set per node at level L-1 (level 0 holds a
// single set). Elements of every level carry a dense global rank; the
// child set of element (parent p, index i) at level L is
// Levels[L+1].Sets[Starts[p]+i]. Annotation buffers are indexed by the
// global rank of the level they hang off, which is what lets attribute
// elimination load a single annotation column in isolation — and lets a
// fully-dense annotation buffer be handed to a BLAS kernel unchanged.
package trie

import (
	"fmt"

	"repro/internal/set"
)

// AnnKind is the physical type of an annotation buffer.
type AnnKind uint8

const (
	// F64 annotations hold numeric values aggregated through semirings.
	F64 AnnKind = iota
	// Code annotations hold dictionary codes (strings, dates) used by
	// GROUP BY and metadata lookups.
	Code
)

// Annotation is one columnar annotation buffer hanging off trie level
// Level. Exactly one of F64 / Codes is populated, per Kind.
type Annotation struct {
	Name  string
	Level int
	Kind  AnnKind
	F64   []float64
	Codes []uint32
}

// Level is one trie level: a set of children per parent node.
type Level struct {
	// Sets[p] holds the values under parent node p (level 0 has one set).
	Sets []set.Set
	// Starts[p] is the global rank of the first element of Sets[p];
	// Starts has len(Sets)+1 entries, so Starts[len(Sets)] is the total
	// element count of the level.
	Starts []int32
	// Dense reports that every set on this level is a contiguous range —
	// the icost-0 case of the cost model and the BLAS-dispatch trigger.
	Dense bool
}

// NumElems reports the total number of elements on the level.
func (l *Level) NumElems() int {
	if len(l.Starts) == 0 {
		return 0
	}
	return int(l.Starts[len(l.Starts)-1])
}

// Trie is an immutable k-level trie plus its annotation buffers.
type Trie struct {
	// Attrs names the key attribute stored at each level, in order.
	Attrs  []string
	Levels []*Level
	// Anns maps annotation name to its buffer.
	Anns map[string]*Annotation
	// NumTuples is the number of distinct key tuples (last-level elements).
	NumTuples int
	// SourceRows is the number of input rows before key deduplication.
	SourceRows int
}

// Index is the read-side navigation surface of a query trie: everything
// the join recursion, the cost audit and the dense kernels ask of one.
// Both physical representations satisfy it — the eager set-per-node
// *Trie and the lazily bucketed flat-run *Lazy — so which one backs a
// relation is decided where the trie is built and nowhere else. Sets
// are addressed by (level, parentRank): the global rank of the parent
// element one level up, 0 at level 0. A *Lazy materializes the levels,
// annotation buffers and probe index a call needs on first touch,
// single-flight; a level nobody navigates is never built.
type Index interface {
	// BuiltLevels reports how many levels are materialized right now
	// (always all of them for a *Trie).
	BuiltLevels() int
	// HasDups reports whether duplicate key tuples may have been folded
	// into the annotations. A *Lazy cannot know before its leaf level
	// exists and always answers true.
	HasDups() bool
	// Card is the cardinality of the set under parent.
	Card(level int, parent int32) int
	// Run returns that set as one ascending value run plus the global
	// rank of its first element. The run aliases the index or *buf (see
	// set.Set.Run); callers only read it.
	Run(level int, parent int32, buf *[]uint32) (vals []uint32, base int32)
	// RankOf returns the global rank of v in that set, or -1.
	RankOf(level int, parent int32, v uint32) int32
	// RankBlock is RankOf for a block of probe values: out[i] receives
	// the rank of vals[i]. One call per block keeps the probe loop tight
	// and the representation dispatch out of it.
	RankBlock(level int, parent int32, vals []uint32, out []int32)
	// Set returns that set in intersectable form.
	Set(level int, parent int32) *set.Set
	// Ann returns the named annotation buffer (indexed by the global rank
	// of the level it hangs off) or nil.
	Ann(name string) *Annotation
	// Eager returns the fully built trie when the index is one, else nil:
	// the dense and SpMV kernels read Levels directly and decline others.
	Eager() *Trie
}

// NumLevels reports the number of key attributes.
func (t *Trie) NumLevels() int { return len(t.Levels) }

// BuiltLevels implements Index.
func (t *Trie) BuiltLevels() int { return len(t.Levels) }

// HasDups implements Index.
func (t *Trie) HasDups() bool { return t.SourceRows != t.NumTuples }

// Eager implements Index.
func (t *Trie) Eager() *Trie { return t }

// Card implements Index.
func (t *Trie) Card(level int, parentRank int32) int {
	return t.Levels[level].Sets[parentRank].Card()
}

// Run implements Index.
func (t *Trie) Run(level int, parentRank int32, buf *[]uint32) ([]uint32, int32) {
	l := t.Levels[level]
	return l.Sets[parentRank].Run(buf), l.Starts[parentRank]
}

// RankBlock implements Index.
func (t *Trie) RankBlock(level int, parentRank int32, vals []uint32, out []int32) {
	l := t.Levels[level]
	s, base := &l.Sets[parentRank], l.Starts[parentRank]
	for i, v := range vals {
		out[i] = -1
		if r := s.Rank(v); r >= 0 {
			out[i] = base + int32(r)
		}
	}
}

// LevelOf returns the level index of the named key attribute, or -1.
func (t *Trie) LevelOf(attr string) int {
	for i, a := range t.Attrs {
		if a == attr {
			return i
		}
	}
	return -1
}

// Set returns the child set at the given level under the parent with the
// given global rank at the previous level. For level 0, parentRank must
// be 0.
func (t *Trie) Set(level int, parentRank int32) *set.Set {
	return &t.Levels[level].Sets[parentRank]
}

// GlobalRank returns the global rank of the element at position idx of
// the set under parentRank at the given level.
func (t *Trie) GlobalRank(level int, parentRank int32, idx int) int32 {
	return t.Levels[level].Starts[parentRank] + int32(idx)
}

// RankOf locates value v within the set under parentRank at the given
// level and returns its global rank, or -1 if absent.
func (t *Trie) RankOf(level int, parentRank int32, v uint32) int32 {
	s := &t.Levels[level].Sets[parentRank]
	i := s.Rank(v)
	if i < 0 {
		return -1
	}
	return t.Levels[level].Starts[parentRank] + int32(i)
}

// Ann returns the named annotation buffer or nil.
func (t *Trie) Ann(name string) *Annotation { return t.Anns[name] }

// MemBytes estimates the heap footprint of the trie payload.
func (t *Trie) MemBytes() int {
	n := 0
	for _, l := range t.Levels {
		for i := range l.Sets {
			n += l.Sets[i].MemBytes()
		}
		n += len(l.Starts) * 4
	}
	for _, a := range t.Anns {
		n += len(a.F64)*8 + len(a.Codes)*4
	}
	return n
}

// String summarizes the trie shape for EXPLAIN output.
func (t *Trie) String() string {
	s := fmt.Sprintf("trie(%v) tuples=%d", t.Attrs, t.NumTuples)
	for i, l := range t.Levels {
		s += fmt.Sprintf(" | L%d sets=%d elems=%d dense=%v", i, len(l.Sets), l.NumElems(), l.Dense)
	}
	return s
}
