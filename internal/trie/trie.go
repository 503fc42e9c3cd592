// Package trie implements LevelHeaded's only physical index: a
// level-per-attribute trie over dictionary-encoded keys, with columnar
// annotation buffers attached to (and reachable from) any level (paper
// §III-B, Fig. 3, Table I).
//
// Each trie level L holds one set per node at level L-1 (level 0 holds a
// single set). Elements of every level carry a dense global rank; the
// child set of element (parent p, index i) at level L is the set under
// parent rank Starts[p]+i at level L+1. Annotation buffers are indexed
// by the global rank of the level they hang off, which is what lets
// attribute elimination load a single annotation column in isolation —
// and lets a fully-dense annotation buffer be handed to a BLAS kernel
// unchanged.
//
// *Lazy is the one query-trie type. It holds every level as a flat
// value run per parent and materializes levels, annotation buffers and
// each level's set-per-node form on first touch; Full builds all of it
// and returns the *Trie view of the set-per-node levels, which Build
// returns too.
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

// Level is one trie level in set-per-node form: the layout the WCOJ
// intersections read.
type Level struct {
	// Sets[p] holds the values under parent node p (level 0 has one set).
	Sets []set.Set
	// Starts[p] is the global rank of the first element of Sets[p];
	// Starts has len(Sets)+1 entries, so Starts[len(Sets)] is the total
	// element count of the level.
	Starts []int32
}

// NumElems reports the total number of elements on the level.
func (l *Level) NumElems() int {
	if len(l.Starts) == 0 {
		return 0
	}
	return int(l.Starts[len(l.Starts)-1])
}

// RankBlock writes to out[i] the global rank of vals[i] in the set
// under parentRank, or -1 when the set lacks it.
func (l *Level) RankBlock(parentRank int32, vals []uint32, out []int32) {
	s, base := &l.Sets[parentRank], l.Starts[parentRank]
	for i, v := range vals {
		out[i] = -1
		if r := s.Rank(v); r >= 0 {
			out[i] = base + int32(r)
		}
	}
}

// Trie is a fully built k-level trie plus its annotation buffers: the
// value Build and (*Lazy).Full return. Queries navigate the *Lazy it
// came from.
type Trie struct {
	// Attrs names the key attribute stored at each level, in order.
	Attrs  []string
	Levels []*Level
	// Anns maps annotation name to its buffer.
	Anns map[string]*Annotation
	// NumTuples is the number of distinct key tuples (last-level elements).
	NumTuples int
}

// NumLevels reports the number of key attributes.
func (t *Trie) NumLevels() int { return len(t.Levels) }

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
		s += fmt.Sprintf(" | L%d sets=%d elems=%d", i, len(l.Sets), l.NumElems())
	}
	return s
}
