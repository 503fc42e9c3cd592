// Package dict implements the order-preserving dictionary encoding that
// LevelHeaded applies to every key attribute before it enters a trie
// (paper §III-B). Codes are dense uint32 ranks, so range predicates on
// encoded values are equivalent to range predicates on the original
// values, and join-compatible columns that share a dictionary join by
// simple code equality.
package dict

import (
	"fmt"
	"math"
	"sort"
)

// Kind is the logical type of the values held by a dictionary.
type Kind uint8

const (
	// Int covers int and long SQL types, plus dates (days since epoch).
	Int Kind = iota
	// Float covers float and double SQL types used as keys.
	Float
	// String covers string keys.
	String
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Dictionary maps values of one Kind to dense, order-preserving uint32
// codes. A Dictionary is immutable after Build; post-freeze values are
// admitted through ExtendInts/ExtendStrings, which return a NEW
// dictionary sharing the ordered prefix and carrying the extra values
// in an append-only, unsorted tail. Tail codes are dense continuations
// of the prefix code space ([base, n)), so code equality still means
// value equality across every extension — but code ORDER is only
// meaningful within the ordered prefix. LowerBound* therefore operate
// on the prefix alone; callers translating range predicates must not
// assume tail codes are ordered.
//
// The identity form (NewIdentity) maps the integers [0, n) to
// themselves with no storage; it is the natural encoding of matrix
// indices and other already-dense keys.
type Dictionary struct {
	kind     Kind
	identity bool
	n        int
	ints     []int64
	floats   []float64
	strs     []string
	// hasNaN marks a float dictionary whose last code is the canonical
	// NaN entry. NaN compares unequal to everything (including itself),
	// so it must be kept out of the binary-searched prefix: exactly one
	// code represents all NaNs and it sorts after every ordered value.
	hasNaN bool

	// base is the size of the ordered prefix (== n until the first
	// extension). Codes >= base live in the unsorted tail.
	base     int
	tailInts []int64
	tailStrs []string
	tailIdxI map[int64]uint32
	tailIdxS map[string]uint32
}

// NewIdentity returns the identity dictionary over [0, n).
func NewIdentity(n int) *Dictionary {
	return &Dictionary{kind: Int, identity: true, n: n, base: n}
}

// Kind reports the logical type of the dictionary's values.
func (d *Dictionary) Kind() Kind { return d.kind }

// Len reports the number of distinct values (the code space size).
func (d *Dictionary) Len() int { return d.n }

// Identity reports whether d is an identity dictionary.
func (d *Dictionary) Identity() bool { return d.identity }

// HasNaN reports whether a float dictionary carries the canonical NaN
// entry (always the last code).
func (d *Dictionary) HasNaN() bool { return d.hasNaN }

// EncodeInt returns the code for v. ok is false if v is not in the
// dictionary (prefix or tail).
func (d *Dictionary) EncodeInt(v int64) (uint32, bool) {
	if d.identity {
		if v >= 0 && v < int64(d.base) {
			return uint32(v), true
		}
		if c, ok := d.tailIdxI[v]; ok {
			return c, true
		}
		return 0, false
	}
	if d.kind != Int {
		return 0, false
	}
	i := sort.Search(len(d.ints), func(i int) bool { return d.ints[i] >= v })
	if i < len(d.ints) && d.ints[i] == v {
		return uint32(i), true
	}
	if c, ok := d.tailIdxI[v]; ok {
		return c, true
	}
	return 0, false
}

// CanonFloat maps f to the representative of its class under the
// engine's one float equivalence: -0.0 is +0.0, and every NaN payload is
// the one quiet NaN that math.NaN returns. Everything that keys on a
// float — dictionary codes, pseudo-vertex codes, group tokens, the
// scan's COUNT(DISTINCT) tokens, sketch hashes — goes through
// it, so "same value" means the same thing at every layer.
func CanonFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return math.NaN()
	}
	return f
}

// CanonFloatBits is the bit pattern of CanonFloat(f): equal exactly for
// values of one class, which makes it the hash token and exact map key.
func CanonFloatBits(f float64) uint64 { return math.Float64bits(CanonFloat(f)) }

// EncodeFloat returns the code for v under CanonFloat: all NaN payloads
// map to the one NaN code (if present); -0.0 encodes as +0.0.
func (d *Dictionary) EncodeFloat(v float64) (uint32, bool) {
	if d.kind != Float {
		return 0, false
	}
	v = CanonFloat(v)
	if v != v {
		if d.hasNaN {
			return uint32(d.n - 1), true
		}
		return 0, false
	}
	ordered := d.orderedFloats()
	i := sort.Search(len(ordered), func(i int) bool { return ordered[i] >= v })
	if i < len(ordered) && ordered[i] == v {
		return uint32(i), true
	}
	return 0, false
}

// orderedFloats returns the totally ordered (NaN-free) prefix that
// binary searches may run over.
func (d *Dictionary) orderedFloats() []float64 {
	if d.hasNaN {
		return d.floats[:len(d.floats)-1]
	}
	return d.floats
}

// EncodeString returns the code for v.
func (d *Dictionary) EncodeString(v string) (uint32, bool) {
	if d.kind != String {
		return 0, false
	}
	i := sort.Search(len(d.strs), func(i int) bool { return d.strs[i] >= v })
	if i < len(d.strs) && d.strs[i] == v {
		return uint32(i), true
	}
	if c, ok := d.tailIdxS[v]; ok {
		return c, true
	}
	return 0, false
}

// LowerBoundInt returns the smallest PREFIX code whose value is >= v.
// If every prefix value is < v, it returns the prefix length. Order
// preservation makes this the translation of a range predicate into
// code space; tail codes (post-freeze extensions) are unsorted and
// deliberately excluded.
func (d *Dictionary) LowerBoundInt(v int64) uint32 {
	if d.identity {
		switch {
		case v < 0:
			return 0
		case v > int64(d.base):
			return uint32(d.base)
		default:
			return uint32(v)
		}
	}
	return uint32(sort.Search(len(d.ints), func(i int) bool { return d.ints[i] >= v }))
}

// LowerBoundFloat is LowerBoundInt for float dictionaries. The NaN
// code (when present) sorts after every real value, so it is never
// covered by a finite lower bound; a NaN argument bounds nothing and
// returns Len().
func (d *Dictionary) LowerBoundFloat(v float64) uint32 {
	if math.IsNaN(v) {
		return uint32(d.n)
	}
	ordered := d.orderedFloats()
	return uint32(sort.Search(len(ordered), func(i int) bool { return ordered[i] >= v }))
}

// LowerBoundString is LowerBoundInt for string dictionaries.
func (d *Dictionary) LowerBoundString(v string) uint32 {
	return uint32(sort.Search(len(d.strs), func(i int) bool { return d.strs[i] >= v }))
}

// DecodeInt returns the integer value for code c.
func (d *Dictionary) DecodeInt(c uint32) int64 {
	if int(c) >= d.base {
		return d.tailInts[int(c)-d.base]
	}
	if d.identity {
		return int64(c)
	}
	return d.ints[c]
}

// DecodeFloat returns the float value for code c.
func (d *Dictionary) DecodeFloat(c uint32) float64 { return d.floats[c] }

// DecodeString returns the string value for code c.
func (d *Dictionary) DecodeString(c uint32) string {
	if int(c) >= d.base {
		return d.tailStrs[int(c)-d.base]
	}
	return d.strs[c]
}

// TailLen reports how many codes live in the unsorted tail (values
// admitted after the dictionary was built).
func (d *Dictionary) TailLen() int { return d.n - d.base }

// extendClone copies the mutable tail state so extensions never alias
// the tail of the dictionary they grew from (older snapshots keep
// reading their own tail unperturbed).
func (d *Dictionary) extendClone() *Dictionary {
	nd := *d
	nd.tailInts = append([]int64(nil), d.tailInts...)
	nd.tailStrs = append([]string(nil), d.tailStrs...)
	if d.tailIdxI != nil {
		nd.tailIdxI = make(map[int64]uint32, len(d.tailIdxI))
		for k, v := range d.tailIdxI {
			nd.tailIdxI[k] = v
		}
	}
	if d.tailIdxS != nil {
		nd.tailIdxS = make(map[string]uint32, len(d.tailIdxS))
		for k, v := range d.tailIdxS {
			nd.tailIdxS[k] = v
		}
	}
	return &nd
}

// ExtendInts returns a dictionary extended with any of vals not already
// present, appended to the unsorted tail in first-seen order. d itself
// is unchanged; prefix storage is shared. Existing codes (prefix and
// tail) are stable across the extension.
func (d *Dictionary) ExtendInts(vals []int64) *Dictionary {
	if d.kind != Int {
		panic(fmt.Sprintf("dict: ExtendInts on %v dictionary", d.kind))
	}
	nd := d.extendClone()
	for _, v := range vals {
		if _, ok := nd.EncodeInt(v); ok {
			continue
		}
		if nd.tailIdxI == nil {
			nd.tailIdxI = make(map[int64]uint32)
		}
		nd.tailIdxI[v] = uint32(nd.n)
		nd.tailInts = append(nd.tailInts, v)
		nd.n++
	}
	return nd
}

// ExtendStrings is ExtendInts for string dictionaries.
func (d *Dictionary) ExtendStrings(vals []string) *Dictionary {
	if d.kind != String {
		panic(fmt.Sprintf("dict: ExtendStrings on %v dictionary", d.kind))
	}
	nd := d.extendClone()
	for _, v := range vals {
		if _, ok := nd.EncodeString(v); ok {
			continue
		}
		if nd.tailIdxS == nil {
			nd.tailIdxS = make(map[string]uint32)
		}
		nd.tailIdxS[v] = uint32(nd.n)
		nd.tailStrs = append(nd.tailStrs, v)
		nd.n++
	}
	return nd
}

// Builder accumulates values across one or more columns that share a
// join domain and produces their common Dictionary.
type Builder struct {
	kind   Kind
	seenI  map[int64]struct{}
	seenF  map[float64]struct{}
	seenS  map[string]struct{}
	hasNaN bool
	sealed bool
}

// NewBuilder returns a Builder for values of the given kind.
func NewBuilder(kind Kind) *Builder {
	b := &Builder{kind: kind}
	switch kind {
	case Int:
		b.seenI = make(map[int64]struct{})
	case Float:
		b.seenF = make(map[float64]struct{})
	case String:
		b.seenS = make(map[string]struct{})
	}
	return b
}

// AddInt records an integer value.
func (b *Builder) AddInt(v int64) { b.seenI[v] = struct{}{} }

// AddFloat records a float value under CanonFloat. NaN becomes a single
// dictionary entry kept out of the map (Go map keys treat each NaN as
// distinct, so storing them would mint one code per insert and break
// lookups); -0.0 and +0.0 encode identically.
func (b *Builder) AddFloat(v float64) {
	v = CanonFloat(v)
	if v != v {
		b.hasNaN = true
		return
	}
	b.seenF[v] = struct{}{}
}

// AddString records a string value.
func (b *Builder) AddString(v string) { b.seenS[v] = struct{}{} }

// Build seals the builder and returns the order-preserving dictionary.
// If every recorded integer lies in [0, 4·count) and forms a dense
// enough prefix, Build still returns an explicit dictionary; callers
// that know their keys are exactly [0, n) should use NewIdentity.
func (b *Builder) Build() *Dictionary {
	if b.sealed {
		panic("dict: Build called twice")
	}
	b.sealed = true
	d := &Dictionary{kind: b.kind}
	switch b.kind {
	case Int:
		d.ints = make([]int64, 0, len(b.seenI))
		for v := range b.seenI {
			d.ints = append(d.ints, v)
		}
		sort.Slice(d.ints, func(i, j int) bool { return d.ints[i] < d.ints[j] })
		d.n = len(d.ints)
	case Float:
		d.floats = make([]float64, 0, len(b.seenF)+1)
		for v := range b.seenF {
			d.floats = append(d.floats, v)
		}
		sort.Float64s(d.floats)
		if b.hasNaN {
			// One canonical NaN code, ordered after every real value so
			// the binary-searched prefix stays totally ordered.
			d.floats = append(d.floats, math.NaN())
			d.hasNaN = true
		}
		d.n = len(d.floats)
	case String:
		d.strs = make([]string, 0, len(b.seenS))
		for v := range b.seenS {
			d.strs = append(d.strs, v)
		}
		sort.Strings(d.strs)
		d.n = len(d.strs)
	}
	d.base = d.n
	return d
}
