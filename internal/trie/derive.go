package trie

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/qerr"
)

// NewBase builds the filter-free sort order that Derive selects from: a
// Lazy over in's key columns (annotations are ignored) bucketed through
// its leaf level, plus the inverse of its frontier permutation. The
// counting scratch and the key columns are dropped once the levels
// exist; what stays is the frontier, its inverse and each level's
// vals/starts/rowOff, which is all Derive reads. The result is
// immutable, so any number of goroutines may derive from it.
func NewBase(in BuildInput) (*Lazy, error) {
	in.Anns = nil
	l, err := NewLazy(in)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ensureLevelsLocked(l.k - 1)
	l.cnt, l.gvbuf, l.in.Keys = nil, nil, nil
	l.pos = make([]int32, l.n)
	for p, r := range l.rows {
		l.pos[r] = int32(p)
	}
	return l, nil
}

// BaseBytes bounds what NewBase holds at its peak over n rows and k key
// columns: the frontier, its inverse and one bucketing pass's scratch,
// and per level at most one value, set bound and row offset per row.
// The counting scratch, sized by the largest code, is left out.
func BaseBytes(n, k int) int64 { return 4 * int64(n) * int64(3+3*k) }

// DeriveInput selects the rows of a base and supplies their annotations.
type DeriveInput struct {
	// Sel lists the surviving source rows, strictly ascending.
	Sel []int32
	// Anns are indexed by position in Sel, exactly as a BuildInput over
	// the gathered survivors would hold them.
	Anns []AnnSpec
	// Count, when non-empty, names a leaf annotation holding each key
	// tuple's survivor count: the Sum fold of one 1.0 per row.
	Count string
	// Threads bounds the parallelism of the pass and of later Set/Full
	// conversions; 0 means GOMAXPROCS.
	Threads int
}

// Derive builds the trie of the selected rows of base l (a NewBase
// result) with no sort, bucketing or per-row gather. The survivors are
// marked at their frontier positions, and one pass over those marks
// walks them in frontier order, grouped by leaf element. The frontier
// lists every source row in key order, stable in row id, so that is
// exactly the order a stable sort of the gathered survivors gives: the
// same elements, the same grouping and the same duplicate-fold order.
// The result is therefore bit-identical to NewLazy (and its Full to
// Build) over the gathered survivors. It comes back fully materialized,
// annotations included, and keeps no frontier. Like Build, the pass
// splits across Threads at level-0 element boundaries.
func (l *Lazy) Derive(in DeriveInput) (*Lazy, error) {
	faultinject.Fire(faultinject.PointTrieBuild)
	if l.pos == nil {
		return nil, fmt.Errorf("trie: Derive needs a base built by NewBase")
	}
	k, m := l.k, len(in.Sel)
	if err := checkAnns(in.Anns, k, m, in.Count); err != nil {
		return nil, err
	}
	words, front, prefix, err := l.selBitsets(in.Sel)
	if err != nil {
		return nil, err
	}

	regions := [][2]int32{{0, int32(l.n)}}
	if m >= deriveSplitMin {
		regions = splitFrontier(l.levels[0].rowOff, buildThreads(in.Threads))
	}
	out := newDeriveOutput(l, in, front, regions)
	if len(regions) == 1 {
		out.parts[0].walk(front, words, prefix, regions[0][0], regions[0][1])
	} else {
		var wg sync.WaitGroup
		var pc qerr.PanicCell
		for i, reg := range regions {
			wg.Add(1)
			go func(i int, lo, hi int32) {
				defer wg.Done()
				defer pc.Recover()
				dv := out.parts[i].fork()
				dv.walk(front, words, prefix, lo, hi)
				out.parts[i] = dv
			}(i, reg[0], reg[1])
		}
		wg.Wait()
		pc.Repanic()
	}

	d := &Lazy{
		Attrs:  append([]string(nil), l.Attrs...),
		in:     BuildInput{Attrs: l.Attrs, Threads: in.Threads},
		k:      k,
		n:      m,
		levels: make([]*lazyLevel, k),
		eager:  make([]atomic.Pointer[Level], k),
		anns:   make(map[string]*Annotation, len(in.Anns)+1),
	}
	// Pack the regions' windows to the front of each buffer, shifting
	// each set boundary by the preceding regions' element counts, then
	// close the level-0 set and every deeper level's last parent set.
	for e := 0; e < k; e++ {
		lv := &lazyLevel{vals: pack(out.vals[e], out.parts, func(dv *derivation) []uint32 { return dv.vals[e] })}
		if e == 0 {
			lv.starts = []int32{0, int32(len(lv.vals))}
		} else {
			n, shift := 0, int32(0)
			for _, dv := range out.parts {
				for _, st := range dv.starts[e] {
					out.starts[e][n] = st + shift
					n++
				}
				shift += int32(len(dv.vals[e]))
			}
			lv.starts = append(out.starts[e][:n], shift)
		}
		d.levels[e] = lv
	}
	for i, a := range in.Anns {
		ann := &Annotation{Name: a.Name, Level: a.Level, Kind: a.Kind}
		if a.Kind == F64 {
			ann.F64 = pack(out.annF[i], out.parts, func(dv *derivation) []float64 { return dv.annF[i] })
		} else {
			ann.Codes = pack(out.annC[i], out.parts, func(dv *derivation) []uint32 { return dv.annC[i] })
		}
		d.anns[a.Name] = ann
	}
	if in.Count != "" {
		d.anns[in.Count] = &Annotation{Name: in.Count, Level: k - 1, Kind: F64,
			F64: pack(out.count, out.parts, func(dv *derivation) []float64 { return dv.count })}
	}
	d.built.Store(int32(k))
	d.annsDone.Store(true)
	return d, nil
}

// deriveSplitMin is the smallest selection Derive splits across threads.
const deriveSplitMin = 1 << 14

// splitFrontier cuts the frontier into up to threads position ranges
// that start at level-0 element boundaries (off is level 0's rowOff), so
// no element of any level straddles two ranges.
func splitFrontier(off []int32, threads int) [][2]int32 {
	n := off[len(off)-1]
	regions := make([][2]int32, 0, threads)
	lo := int32(0)
	for t := 1; t <= threads && lo < n; t++ {
		target := int32(int64(n) * int64(t) / int64(threads))
		hi := off[sort.Search(len(off), func(i int) bool { return off[i] >= target })]
		if hi > lo {
			regions = append(regions, [2]int32{lo, hi})
			lo = hi
		}
	}
	if len(regions) == 0 {
		regions = append(regions, [2]int32{0, n})
	}
	return regions
}

// deriveOutput is every output buffer of one Derive, and each region's
// pass, which appends into its own window of those buffers. A window
// holds the region's bound, at most one element per survivor and per
// base element in the region, so no append outgrows it.
type deriveOutput struct {
	vals, annC [][]uint32
	starts     [][]int32
	annF       [][]float64
	count      []float64
	parts      []*derivation
}

func newDeriveOutput(l *Lazy, in DeriveInput, front []uint64, regions [][2]int32) *deriveOutput {
	k := l.k
	// bound[e][r]: the most level-e elements region r can emit.
	bound := make([][]int, k)
	for e := range bound {
		off := l.levels[e].rowOff
		first := func(x int32) int { return sort.Search(len(off), func(i int) bool { return off[i] >= x }) }
		bound[e] = make([]int, len(regions))
		for r, reg := range regions {
			bound[e][r] = min(popcountRange(front, reg[0], reg[1]), first(reg[1])-first(reg[0]))
		}
	}
	o := &deriveOutput{
		vals: make([][]uint32, k), starts: make([][]int32, k),
		annF: make([][]float64, len(in.Anns)), annC: make([][]uint32, len(in.Anns)),
		parts: make([]*derivation, len(regions)),
	}
	for r := range o.parts {
		dv := &derivation{
			base: l, anns: in.Anns, counts: in.Count != "",
			vals: make([][]uint32, k), starts: make([][]int32, k),
			annF: make([][]float64, len(in.Anns)), annC: make([][]uint32, len(in.Anns)),
			anc: make([]int32, k), emitted: make([]int32, k),
		}
		for e := range dv.emitted {
			dv.emitted[e] = -1
		}
		o.parts[r] = dv
	}
	for e := 0; e < k; e++ {
		o.vals[e] = windows(bound[e], 0, o.parts, func(dv *derivation) *[]uint32 { return &dv.vals[e] })
		if e > 0 {
			// One spare slot for the closing boundary.
			o.starts[e] = windows(bound[e-1], 1, o.parts, func(dv *derivation) *[]int32 { return &dv.starts[e] })
		}
	}
	for i, a := range in.Anns {
		if a.Kind == F64 {
			o.annF[i] = windows(bound[a.Level], 0, o.parts, func(dv *derivation) *[]float64 { return &dv.annF[i] })
		} else {
			o.annC[i] = windows(bound[a.Level], 0, o.parts, func(dv *derivation) *[]uint32 { return &dv.annC[i] })
		}
	}
	if in.Count != "" {
		o.count = windows(bound[k-1], 0, o.parts, func(dv *derivation) *[]float64 { return &dv.count })
	}
	return o
}

// windows allocates one buffer for the regions' bounds plus spare
// trailing slots and points each region's output slice at its empty,
// capacity-bounded window.
func windows[T any](bounds []int, spare int, parts []*derivation, f func(*derivation) *[]T) []T {
	total := spare
	for _, b := range bounds {
		total += b
	}
	buf := make([]T, total)
	off := 0
	for r, b := range bounds {
		*f(parts[r]) = buf[off : off : off+b]
		off += b
	}
	return buf
}

// pack moves the regions' outputs to the front of buf, in region order.
// A window starts at or after its packed position, so no copy clobbers
// a region not yet moved.
func pack[T any](buf []T, parts []*derivation, f func(*derivation) []T) []T {
	n := 0
	for _, dv := range parts {
		n += copy(buf[n:], f(dv))
	}
	return buf[:n]
}

// popcountRange counts the bits of front at positions [lo, hi).
func popcountRange(front []uint64, lo, hi int32) int {
	c := 0
	for wi := lo >> 6; lo < hi && wi <= (hi-1)>>6; wi++ {
		c += bits.OnesCount64(front[wi] & rangeMask(wi, lo, hi))
	}
	return c
}

// rangeMask keeps the bits of word wi at positions [lo, hi).
func rangeMask(wi, lo, hi int32) uint64 {
	m := ^uint64(0)
	if wi == lo>>6 {
		m &= ^uint64(0) << (uint(lo) & 63)
	}
	if wi == (hi-1)>>6 {
		m &= ^uint64(0) >> (63 - uint(hi-1)&63)
	}
	return m
}

// derivation is the state and output of one Derive pass over one
// frontier region.
type derivation struct {
	base *Lazy
	anns []AnnSpec
	// vals/starts per level, annF/annC per annotation (by kind), count:
	// the region's output. starts holds only each new parent's opening
	// offset, relative to the region.
	vals   [][]uint32
	starts [][]int32
	annF   [][]float64
	annC   [][]uint32
	count  []float64
	counts bool
	// anc[e] is the base element at level e above the current leaf;
	// emitted[e] the last base element emitted at level e.
	anc, emitted []int32
}

// fork copies a region's pass state into memory its own goroutine
// allocates: every append rewrites a slice header, and the regions'
// small header arrays would otherwise share cache lines.
func (dv *derivation) fork() *derivation {
	c := *dv
	c.vals, c.starts = slices.Clone(dv.vals), slices.Clone(dv.starts)
	c.annF, c.annC = slices.Clone(dv.annF), slices.Clone(dv.annC)
	c.anc, c.emitted = slices.Clone(dv.anc), slices.Clone(dv.emitted)
	return &c
}

// walk visits the survivors at frontier positions [lo, hi) in order,
// collecting their positions in Sel per leaf element and emitting each
// element when the next one starts.
func (dv *derivation) walk(front, words []uint64, prefix []int32, lo, hi int32) {
	l := dv.base
	leafOff := l.levels[l.k-1].rowOff
	// The leaf element holding lo, and its ancestors, to advance from.
	el := int32(sort.Search(len(leafOff)-1, func(i int) bool { return leafOff[i+1] > lo }))
	dv.anc[l.k-1] = el
	for e := l.k - 2; e >= 0; e-- {
		starts, c := l.levels[e+1].starts, dv.anc[e+1]
		dv.anc[e] = int32(sort.Search(len(starts)-1, func(p int) bool { return starts[p+1] > c }))
	}
	var ranks []int32
	for wi := lo >> 6; lo < hi && wi <= (hi-1)>>6; wi++ {
		fw := front[wi] & rangeMask(wi, lo, hi)
		for fw != 0 {
			p := wi<<6 + int32(bits.TrailingZeros64(fw))
			fw &= fw - 1
			if p >= leafOff[el+1] {
				dv.emit(el, ranks)
				ranks = ranks[:0]
				for leafOff[el+1] <= p {
					el++
				}
			}
			r := l.rows[p]
			ranks = append(ranks, prefix[r>>6]+int32(bits.OnesCount64(words[r>>6]&(1<<(uint(r)&63)-1))))
		}
	}
	dv.emit(el, ranks)
}

// emit appends base leaf element el, whose survivors sit at positions
// ranks of Sel (in frontier order), together with every ancestor that
// changed since the last emitted leaf; no-op when ranks is empty.
func (dv *derivation) emit(el int32, ranks []int32) {
	if len(ranks) == 0 {
		return
	}
	l, k := dv.base, dv.base.k
	anc, emitted := dv.anc, dv.emitted
	// Walk the ancestors up from the leaf; the shallowest level whose
	// element changed opens new sets on every level below it.
	top := k - 1
	anc[k-1] = el
	for e := k - 2; e >= 0; e-- {
		starts, p := l.levels[e+1].starts, anc[e]
		for starts[p+1] <= anc[e+1] {
			p++
		}
		anc[e] = p
		if p != emitted[e] {
			top = e
		}
	}
	for e := top; e < k; e++ {
		if e > top {
			dv.starts[e] = append(dv.starts[e], int32(len(dv.vals[e])))
		}
		dv.vals[e] = append(dv.vals[e], l.levels[e].vals[anc[e]])
		emitted[e] = anc[e]
	}
	// The first survivor in frontier order stands for every element it
	// opened; leaf values fold over all of them, in row order — the left
	// fold of the stable sorted scan.
	first := ranks[0]
	for i := range dv.anns {
		a := &dv.anns[i]
		if a.Level < top {
			continue
		}
		switch {
		case a.Kind == Code:
			dv.annC[i] = append(dv.annC[i], a.Codes[first])
		case a.Level < k-1:
			dv.annF[i] = append(dv.annF[i], a.F64[first])
		default:
			s := a.F64[first]
			if a.Combine == nil {
				for _, rk := range ranks[1:] {
					s += a.F64[rk]
				}
			} else {
				for _, rk := range ranks[1:] {
					s = a.Combine(s, a.F64[rk])
				}
			}
			dv.annF[i] = append(dv.annF[i], s)
		}
	}
	if dv.counts {
		dv.count = append(dv.count, float64(len(ranks)))
	}
}

// DeriveBytes is what Derive on base l allocates for m selected rows
// carrying leafAnns leaf-level F64 annotations (Count included): the two
// selection bitsets and the popcount prefix, and every output buffer at
// the capacity Derive reserves for it.
func (l *Lazy) DeriveBytes(m, leafAnns int) int64 {
	words := int64(l.n+63) / 64
	b := 20 * words
	for e, lv := range l.levels {
		b += 4 * int64(min(m, len(lv.vals)))
		if e > 0 {
			b += 4 * int64(min(m, len(l.levels[e-1].vals))+1)
		}
	}
	return b + 8*int64(leafAnns)*int64(min(m, len(l.levels[l.k-1].vals)))
}

// selBitsets marks the selected rows twice: words by row id, with
// prefix counting the selected rows before each 64-row word (so a row's
// position in sel is one popcount away), and front by frontier position.
func (l *Lazy) selBitsets(sel []int32) (words, front []uint64, prefix []int32, err error) {
	words = make([]uint64, (l.n+63)/64)
	front = make([]uint64, len(words))
	prev := int32(-1)
	for _, r := range sel {
		if r <= prev || int(r) >= l.n {
			return nil, nil, nil, fmt.Errorf("trie: selection not strictly ascending within %d rows at row %d", l.n, r)
		}
		words[r>>6] |= 1 << (uint(r) & 63)
		p := l.pos[r]
		front[p>>6] |= 1 << (uint(p) & 63)
		prev = r
	}
	prefix = make([]int32, len(words))
	var c int32
	for i, w := range words {
		prefix[i] = c
		c += int32(bits.OnesCount64(w))
	}
	return words, front, prefix, nil
}
