package trie

import (
	"cmp"
	"fmt"
	"math"
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
// its leaf level, plus the inverse of its frontier permutation. Like any
// fully built Lazy it then drops its build state, except that a base
// keeps the frontier, its inverse and each level's vals/starts/rowOff,
// which is all Derive reads. The result is immutable, so any number of
// goroutines may derive from it.
func NewBase(in BuildInput) (*Lazy, error) {
	in.Anns = nil
	l, err := NewLazy(in)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ensureLevelsLocked(l.k - 1)
	l.pos = make([]int32, l.n)
	for p, r := range l.rows {
		l.pos[r] = int32(p)
	}
	l.ensureAnnsLocked()
	return l, nil
}

// BaseBytes bounds what NewBase holds at its peak over n rows and k key
// columns: the frontier, its inverse and one bucketing pass's scratch,
// and per level at most one value, set bound and row offset per row.
// The counting scratch, sized by the largest code, is left out.
func BaseBytes(n, k int) int64 { return 4 * int64(n) * int64(3+3*k) }

// DeriveInput selects the rows of a base and supplies their annotations.
type DeriveInput struct {
	// Sel lists the surviving source rows, strictly ascending. Rows at
	// or past the base's row count are the tail: rows appended to the
	// source after the base was built.
	Sel []int32
	// Keys holds each key column's codes over at least every row Sel
	// names; only the tail rows' codes are read, so it may be nil when
	// Sel has no tail. The base's rows must still carry the codes the
	// base was built from.
	Keys [][]uint32
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
// result) with no sort, bucketing or per-row gather of the base's rows.
// The survivors are marked at their frontier positions, and one pass
// over those marks walks them in frontier order, grouped by leaf
// element. The frontier lists every source row in key order, stable in
// row id, so that is exactly the order a stable sort of the gathered
// survivors gives: the same elements, the same grouping and the same
// duplicate-fold order.
//
// Tail survivors (rows appended after the base) are sorted by key
// tuple, ties in row order, and merged into the pass: a tuple the base
// has joins that leaf element after its base survivors (every tail row
// id is larger), and a new tuple is emitted by value where it sorts.
// The result is therefore bit-identical to NewLazy (and its Full to
// Build) over the gathered survivors. It comes back fully materialized,
// annotations included, and keeps no frontier. The pass splits across
// Threads at level-0 element boundaries.
func (l *Lazy) Derive(in DeriveInput) (*Lazy, error) {
	faultinject.Fire(faultinject.PointTrieBuild)
	if l.pos == nil {
		return nil, fmt.Errorf("trie: Derive needs a base built by NewBase")
	}
	k, m := l.k, len(in.Sel)
	if err := checkAnns(in.Anns, k, m, in.Count); err != nil {
		return nil, err
	}
	mb := sort.Search(m, func(i int) bool { return in.Sel[i] >= int32(l.n) })
	words, front, prefix, err := l.selBitsets(in.Sel[:mb])
	if err != nil {
		return nil, err
	}
	tail, err := l.placeTail(in.Sel, mb, in.Keys)
	if err != nil {
		return nil, err
	}

	regions := [][2]int32{{0, int32(l.n)}}
	if m >= deriveSplitMin {
		regions = splitFrontier(l.levels[0].rowOff, buildThreads(in.Threads))
	}
	out := newDeriveOutput(l, in, front, regions, tail)
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
// holds the region's bound, the lesser of its base survivors and base
// elements plus one per tail element, so no append outgrows it.
type deriveOutput struct {
	vals, annC [][]uint32
	starts     [][]int32
	annF       [][]float64
	count      []float64
	parts      []*derivation
}

func newDeriveOutput(l *Lazy, in DeriveInput, front []uint64, regions [][2]int32, tail *tailPlan) *deriveOutput {
	k := l.k
	// Region r emits tail elements cut[r]:cut[r+1] besides its base
	// survivors: those placed before its last level-0 boundary.
	cut := make([]int, len(regions)+1)
	if tail != nil {
		off0 := l.levels[0].rowOff
		for r, reg := range regions {
			z := int32(sort.Search(len(off0), func(j int) bool { return off0[j] >= reg[1] }))
			i := cut[r]
			for i < len(tail.elems) && tail.elems[i].z < z {
				i++
			}
			cut[r+1] = i
		}
		cut[len(regions)] = len(tail.elems)
	}
	// bound[e][r]: the most level-e elements region r can emit.
	bound := make([][]int, k)
	for e := range bound {
		off := l.levels[e].rowOff
		first := func(x int32) int { return sort.Search(len(off), func(i int) bool { return off[i] >= x }) }
		bound[e] = make([]int, len(regions))
		for r, reg := range regions {
			bound[e][r] = min(popcountRange(front, reg[0], reg[1]), first(reg[1])-first(reg[0])) + cut[r+1] - cut[r]
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
			tail: tail, ti: cut[r], tend: cut[r+1],
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
	// emitted[e] the last base element emitted at level e, or newElem.
	anc, emitted []int32
	// tail.elems[ti:tend] are the region's tail elements not yet
	// emitted; lastNew is the last one emitted by value.
	tail     *tailPlan
	ti, tend int
	lastNew  int
}

// newElem marks a level whose last emitted element came from a tail key
// tuple the base does not have.
const newElem = -2

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
// element when the next one starts, then emits the region's remaining
// tail elements.
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
	dv.flushTail(math.MaxInt64)
}

// emit appends one leaf element, whose survivors sit at positions ranks
// of Sel in row order, together with every ancestor that changed since
// the last emitted leaf: base leaf element el (ranks in frontier order)
// after the pending tail elements that sort before it and with the tail
// survivors of its own key tuple, or, when el < 0, tail element ^el by
// value. No-op when ranks is empty.
func (dv *derivation) emit(el int32, ranks []int32) {
	if len(ranks) == 0 {
		return
	}
	l, k := dv.base, dv.base.k
	anc, emitted := dv.anc, dv.emitted
	top := k - 1
	if el < 0 {
		top = dv.putNew(int(^el))
	} else {
		if dv.ti < dv.tend {
			ranks = dv.mergeTail(el, ranks)
		}
		// Walk the ancestors up from the leaf; the shallowest level
		// whose element changed opens new sets on every level below it.
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
	}
	// The first survivor stands for every element it opened; leaf
	// values fold over all of them, in row order — the left fold the
	// lazy levels' annotations make.
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

// mergeTail emits the pending tail elements that sort before base leaf
// element el and appends the ranks of the one that is el, if any.
func (dv *derivation) mergeTail(el int32, ranks []int32) []int32 {
	dv.flushTail(2 * int64(el))
	if dv.ti < dv.tend {
		if te := &dv.tail.elems[dv.ti]; te.at == 2*int64(el)+1 {
			ranks = append(ranks, dv.tail.ranks[te.lo:te.hi]...)
			dv.ti++
		}
	}
	return ranks
}

// flushTail emits every pending tail element placed at or before at.
func (dv *derivation) flushTail(at int64) {
	for dv.ti < dv.tend && dv.tail.elems[dv.ti].at <= at {
		te := &dv.tail.elems[dv.ti]
		el := ^int32(dv.ti)
		if te.at&1 == 1 {
			el = int32(te.at >> 1)
		}
		dv.ti++
		dv.emit(el, dv.tail.ranks[te.lo:te.hi])
	}
}

// putNew appends the key levels of tail element i, a tuple the base
// lacks from level depth down, by value, and returns the shallowest
// level it opened: its prefix levels compare by base element, its new
// levels by code against the last tail element put by value.
func (dv *derivation) putNew(i int) int {
	k, tp := dv.base.k, dv.tail
	depth := int(tp.elems[i].depth)
	ids, vals := tp.ids[i*k:(i+1)*k], tp.vals[i*k:(i+1)*k]
	last := tp.vals[dv.lastNew*k : (dv.lastNew+1)*k]
	top := k - 1
	for e := 0; e < k; e++ {
		same := e < depth && ids[e] == dv.emitted[e] ||
			e >= depth && dv.emitted[e] == newElem && last[e] == vals[e]
		if !same {
			top = e
			break
		}
	}
	for e := top; e < k; e++ {
		if e > top {
			dv.starts[e] = append(dv.starts[e], int32(len(dv.vals[e])))
		}
		dv.vals[e] = append(dv.vals[e], vals[e])
		dv.emitted[e] = newElem
		if e < depth {
			dv.emitted[e] = ids[e]
		}
	}
	dv.lastNew = i
	return top
}

// tailPlan is the tail survivors of one Derive, sorted and placed
// against the base.
type tailPlan struct {
	// elems are the distinct key tuples in key order; ranks their
	// survivors' positions in Sel, each tuple's in row order.
	elems []tailElem
	ranks []int32
	// ids[i*k+e] is elems[i]'s base element at level e < depth;
	// vals[i*k+e] its key code at level e.
	ids  []int32
	vals []uint32
}

// tailElem is one distinct key tuple of the tail survivors.
type tailElem struct {
	// at is 2L+1 when the tuple is base leaf element L, and 2L when the
	// base lacks it and it sorts just before leaf element L.
	at int64
	// depth is the number of leading levels the base has (k when at is
	// odd); z its level-0 element, or where level 0 would insert it.
	depth, z int32
	lo, hi   int32 // its survivors: ranks[lo:hi]
}

// placeTail sorts the tail survivors sel[mb:] (rows past the base) by
// key tuple, ties in row order, groups them into distinct tuples and
// places each against the base's levels. It returns nil for an empty
// tail.
func (l *Lazy) placeTail(sel []int32, mb int, keys [][]uint32) (*tailPlan, error) {
	t, k := len(sel)-mb, l.k
	if t == 0 {
		return nil, nil
	}
	if len(keys) != k {
		return nil, fmt.Errorf("trie: selection reaches row %d past the base's %d rows with %d of %d key columns", sel[mb], l.n, len(keys), k)
	}
	prev := int32(l.n) - 1
	for _, r := range sel[mb:] {
		if r <= prev {
			return nil, fmt.Errorf("trie: selection not strictly ascending at row %d", r)
		}
		prev = r
	}
	for e, col := range keys {
		if int(prev) >= len(col) {
			return nil, fmt.Errorf("trie: key column %d has %d rows, selection reaches row %d", e, len(col), prev)
		}
	}
	tp := &tailPlan{ranks: make([]int32, t)}
	// ranks first holds each survivor's offset in the tail, sorted.
	for i := range tp.ranks {
		tp.ranks[i] = int32(i)
	}
	tail := sel[mb:]
	cmpKeys := func(a, b int32) int {
		for _, col := range keys {
			if c := cmp.Compare(col[tail[a]], col[tail[b]]); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortFunc(tp.ranks, func(a, b int32) int {
		if c := cmpKeys(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for lo := 0; lo < t; {
		hi := lo + 1
		for hi < t && cmpKeys(tp.ranks[lo], tp.ranks[hi]) == 0 {
			hi++
		}
		tp.place(l, keys, tail[tp.ranks[lo]], int32(lo), int32(hi))
		lo = hi
	}
	for i := range tp.ranks {
		tp.ranks[i] += int32(mb)
	}
	return tp, nil
}

// place appends the tail element of source row r's key tuple, whose
// survivors are ranks[lo:hi], descending the base's levels until one
// lacks its code.
func (tp *tailPlan) place(l *Lazy, keys [][]uint32, r, lo, hi int32) {
	k := l.k
	te := tailElem{depth: int32(k), lo: lo, hi: hi}
	for e := 0; e < k; e++ {
		tp.vals = append(tp.vals, keys[e][r])
	}
	vals := tp.vals[len(tp.vals)-k:]
	// [from, to) is the base's run of level-e elements under the
	// tuple's prefix.
	from, to := l.levels[0].starts[0], l.levels[0].starts[1]
	for e := 0; e < k; e++ {
		lv := l.levels[e]
		j := from + int32(sort.Search(int(to-from), func(i int) bool { return lv.vals[from+int32(i)] >= vals[e] }))
		if e == 0 {
			te.z = j
		}
		if j == to || lv.vals[j] != vals[e] {
			// New from level e on: it sorts before the first leaf
			// element below level-e element j.
			for d := e + 1; d < k; d++ {
				j = l.levels[d].starts[j]
			}
			te.depth, te.at = int32(e), 2*int64(j)
			tp.ids = append(tp.ids, make([]int32, k-e)...)
			tp.elems = append(tp.elems, te)
			return
		}
		tp.ids = append(tp.ids, j)
		if e+1 < k {
			from, to = l.levels[e+1].starts[j], l.levels[e+1].starts[j+1]
		}
		te.at = 2*int64(j) + 1
	}
	tp.elems = append(tp.elems, te)
}

// DeriveBytes is what Derive on base l allocates for m selected rows,
// t of them in the tail, carrying leafAnns leaf-level F64 annotations
// (Count included): the two selection bitsets and the popcount prefix,
// the placed tail, and every output buffer at the capacity Derive
// reserves for it.
func (l *Lazy) DeriveBytes(m, t, leafAnns int) int64 {
	words := int64(l.n+63) / 64
	b := 20*words + int64(t)*int64(28+8*l.k)
	elems := func(e int) int64 { return int64(min(m-t, len(l.levels[e].vals)) + t) }
	for e := range l.levels {
		b += 4 * elems(e)
		if e > 0 {
			b += 4 * (elems(e-1) + 1)
		}
	}
	return b + 8*int64(leafAnns)*elems(l.k-1)
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
