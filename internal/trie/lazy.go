package trie

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/set"
)

// Lazy is a COLT-style lazily-built generalized hash trie (Free Join,
// arXiv 2301.10841) and the repository's one trie builder: level 0 is
// materialized eagerly at construction, deeper levels and annotation
// buffers materialize on first probe, one whole level at a time, under
// a per-trie single-flight lock so concurrent workers (and queries
// sharing a cached instance) never duplicate or race a build. Build is
// NewLazy followed by Full.
//
// Materialization is a stable counting-bucket pass per level: rows are
// partitioned by the next key column within each current leaf group,
// preserving original row order inside equal-key runs. The element
// sequence is therefore lexicographic, and duplicate key tuples fold
// their annotations in row order, as a stable sort followed by a
// sequential dedup scan would.
//
// It is also the one query-trie type: the join recursion, the cost
// audit and the dense kernels navigate it directly. Sets are addressed
// by (level, parentRank): the global rank of the parent element one
// level up, 0 at level 0. Every accessor materializes what it reads on
// first touch; the atomic built counters and level pointers give the
// happens-before edge, so already-materialized state is read without
// locking. Once every level and annotation buffer exists, a trie drops
// the state only its build read (see dropBuildStateLocked).
type Lazy struct {
	Attrs []string

	in BuildInput
	k  int // number of key levels
	n  int // source rows

	mu       sync.Mutex
	built    atomic.Int32 // number of fully materialized levels
	annsDone atomic.Bool
	fullDone atomic.Bool

	levels []*lazyLevel

	// rows is the frontier permutation: source rows bucketed through the
	// deepest built level. rowOff boundaries recorded per level stay
	// valid forever because deeper bucketing only permutes within groups.
	// Both are build state: only a base keeps them once fully built.
	rows []int32
	// pos inverts rows (source row -> frontier position); only a base
	// (NewBase) holds it, for Derive.
	pos []int32

	anns map[string]*Annotation

	// cnt is the shared counting scratch, sized to the largest key code
	// seen so far; gvbuf collects per-group distinct values. cntDirty
	// guards against a panic mid-pass leaving stale counts behind.
	cnt      []int32
	gvbuf    []uint32
	cntDirty bool

	// probe0 is a dense code->rank+1 index over level 0, built by the
	// first level-0 rank lookup (the hash-join probe side).
	probe0      []int32
	probe0Ready atomic.Bool

	// eager[d] is level d in set-per-node form, built by the first Set
	// call on it (or by Full) from the flat run, whose starts it shares.
	eager []atomic.Pointer[Level]

	full *Trie
}

// lazyLevel mirrors one trie level in flattened form: distinct values
// concatenated per parent set, parent boundaries, and the row-range
// boundary of every element within the frontier permutation.
type lazyLevel struct {
	vals   []uint32
	starts []int32 // len = numParents+1; element-rank bounds per parent set
	rowOff []int32 // len = numElems+1; row-range bounds into Lazy.rows
}

// NewLazy validates the input and materializes level 0. All deeper
// work is deferred.
func NewLazy(in BuildInput) (*Lazy, error) {
	faultinject.Fire(faultinject.PointTrieBuild)
	k := len(in.Keys)
	if k == 0 {
		return nil, fmt.Errorf("trie: no key columns")
	}
	if len(in.Attrs) != k {
		return nil, fmt.Errorf("trie: %d attrs for %d key columns", len(in.Attrs), k)
	}
	n := len(in.Keys[0])
	for i, col := range in.Keys {
		if len(col) != n {
			return nil, fmt.Errorf("trie: key column %d has %d rows, want %d", i, len(col), n)
		}
	}
	l := &Lazy{
		Attrs:  append([]string(nil), in.Attrs...),
		in:     in,
		k:      k,
		n:      n,
		levels: make([]*lazyLevel, k),
		eager:  make([]atomic.Pointer[Level], k),
		anns:   make(map[string]*Annotation, len(in.Anns)),
	}
	if err := checkAnns(in.Anns, k, n, ""); err != nil {
		return nil, err
	}
	for _, a := range in.Anns {
		l.anns[a.Name] = &Annotation{Name: a.Name, Level: a.Level, Kind: a.Kind}
	}
	l.mu.Lock()
	l.materializeLocked(0)
	l.built.Store(1)
	l.mu.Unlock()
	return l, nil
}

// NumLevels reports the number of key attributes.
func (l *Lazy) NumLevels() int { return l.k }

// BuiltLevels reports how many levels are currently materialized.
func (l *Lazy) BuiltLevels() int { return int(l.built.Load()) }

// ensureLevels materializes levels [0, upto] if not already built.
func (l *Lazy) ensureLevels(upto int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ensureLevelsLocked(upto)
}

func (l *Lazy) ensureLevelsLocked(upto int) {
	for d := int(l.built.Load()); d <= upto; d++ {
		faultinject.Fire(faultinject.PointTrieBuild)
		l.materializeLocked(d)
		l.built.Store(int32(d + 1))
	}
}

// ensureAnns materializes every annotation buffer (building all key
// levels first if needed).
func (l *Lazy) ensureAnns() {
	if l.annsDone.Load() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ensureAnnsLocked()
}

func (l *Lazy) ensureAnnsLocked() {
	if l.annsDone.Load() {
		return
	}
	l.ensureLevelsLocked(l.k - 1)
	for ai := range l.in.Anns {
		a := &l.in.Anns[ai]
		out := l.anns[a.Name]
		lv := l.levels[a.Level]
		elems := len(lv.rowOff) - 1
		switch a.Kind {
		case Code:
			// The key prefix functionally determines the value; keep the
			// first row of the element in frontier (= lex) order.
			codes := make([]uint32, elems)
			for e := 0; e < elems; e++ {
				codes[e] = a.Codes[l.rows[lv.rowOff[e]]]
			}
			out.Codes = codes
		case F64:
			vals := make([]float64, elems)
			if a.Level == l.k-1 {
				// Leaf level: fold duplicate key tuples left to right in
				// row order, the frontier's order within an element.
				src := a.F64
				if a.Combine == nil {
					for e := 0; e < elems; e++ {
						s := src[l.rows[lv.rowOff[e]]]
						for _, r := range l.rows[lv.rowOff[e]+1 : lv.rowOff[e+1]] {
							s += src[r]
						}
						vals[e] = s
					}
				} else {
					comb := a.Combine
					for e := 0; e < elems; e++ {
						s := src[l.rows[lv.rowOff[e]]]
						for _, r := range l.rows[lv.rowOff[e]+1 : lv.rowOff[e+1]] {
							s = comb(s, src[r])
						}
						vals[e] = s
					}
				}
			} else {
				for e := 0; e < elems; e++ {
					vals[e] = a.F64[l.rows[lv.rowOff[e]]]
				}
			}
			out.F64 = vals
		}
	}
	l.annsDone.Store(true)
	l.dropBuildStateLocked()
}

// dropBuildStateLocked releases, once every level and annotation buffer
// exists, what only materialization reads: the counting scratch and the
// key and annotation inputs and, unless Derive reads them (a base), the
// frontier and each level's row offsets. Later readers of the levels
// touch only vals and starts.
func (l *Lazy) dropBuildStateLocked() {
	l.cnt, l.gvbuf, l.in.Keys, l.in.Anns = nil, nil, nil, nil
	if l.pos == nil {
		l.rows = nil
		for _, lv := range l.levels {
			lv.rowOff = nil
		}
	}
}

// materializeLocked buckets the frontier by key column d, appending one
// refined group per distinct (prefix, value) pair. Stability: rows keep
// their relative order inside each new group.
func (l *Lazy) materializeLocked(d int) {
	col := l.in.Keys[d]
	// Size the counting scratch to the column's code domain.
	var maxV uint32
	for _, v := range col {
		if v > maxV {
			maxV = v
		}
	}
	if need := int(maxV) + 1; l.n > 0 && len(l.cnt) < need {
		l.cnt = make([]int32, need)
	}
	if l.cntDirty {
		clear(l.cnt)
	}
	l.cntDirty = true

	lv := &lazyLevel{}
	var prevOff []int32
	if d == 0 {
		prevOff = []int32{0, int32(l.n)}
	} else {
		prevOff = l.levels[d-1].rowOff
	}
	nGroups := len(prevOff) - 1
	lv.starts = make([]int32, 1, nGroups+1)
	// Distinct-count upper bound is the frontier row count.
	lv.vals = make([]uint32, 0, l.n)
	lv.rowOff = make([]int32, 0, l.n+1)
	newRows := make([]int32, l.n)

	cnt, rows := l.cnt, l.rows
	for g := 0; g < nGroups; g++ {
		lo, hi := prevOff[g], prevOff[g+1]
		gv := l.gvbuf[:0]
		if d == 0 {
			// Implicit identity frontier at level 0.
			for r := lo; r < hi; r++ {
				c := col[r]
				if cnt[c] == 0 {
					gv = append(gv, c)
				}
				cnt[c]++
			}
		} else {
			for _, r := range rows[lo:hi] {
				c := col[r]
				if cnt[c] == 0 {
					gv = append(gv, c)
				}
				cnt[c]++
			}
		}
		slices.Sort(gv)
		// Turn counts into scatter offsets; rowOff[e] records element
		// e's row-range start (the next entry, or the final n, is its
		// end).
		off := lo
		for _, v := range gv {
			lv.rowOff = append(lv.rowOff, off)
			c := cnt[v]
			cnt[v] = off
			off += c
		}
		// Stable scatter.
		if d == 0 {
			for r := lo; r < hi; r++ {
				c := col[r]
				newRows[cnt[c]] = r
				cnt[c]++
			}
		} else {
			for _, r := range rows[lo:hi] {
				c := col[r]
				newRows[cnt[c]] = r
				cnt[c]++
			}
		}
		for _, v := range gv {
			cnt[v] = 0
		}
		lv.vals = append(lv.vals, gv...)
		lv.starts = append(lv.starts, int32(len(lv.vals)))
		if cap(l.gvbuf) < cap(gv) {
			l.gvbuf = gv
		}
	}
	lv.rowOff = append(lv.rowOff, int32(l.n))
	// Both runs outlive the pass (Full's sets alias vals, deeper levels
	// and a base read rowOff): copy them out of the row-count capacity.
	if cap(lv.vals) > len(lv.vals) {
		lv.vals = slices.Clone(lv.vals)
	}
	if cap(lv.rowOff) > len(lv.rowOff) {
		lv.rowOff = slices.Clone(lv.rowOff)
	}
	l.cntDirty = false
	l.levels[d] = lv
	l.rows = newRows
}

// flat returns the flattened form of a level, materializing it (and
// every level above it) on first touch.
func (l *Lazy) flat(level int) *lazyLevel {
	if int(l.built.Load()) <= level {
		l.ensureLevels(level)
	}
	return l.levels[level]
}

// HasDups reports whether duplicate key tuples were folded into the
// annotations: exact once the leaf level is built, true before.
func (l *Lazy) HasDups() bool {
	if int(l.built.Load()) < l.k {
		return true
	}
	return l.n != len(l.levels[l.k-1].vals)
}

// Card is the cardinality of the set under parentRank.
func (l *Lazy) Card(level int, parentRank int32) int {
	lv := l.flat(level)
	return int(lv.starts[parentRank+1] - lv.starts[parentRank])
}

// Run returns the set under parentRank as its ascending value run,
// which aliases the trie (callers only read it), plus the global rank
// of its first element.
func (l *Lazy) Run(level int, parentRank int32) ([]uint32, int32) {
	lv := l.flat(level)
	lo := lv.starts[parentRank]
	return lv.vals[lo:lv.starts[parentRank+1]], lo
}

// RankBlock writes to out[i] the global rank of vals[i] in the set
// under parentRank, or -1 when the set lacks it. It ranks through the
// level's set-per-node form once that exists, else through the dense
// probe index on level 0 and binary search over the flat run below.
func (l *Lazy) RankBlock(level int, parentRank int32, vals []uint32, out []int32) {
	if el := l.eager[level].Load(); el != nil {
		el.RankBlock(parentRank, vals, out)
		return
	}
	if level == 0 {
		idx := l.probeIndex()
		for i, v := range vals {
			out[i] = -1
			if int(v) < len(idx) {
				out[i] = idx[v] - 1
			}
		}
		return
	}
	lv := l.flat(level)
	end := lv.starts[parentRank+1]
	for i, v := range vals {
		lo, hi := lv.starts[parentRank], end
		for lo < hi {
			mid := (lo + hi) >> 1
			if lv.vals[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = -1
		if lo < end && lv.vals[lo] == v {
			out[i] = lo
		}
	}
}

// probeIndex returns the dense code->rank+1 index over level 0,
// building it on first use.
func (l *Lazy) probeIndex() []int32 {
	if l.probe0Ready.Load() {
		return l.probe0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.probe0Ready.Load() {
		return l.probe0
	}
	vals := l.levels[0].vals
	var maxV uint32
	if len(vals) > 0 {
		maxV = vals[len(vals)-1]
	}
	idx := make([]int32, int(maxV)+1)
	for i, v := range vals {
		idx[v] = int32(i) + 1
	}
	l.probe0 = idx
	l.probe0Ready.Store(true)
	return idx
}

// Set returns the set under parentRank in intersectable form: the
// first call on a level converts the whole level to set-per-node form.
func (l *Lazy) Set(level int, parentRank int32) *set.Set {
	lv := l.eager[level].Load()
	if lv == nil {
		l.mu.Lock()
		lv = l.eagerLevelLocked(level, l.in.Threads)
		l.mu.Unlock()
	}
	return &lv.Sets[parentRank]
}

func (l *Lazy) eagerLevelLocked(d, threads int) *Level {
	if lv := l.eager[d].Load(); lv != nil {
		return lv
	}
	l.ensureLevelsLocked(d)
	starts := l.levels[d].starts
	if l.n == 0 {
		// An empty input keeps one empty set on every level.
		starts = []int32{0, 0}
	}
	lv := buildLevel(l.levels[d].vals, starts, threads)
	l.eager[d].Store(lv)
	return lv
}

// Ann returns the named annotation buffer (indexed by the global rank
// of the level it hangs off) or nil. The first call materializes every
// annotation buffer and with them every key level.
func (l *Lazy) Ann(name string) *Annotation {
	l.ensureAnns()
	return l.anns[name]
}

// Full materializes everything and converts to an immutable Trie; Build
// is exactly this. The result is cached.
func (l *Lazy) Full(threads int) *Trie {
	if l.fullDone.Load() {
		return l.full
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fullDone.Load() {
		return l.full
	}
	l.ensureLevelsLocked(l.k - 1)
	l.ensureAnnsLocked()
	t := &Trie{
		Attrs:  append([]string(nil), l.Attrs...),
		Levels: make([]*Level, l.k),
		Anns:   make(map[string]*Annotation, len(l.anns)),
	}
	for name, a := range l.anns {
		t.Anns[name] = a
	}
	if threads <= 0 {
		threads = l.in.Threads
	}
	for d := 0; d < l.k; d++ {
		t.Levels[d] = l.eagerLevelLocked(d, threads)
	}
	t.NumTuples = t.Levels[l.k-1].NumElems()
	l.full = t
	l.fullDone.Store(true)
	return t
}

// MemBytes estimates the heap footprint of the materialized state.
func (l *Lazy) MemBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.rows)*4 + len(l.pos)*4 + len(l.cnt)*4 + len(l.probe0)*4
	for _, lv := range l.levels {
		if lv == nil {
			continue
		}
		n += len(lv.vals)*4 + len(lv.starts)*4 + len(lv.rowOff)*4
	}
	for _, a := range l.anns {
		n += len(a.F64)*8 + len(a.Codes)*4
	}
	return n
}

// String summarizes the lazy trie shape and build progress.
func (l *Lazy) String() string {
	s := fmt.Sprintf("lazytrie(%v) rows=%d built=%d/%d", l.Attrs, l.n, l.BuiltLevels(), l.k)
	for d := 0; d < l.BuiltLevels(); d++ {
		lv := l.levels[d]
		s += fmt.Sprintf(" | L%d sets=%d elems=%d", d, len(lv.starts)-1, len(lv.vals))
	}
	return s
}
