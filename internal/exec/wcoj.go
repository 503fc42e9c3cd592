package exec

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/costopt"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/qerr"
	"repro/internal/set"
	"repro/internal/trie"
)

// ctxCheckStride is how many outermost-loop values a worker processes
// between context-cancellation checks: coarse enough to stay off the
// per-intersection hot path, fine enough that cancellation lands in
// well under a chunk.
const ctxCheckStride = 64

// stepCheckMask samples the in-recursion tick (context cancellation +
// memory-charge flush) once per 2048 visited trie nodes: a single
// outermost value with a huge subtree — the skewed chunk the stride
// check above cannot see — still observes cancellation within
// microseconds of work, not at the end of the chunk.
const stepCheckMask = 2048 - 1

// probeBlock is how many candidate values one batched rank lookup
// covers: per participating relation, one tight loop fills a rank
// buffer for the whole block before the survivor scan, keeping the
// lookups branch-predictable and free of per-element call overhead.
const probeBlock = 512

// rowsBuf is a node's output: materialized key codes and aggregate
// values, struct-of-arrays.
type rowsBuf struct {
	kWidth, aWidth int
	keys           []uint32
	aggs           []float64
}

func (b *rowsBuf) n() int {
	if b.kWidth > 0 {
		return len(b.keys) / b.kWidth
	}
	if b.aWidth > 0 {
		return len(b.aggs) / b.aWidth
	}
	return 0
}

func (b *rowsBuf) appendRow(keys []uint32, aggs []float64) {
	b.keys = append(b.keys, keys...)
	b.aggs = append(b.aggs, aggs...)
}

// rowsPool recycles node output buffers: runNode checks one out per
// node; the consumer releases it once the rows have been copied onward
// (into a child trie or the final Result).
var rowsPool = sync.Pool{New: func() any { return new(rowsBuf) }}

func getRowsBuf(kWidth, aWidth int) *rowsBuf {
	b := rowsPool.Get().(*rowsBuf)
	b.kWidth, b.aWidth = kWidth, aWidth
	b.keys = b.keys[:0]
	b.aggs = b.aggs[:0]
	return b
}

// releaseRows returns a buffer to the pool; callers must not touch it
// (or slices derived from it) afterwards.
func releaseRows(b *rowsBuf) {
	if b != nil {
		rowsPool.Put(b)
	}
}

// hashAcc is the emit-time hash aggregation table (Fig. 4's
// out(n_n) += pattern): group tokens → aggregate accumulators. Groups
// live densely in tokens/aggs; lookup goes through either an
// open-addressing index (linear probing over a power-of-two slot
// array, wyhash-style token mixing) or, when every group column has a
// known small code domain, a direct-indexed dense table. Both paths
// keep the steady-state add allocation-free: growth rebuilds only the
// slot index, never re-keys the dense storage, and merge folds another
// table in group by group without materializing string keys.
type hashAcc struct {
	nG, nA int
	kinds  []planner.AggKind
	tokens []uint64  // nG per entry
	aggs   []float64 // nA per entry

	// Open-addressing index: slot values are group index + 1 (0 = empty).
	slots []int32
	mask  uint32

	// Dense fallback: a mixed-radix code over the group columns' domains
	// indexes the table directly — no hashing, no probing.
	dense   []int32  // code → group index + 1
	strides []uint64 // per group column
}

// denseAccCap bounds the dense fallback's table size (entries); past it
// the probe table is cheaper than zeroing the dense table per query.
const denseAccCap = 1 << 15

const minAccSlots = 64

// denseLayout returns mixed-radix strides over the group domains, or
// ok=false when any domain is unknown or the product exceeds
// denseAccCap.
func denseLayout(hgroups []hashGroup) (strides []uint64, size uint64, ok bool) {
	if len(hgroups) == 0 {
		return nil, 0, false
	}
	size = 1
	for _, hg := range hgroups {
		if hg.domain <= 0 {
			return nil, 0, false
		}
		size *= uint64(hg.domain)
		if size > denseAccCap {
			return nil, 0, false
		}
	}
	strides = make([]uint64, len(hgroups))
	st := uint64(1)
	for i := len(hgroups) - 1; i >= 0; i-- {
		strides[i] = st
		st *= uint64(hgroups[i].domain)
	}
	return strides, size, true
}

func newHashAcc(n *cNode) *hashAcc {
	h := &hashAcc{nG: len(n.hgroups), nA: len(n.aggs), kinds: n.aggKinds}
	if strides, size, ok := denseLayout(n.hgroups); ok {
		h.strides = strides
		h.dense = make([]int32, size)
	} else {
		h.slots = make([]int32, minAccSlots)
		h.mask = minAccSlots - 1
	}
	return h
}

// configureHashAcc prepares a pooled accumulator for node n, reusing
// the index storage when the shape matches the previous query's.
func configureHashAcc(h *hashAcc, n *cNode) *hashAcc {
	if h == nil {
		return newHashAcc(n)
	}
	strides, size, denseOK := denseLayout(n.hgroups)
	if h.nG != len(n.hgroups) || h.nA != len(n.aggs) {
		return newHashAcc(n)
	}
	switch {
	case denseOK && h.dense != nil && uint64(len(h.dense)) == size:
		h.strides = strides
		clear(h.dense)
	case !denseOK && h.slots != nil:
		clear(h.slots)
	default:
		return newHashAcc(n)
	}
	h.kinds = n.aggKinds
	h.tokens = h.tokens[:0]
	h.aggs = h.aggs[:0]
	return h
}

func (h *hashAcc) n() int { return len(h.tokens) / max1(h.nG) }

// heldBytes is what the table holds for its groups: their tokens and
// accumulators, and its dense index or the probe table a fresh table
// grows to for that many groups (a pooled one may be larger).
func (h *hashAcc) heldBytes() int64 {
	b := int64(len(h.tokens))*8 + int64(len(h.aggs))*8 + int64(len(h.dense))*4
	if h.dense == nil {
		slots := minAccSlots
		for h.n()*4 > slots*3 {
			slots *= 2
		}
		b += int64(slots) * 4
	}
	return b
}

func max1(x int) int {
	if x < 1 {
		return 1
	}
	return x
}

// wyhash-style mixing constants (the wyp primes).
const (
	wyp0 = 0xa0761d6478bd642f
	wyp1 = 0xe7037ed1a0b428db
)

// mix64 folds a full 64×64→128 multiply, the wyhash primitive.
func mix64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func hashToks(toks []uint64) uint64 {
	h := uint64(wyp0)
	for _, t := range toks {
		h = mix64(h^t, wyp1)
	}
	return h
}

func equalToks(a, b []uint64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// add combines one tuple's aggregate values into the group named by the
// token tuple. Once a group exists the path performs zero allocations;
// new groups append to the dense storage (amortized doubling).
func (h *hashAcc) add(toks []uint64, vals []float64) {
	if h.dense != nil {
		code := uint64(0)
		for i, t := range toks {
			code += t * h.strides[i]
		}
		gi := int(h.dense[code]) - 1
		if gi < 0 {
			h.dense[code] = int32(h.appendGroup(toks, vals)) + 1
			return
		}
		h.combine(gi, vals)
		return
	}
	hv := hashToks(toks)
	i := uint32(hv) & h.mask
	for {
		s := h.slots[i]
		if s == 0 {
			if (h.n()+1)*4 > len(h.slots)*3 {
				h.grow()
				i = uint32(hv) & h.mask
				for h.slots[i] != 0 {
					i = (i + 1) & h.mask
				}
			}
			h.slots[i] = int32(h.appendGroup(toks, vals)) + 1
			return
		}
		gi := int(s) - 1
		base := gi * h.nG
		if equalToks(h.tokens[base:base+h.nG], toks) {
			h.combine(gi, vals)
			return
		}
		i = (i + 1) & h.mask
	}
}

func (h *hashAcc) appendGroup(toks []uint64, vals []float64) int {
	gi := h.n()
	h.tokens = append(h.tokens, toks...)
	h.aggs = append(h.aggs, vals...)
	return gi
}

func (h *hashAcc) combine(gi int, vals []float64) {
	base := gi * h.nA
	for i, k := range h.kinds {
		h.aggs[base+i] = combine1(k, h.aggs[base+i], vals[i])
	}
}

// grow doubles the probe table and re-inserts the group indices; the
// dense tokens/aggs storage is untouched.
func (h *hashAcc) grow() {
	n := len(h.slots) * 2
	h.slots = make([]int32, n)
	h.mask = uint32(n - 1)
	ng := h.n()
	for gi := 0; gi < ng; gi++ {
		base := gi * h.nG
		i := uint32(hashToks(h.tokens[base:base+h.nG])) & h.mask
		for h.slots[i] != 0 {
			i = (i + 1) & h.mask
		}
		h.slots[i] = int32(gi) + 1
	}
}

// merge folds another accumulator into h without re-keying: each group
// is re-located by its token tuple and combined by aggregate kind.
func (h *hashAcc) merge(o *hashAcc) {
	ng := o.n()
	for gi := 0; gi < ng; gi++ {
		h.add(o.tokens[gi*o.nG:(gi+1)*o.nG], o.aggs[gi*o.nA:(gi+1)*o.nA])
	}
}

// outKeyWidth is the node's output key width: the materialized prefix
// plus the relaxed tail attribute.
func (n *cNode) outKeyWidth() int {
	if n.relaxed {
		return n.matCount + 1
	}
	return n.matCount
}

// outKeyAttrs lists the output key attributes in output-column order.
func (n *cNode) outKeyAttrs() []string {
	out := append([]string(nil), n.order[:n.matCount]...)
	if n.relaxed {
		out = append(out, n.order[n.nLevels-1])
	}
	return out
}

// runNode executes a compiled node bottom-up: children first (their
// results become relations of this node — Yannakakis' algorithm), then
// the join recursion with the outermost loop parallelized (parfor,
// §III-D).
func runNode(n *cNode, opts Options, parent obs.SpanID) (*rowsBuf, *hashAcc, error) {
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, nil, err
	}
	tr := stTrace(opts.Stats)
	sp := tr.Begin(parent, obs.SpanNode, "node ["+strings.Join(n.order, " ")+"]")
	// nodeStats collects only this node's kernel counters — the level-0
	// intersection plus the parfor workers' merge. The span carries that
	// per-node view; the fold below keeps QueryStats.Intersect equal to
	// the sum over node spans. Child nodes fold separately, so counts are
	// attributed exactly once.
	var nodeStats set.Stats
	var bindings uint64 // trie nodes the workers visited (their steps)
	lazyBefore := lazyLevelsSum(n)
	defer func() {
		tr.EndWithStats(sp, &nodeStats)
		if opts.Stats != nil {
			opts.Stats.Intersect.Add(&nodeStats)
			// Estimate-vs-actual audit: the §V model's predicted cost for
			// this node against the observed kernel counts repriced with the
			// same icost constants, and the order's binding estimate against
			// the trie nodes visited. Node recursion is single-goroutine (the
			// parfor is within a node), so the append is race-free. Binary
			// nodes audit against the probe-side estimate so the ratio
			// calibrates the model of the path that actually ran.
			nc := obs.NodeCost{
				Order:      n.order,
				Actual:     costopt.ObservedCost(&nodeStats),
				Isect:      nodeStats.Total(),
				Bytes:      nodeStats.BytesOut,
				Bindings:   bindings,
				Path:       n.path,
				LazyLevels: lazyLevelsSum(n) - lazyBefore,
			}
			if n.est != nil {
				nc.EstBindings = n.est.Est
			}
			if n.path == costopt.PathBinary && n.pinfo != nil {
				nc.Est = n.pinfo.ProbeCost
			} else if n.est != nil {
				nc.Est = n.est.Cost
			}
			if nc.Est > 0 {
				nc.Ratio = nc.Actual / nc.Est
			}
			opts.Stats.NodeCosts = append(opts.Stats.NodeCosts, nc)
		}
	}()
	for _, cr := range n.rels {
		if cr.child == nil {
			continue
		}
		childRows, _, err := runNode(cr.child, opts, sp)
		if err != nil {
			return nil, nil, err
		}
		// Charge the child-trie materialization up front: the build copies
		// every row into column buffers and roughly doubles them in the
		// counting passes of trie.Build, so an over-budget query aborts
		// before allocating.
		if opts.Mem != nil {
			est := int64(childRows.n()) * int64(4*len(cr.attrs)+8) * 2
			if err := opts.Mem.Charge(est); err != nil {
				releaseRows(childRows)
				return nil, nil, err
			}
		}
		tr, err := buildChildTrie(cr.child, childRows, cr.attrs)
		releaseRows(childRows) // buildChildTrie copied every row out
		if err != nil {
			return nil, nil, err
		}
		cr.ix = tr
	}

	nAggs := len(n.aggs)
	out := getRowsBuf(n.outKeyWidth(), nAggs)

	// Level-0 iteration set (counted against this node's stats directly:
	// this runs once per node, before the parfor fan-out).
	vals := levelZeroValues(n, &nodeStats)
	if len(vals) == 0 {
		if n.hashEmit {
			return out, newHashAcc(n), nil
		}
		if n.matCount == 0 && !n.relaxed {
			// A grand aggregate over an empty join still yields one row of
			// semiring zeros (COUNT/SUM → 0); matching SQL-without-NULL
			// semantics used throughout this engine.
			acc := make([]float64, nAggs)
			resetAcc(n, acc)
			zeroAccToFinal(n, acc)
			out.appendRow(nil, acc)
		}
		return out, nil, nil
	}
	// The level-0 join is non-empty: annotation buffers will be read, so
	// bind them (an empty join returned above without a lazily backed
	// relation ever building a deeper level).
	n.bind()

	threads := opts.threads()
	if threads > len(vals) {
		threads = len(vals)
	}
	if threads < 1 {
		threads = 1
	}
	workers := make([]*worker, threads)
	var wg sync.WaitGroup
	chunk := (len(vals) + threads - 1) / threads
	errs := make([]error, threads)
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > len(vals) {
			hi = len(vals)
		}
		if lo >= hi {
			workers[t] = nil
			continue
		}
		w := newWorker(n, opts.Ctx, opts.Mem)
		w.id = t
		workers[t] = w
		wg.Add(1)
		go func(w *worker, vs []uint32) {
			defer wg.Done()
			// Recovery barrier: a panic inside this worker fails only
			// this query. The worker is poisoned (kept out of the pool)
			// because its buffers may be in an inconsistent state.
			defer func() {
				if r := recover(); r != nil {
					w.poisoned = true
					errs[w.id] = qerr.CapturePanic(r)
				}
			}()
			errs[w.id] = w.runChunk(vs)
		}(w, vals[lo:hi])
	}
	wg.Wait()
	// Parfor join: merge per-worker kernel counters into the node stats
	// (the only place worker counters touch shared state).
	for _, w := range workers {
		if w != nil {
			nodeStats.Add(&w.iStats)
			bindings += uint64(w.steps)
		}
	}
	for _, e := range errs {
		if e != nil {
			releaseWorkers(workers)
			return nil, nil, e
		}
	}

	// Combine worker outputs; workers return to the pool once their
	// results have been folded in.
	var mergedAcc *hashAcc
	switch {
	case n.hashEmit:
		mergedAcc = newHashAcc(n)
		for _, w := range workers {
			if w != nil {
				mergedAcc.merge(w.hacc)
			}
		}
	case n.matCount > 0:
		for _, w := range workers {
			if w == nil {
				continue
			}
			out.keys = append(out.keys, w.out.keys...)
			out.aggs = append(out.aggs, w.out.aggs...)
		}
	case n.relaxed:
		// Global 1-attribute union: merge per-worker accumulators.
		merged := newUnionAcc(n)
		touchedAny := false
		for _, w := range workers {
			if w == nil {
				continue
			}
			for _, j := range w.uAcc.touched {
				merged.combineFrom(n, w.uAcc, j)
				touchedAny = true
			}
		}
		if touchedAny {
			merged.flushInto(out, nil)
		}
	default:
		// Grand aggregate: merge scalar accumulators.
		acc := make([]float64, nAggs)
		resetAcc(n, acc)
		touched := false
		for _, w := range workers {
			if w == nil || !w.touched {
				continue
			}
			combineAcc(n, acc, w.acc)
			touched = true
		}
		if !touched {
			resetAcc(n, acc)
		}
		zeroAccToFinal(n, acc)
		out.appendRow(nil, acc)
	}
	releaseWorkers(workers)
	return out, mergedAcc, nil
}

func releaseWorkers(ws []*worker) {
	for _, w := range ws {
		if w != nil && !w.poisoned {
			w.release()
		}
	}
}

// lazyLevelsSum counts the materialized levels of the node's base
// relations; runNode diffs it around execution for the EXPLAIN ANALYZE
// lazy-build counter (a WCOJ node's tries are fully built at compile
// time, so only a binary-path node's can move it).
func lazyLevelsSum(n *cNode) int {
	s := 0
	for _, cr := range n.rels {
		if cr.child == nil {
			s += cr.ix.BuiltLevels()
		}
	}
	return s
}

// parentRank is the global rank, in ranks, of the element that p's
// relation has bound one trie level above p (0 at its first level).
func parentRank(ranks [][]int32, p part) int32 {
	if p.lvl == 0 {
		return 0
	}
	return ranks[p.rel][p.lvl-1]
}

// candidates is the per-level navigation step of the one join
// recursion: under the parents bound in ranks it returns the ascending
// value run node level d iterates. The node's access path picks the
// navigator. WCOJ intersects the participants' sets (drv = -1: every
// participant's rank is then looked up). Binary hash join — and any
// level with a single participant — reads the smallest participant's
// run as is (drv is that participant, whose ranks are base + position)
// and leaves the others to be probed, misses dropping out. Either way
// the values every participant holds come out in the same ascending
// order, which is what keeps the two paths bit-identical. The run
// aliases a trie or lb; callers only read it.
func candidates(n *cNode, d int, ranks [][]int32, lb *levelBufs) (vals []uint32, drv int, base int32) {
	ps := n.parts[d]
	if len(ps) > 1 && n.path != costopt.PathBinary {
		lb.sets = lb.sets[:0]
		for _, p := range ps {
			lb.sets = append(lb.sets, n.rels[p.rel].ix.Set(p.lvl, parentRank(ranks, p)))
		}
		isect := set.IntersectMany(&lb.b1, &lb.b2, lb.sets)
		return isect.Run(&lb.vals), -1, 0
	}
	if len(ps) > 1 {
		// Ties go to the lowest part index, so the choice — and the visit
		// sequence — is deterministic.
		minCard := math.MaxInt
		for i, p := range ps {
			if c := n.rels[p.rel].ix.Card(p.lvl, parentRank(ranks, p)); c < minCard {
				minCard, drv = c, i
			}
		}
	}
	p := ps[drv]
	vals, base = n.rels[p.rel].ix.Run(p.lvl, parentRank(ranks, p))
	return vals, drv, base
}

// levelZeroValues materializes the node's level-0 iteration set once,
// before the parfor fan-out, counting its kernels against stat: the
// level-0 candidates, reduced under the binary path to the values every
// other participant also holds. Only level 0 of any index is touched,
// so a filter that empties the join never materializes a deeper lazy
// level.
func levelZeroValues(n *cNode, stat *set.Stats) []uint32 {
	lb := &levelBufs{}
	lb.b1.Stat, lb.b2.Stat = stat, stat
	vals, drv, _ := candidates(n, 0, nil, lb)
	ps := n.parts[0]
	if drv < 0 || len(ps) == 1 {
		return vals
	}
	// Each participant probes only what survived the ones before it.
	out := make([]uint32, len(vals))
	rk := make([]int32, probeBlock)
	k := 0
	for lo := 0; lo < len(vals); lo += probeBlock {
		cur := out[k : k+copy(out[k:], vals[lo:min(lo+probeBlock, len(vals))])]
		for j, p := range ps {
			if j == drv {
				continue
			}
			n.rels[p.rel].ix.RankBlock(p.lvl, 0, cur, rk)
			stat.Probes += uint64(len(cur))
			m := 0
			for i, v := range cur {
				if rk[i] >= 0 {
					cur[m] = v
					m++
				}
			}
			cur = cur[:m]
		}
		k += len(cur)
	}
	stat.BytesOut += uint64(k) * 4
	return out[:k]
}

// worker executes a chunk of the outermost loop.
type worker struct {
	id      int
	n       *cNode
	ranks   [][]int32 // per rel: global rank at each of its levels
	curKey  []uint32
	acc     []float64
	touched bool
	out     *rowsBuf
	bufs    []*levelBufs
	uAcc    *unionAcc
	scratch []float64
	curVals []uint32 // per-level bound values (hash-emit mode)
	hacc    *hashAcc
	toks    []uint64
	// leafKeys and leafVals are the compiled leaf's block scratch: the
	// surviving values and, per aggregate, their tuple values.
	leafKeys []uint32
	leafVals []float64
	// iStats is this worker's private kernel counters; every level's
	// intersection buffers point at it, and it is merged into the query
	// stats at the parfor join.
	iStats set.Stats
	ctx    context.Context // non-nil: checked every ctxCheckStride values

	// steps counts visited trie nodes; every stepCheckMask+1 visits the
	// worker ticks: context check plus memory-charge flush. This is the
	// in-loop check that bounds cancellation latency on skewed chunks.
	steps int
	// mem is the query's accountant; memCharged is the retained-bytes
	// high-water mark already charged (ticks charge only the delta).
	mem        *governor.Accountant
	memCharged int64
	// poisoned marks a worker that panicked: its buffers are suspect,
	// so release keeps it out of the pool.
	poisoned bool
}

// levelBufs is the scratch of one node level: the intersect navigator's
// operand list and ping-pong buffers, the run a bitset layout expands
// into, and one rank block per participant. Pooled with the worker, so
// the steady-state recursion performs zero allocations.
type levelBufs struct {
	b1, b2 set.Buffer
	sets   []*set.Set
	vals   []uint32
	ranks  [][]int32
}

// workerPool recycles workers across parfor chunks, GHD nodes and
// queries: their level buffers, rank tables, accumulator slices and
// hash tables are the bulk of a query's transient allocations
// (DESIGN.md §"Memory management").
var workerPool = sync.Pool{New: func() any { return new(worker) }}

func resizeU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// newWorker checks a worker out of the pool and sizes its scratch for
// node n; release returns it once the node's results are merged. On
// reuse every slice keeps its capacity, so a steady workload (the same
// query shape over and over) checks out workers without allocating.
func newWorker(n *cNode, ctx context.Context, mem *governor.Accountant) *worker {
	w := workerPool.Get().(*worker)
	w.id = 0
	w.n = n
	w.ctx = ctx
	w.mem = mem
	w.steps = 0
	w.memCharged = 0
	w.poisoned = false
	w.touched = false
	w.iStats = set.Stats{}
	w.curKey = resizeU32(w.curKey, n.outKeyWidth())
	nA := len(n.aggs)
	w.acc = resizeF64(w.acc, nA)
	w.scratch = resizeF64(w.scratch, nA)
	if w.out == nil {
		w.out = &rowsBuf{}
	}
	w.out.kWidth = n.outKeyWidth()
	w.out.aWidth = nA
	w.out.keys = w.out.keys[:0]
	w.out.aggs = w.out.aggs[:0]
	if cap(w.ranks) < len(n.rels) {
		w.ranks = append(w.ranks[:cap(w.ranks)], make([][]int32, len(n.rels)-cap(w.ranks))...)
	}
	w.ranks = w.ranks[:len(n.rels)]
	for i, cr := range n.rels {
		w.ranks[i] = resizeI32(w.ranks[i], len(cr.attrs))
	}
	if cap(w.bufs) < n.nLevels {
		w.bufs = append(w.bufs[:cap(w.bufs)], make([]*levelBufs, n.nLevels-cap(w.bufs))...)
	}
	w.bufs = w.bufs[:n.nLevels]
	for d := range w.bufs {
		if w.bufs[d] == nil {
			w.bufs[d] = &levelBufs{}
		}
		lb := w.bufs[d]
		lb.sets = lb.sets[:0]
		lb.b1.Stat = &w.iStats
		lb.b2.Stat = &w.iStats
		nParts := len(n.parts[d])
		if cap(lb.ranks) < nParts {
			lb.ranks = append(lb.ranks[:cap(lb.ranks)], make([][]int32, nParts-cap(lb.ranks))...)
		}
		lb.ranks = lb.ranks[:nParts]
		for j := range lb.ranks {
			lb.ranks[j] = resizeI32(lb.ranks[j], probeBlock)
		}
	}
	if n.relaxed {
		w.uAcc = configureUnionAcc(w.uAcc, n)
	}
	if n.leaf != nil {
		w.leafKeys = resizeU32(w.leafKeys, probeBlock)
		w.leafVals = resizeF64(w.leafVals, nA*probeBlock)
	}
	if n.hashEmit {
		// curVals doubles as the hash-emit mode flag in the recursion
		// (checked against nil), so it is sized here and nilled otherwise.
		w.curVals = resizeU32(w.curVals, n.nLevels)
		w.hacc = configureHashAcc(w.hacc, n)
		w.toks = resizeU64(w.toks, len(n.hgroups))
	} else {
		w.curVals = nil
	}
	resetAcc(n, w.acc)
	return w
}

// release returns a worker to the pool. Query-owned pointers — the
// node, the context, and the trie sets captured in level buffers — are
// cleared so pooled workers never pin a finished query's tries.
func (w *worker) release() {
	w.n = nil
	w.ctx = nil
	w.mem = nil
	for _, lb := range w.bufs {
		if lb == nil {
			continue
		}
		for i := range lb.sets {
			lb.sets[i] = nil
		}
		lb.sets = lb.sets[:0]
		lb.b1.ClearRefs()
		lb.b2.ClearRefs()
	}
	workerPool.Put(w)
}

// runChunk is level 0 of the recursion over this worker's share of the
// node's level-0 values, walked in strides of ctxCheckStride so the
// context and the memory charge are checked at that cadence whatever
// the subtree sizes (the parfor chunk boundary).
func (w *worker) runChunk(vals []uint32) error {
	faultinject.Fire(faultinject.PointExecWorker)
	for lo := 0; lo < len(vals); lo += ctxCheckStride {
		if err := w.tick(); err != nil {
			return err
		}
		if err := w.walk(0, vals[lo:min(lo+ctxCheckStride, len(vals))], -1, 0); err != nil {
			return err
		}
	}
	return nil
}

// descend iterates level d under the currently bound parents.
func (w *worker) descend(d int) error {
	vals, drv, base := candidates(w.n, d, w.ranks, w.bufs[d])
	return w.walk(d, vals, drv, base)
}

// walk iterates one ascending candidate run of level d. Per block, one
// batched lookup per participant fills its ranks (the driver's are
// base + position); a value some participant lacks is skipped, every
// other value binds its ranks and is emitted — or, at a compiled leaf,
// the block is folded whole. Rank lookups count as probes only under
// the binary path, where they are the join.
func (w *worker) walk(d int, vals []uint32, drv int, base int32) error {
	n := w.n
	ps := n.parts[d]
	ranks := w.bufs[d].ranks
	probing := n.path == costopt.PathBinary
	fold := n.leaf != nil && d == n.nLevels-1
	for lo := 0; lo < len(vals); lo += probeBlock {
		block := vals[lo:min(lo+probeBlock, len(vals))]
		for j, p := range ps {
			if j == drv {
				continue
			}
			n.rels[p.rel].ix.RankBlock(p.lvl, parentRank(w.ranks, p), block, ranks[j])
			if probing {
				w.iStats.Probes += uint64(len(block))
			}
		}
		if fold {
			if err := w.foldLeaf(block, ranks, drv, base+int32(lo)); err != nil {
				return err
			}
			continue
		}
	survivors:
		for i, v := range block {
			for j, p := range ps {
				rk := base + int32(lo+i)
				if j != drv {
					if rk = ranks[j][i]; rk < 0 {
						continue survivors
					}
				}
				w.ranks[p.rel][p.lvl] = rk
			}
			if err := w.emit(d, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldLeaf is the compiled leaf level (cNode.leaf): it folds one block
// of the last level's candidates, whose non-driver ranks walk has
// filled, straight into the accumulators. It computes what emit →
// addTuple → evalAgg would for each survivor, in the same order and
// with the same left-associated products, so results are bit-identical;
// it counts the same steps and ticks at the same cadence.
func (w *worker) foldLeaf(block []uint32, ranks [][]int32, drv int, base int32) error {
	n := w.n
	// Keep the survivors: their values, and every participant's ranks
	// compacted in place (the driver's are base + position). A lone
	// driver keeps the whole block.
	keys, m := block, len(block)
	if len(ranks) == 1 && drv == 0 {
		for i := range ranks[0][:m] {
			ranks[0][i] = base + int32(i)
		}
	} else {
		keys, m = w.leafKeys, 0
	survivors:
		for i, v := range block {
			for j := range ranks {
				if j != drv && ranks[j][i] < 0 {
					continue survivors
				}
			}
			for j := range ranks {
				if j == drv {
					ranks[j][m] = base + int32(i)
				} else {
					ranks[j][m] = ranks[j][i]
				}
			}
			keys[m] = v
			m++
		}
	}
	// Each aggregate's tuple values, one pass per factor: the leading
	// factors that stay fixed along the run multiply once, then every
	// later factor multiplies in, in chain order.
	for ai := range n.leaf {
		ch := &n.leaf[ai]
		fs := ch.fs
		out := w.leafVals[ai*probeBlock : ai*probeBlock+m]
		if ch.split == 0 {
			f := &fs[0]
			for k, rk := range ranks[f.part][:m] {
				out[k] = f.buf[rk]
			}
		} else {
			pre := w.fixedFactor(&fs[0])
			for fi := 1; fi < ch.split; fi++ {
				pre *= w.fixedFactor(&fs[fi])
			}
			for k := range out {
				out[k] = pre
			}
		}
		for fi := max(ch.split, 1); fi < len(fs); fi++ {
			f := &fs[fi]
			if f.part < 0 {
				c := w.fixedFactor(f)
				for k := range out {
					out[k] *= c
				}
				continue
			}
			for k, rk := range ranks[f.part][:m] {
				out[k] *= f.buf[rk]
			}
		}
	}
	// Fold tuple by tuple into the union slot (zeroed on first touch,
	// then added to, as unionAcc.add does) or the scalar accumulator.
	nA := len(n.leaf)
	u := w.uAcc
	for k := 0; k < m; k++ {
		w.steps++
		if w.steps&stepCheckMask == 0 {
			if err := w.tick(); err != nil {
				return err
			}
		}
		acc := w.acc
		if n.relaxed {
			j := keys[k]
			acc = u.vals[int(j)*nA : (int(j)+1)*nA]
			if u.mark[j] != u.epoch {
				u.mark[j] = u.epoch
				u.touched = append(u.touched, j)
				for ai := 0; ai < nA; ai++ {
					acc[ai] = 0
				}
			}
		} else {
			w.touched = true
		}
		for ai := 0; ai < nA; ai++ {
			acc[ai] += w.leafVals[ai*probeBlock+k]
		}
	}
	return nil
}

// fixedFactor reads a factor that stays fixed along a leaf run: a
// constant, or a buffer at the rank its relation bound above the leaf.
func (w *worker) fixedFactor(f *leafFactor) float64 {
	if f.rel < 0 {
		return f.c
	}
	return f.buf[w.ranks[f.rel][f.lvl]]
}

// emit binds v at level d and folds everything below it: the one place
// a visited trie node turns into output. A method, not a closure, so
// the recursion stays allocation-free.
func (w *worker) emit(d int, v uint32) error {
	n := w.n
	w.steps++
	if w.steps&stepCheckMask == 0 {
		if err := w.tick(); err != nil {
			return err
		}
	}
	if d < n.matCount {
		w.curKey[d] = v
	}
	if w.curVals != nil {
		w.curVals[d] = v
	}
	boundary := d == n.matCount-1
	if boundary {
		w.beginGroup()
	}
	if d == n.nLevels-1 {
		w.addTuple(v)
	} else if err := w.descend(d + 1); err != nil {
		return err
	}
	if boundary {
		w.endGroup()
	}
	return nil
}

// tick is the sampled in-recursion check (every stepCheckMask+1 visited
// trie nodes): observe cancellation promptly even on a skewed chunk, and
// flush newly retained memory to the query's accountant.
func (w *worker) tick() error {
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	return w.chargeRetained()
}

// chargeRetained charges the accountant for the growth of what this
// worker's buffers hold for the query since the last flush: the rows
// and groups it has written and the tables its node sized, never the
// spare capacity a pooled buffer kept from an earlier query. So a
// query's charge is a function of the query and its data, whatever the
// pool kept or dropped, and a steady-state query charges nothing once
// its high-water mark is reached.
func (w *worker) chargeRetained() error {
	if w.mem == nil {
		return nil
	}
	ret := int64(len(w.out.keys))*4 + int64(len(w.out.aggs))*8
	if w.curVals != nil && w.hacc != nil {
		ret += w.hacc.heldBytes()
	}
	if w.n != nil && w.n.relaxed && w.uAcc != nil {
		ret += int64(len(w.uAcc.vals))*8 + int64(len(w.uAcc.mark))*4 +
			int64(len(w.uAcc.touched))*4
	}
	if ret <= w.memCharged {
		return nil
	}
	d := ret - w.memCharged
	w.memCharged = ret
	return w.mem.Charge(d)
}

// beginGroup resets accumulators at the materialized-prefix boundary.
func (w *worker) beginGroup() {
	resetAcc(w.n, w.acc)
	w.touched = false
	if w.n.relaxed {
		w.uAcc.reset()
	}
}

// endGroup flushes the finished group(s).
func (w *worker) endGroup() {
	n := w.n
	if n.relaxed {
		if len(w.uAcc.touched) > 0 {
			w.uAcc.flushInto(w.out, w.curKey[:n.matCount])
		}
		return
	}
	if !w.touched {
		return
	}
	zeroAccToFinal(n, w.acc)
	w.out.appendRow(w.curKey[:n.matCount], w.acc)
}

// addTuple folds the current full WCOJ tuple into the accumulators.
func (w *worker) addTuple(lastVal uint32) {
	n := w.n
	vals := w.scratch
	for ai := range n.aggs {
		vals[ai] = w.evalAgg(&n.aggs[ai])
	}
	if n.hashEmit {
		for gi := range n.hgroups {
			hg := &n.hgroups[gi]
			tok, ok := metaTok(hg.toks, w.curVals[hg.level])
			if !ok {
				return
			}
			w.toks[gi] = tok
		}
		w.hacc.add(w.toks, vals)
		return
	}
	if n.relaxed {
		w.uAcc.add(n, lastVal, vals)
		return
	}
	w.touched = true
	for ai := range n.aggs {
		w.acc[ai] = combine1(n.aggs[ai].kind, w.acc[ai], vals[ai])
	}
}

// evalAgg computes one aggregate's contribution for the bound tuple.
func (w *worker) evalAgg(a *cAgg) float64 {
	var v float64
	switch a.kind {
	case planner.AggMin, planner.AggMax:
		rel := a.leafRels[0]
		return a.leafBufs[0][w.lastRank(rel)]
	case planner.AggCount:
		v = 1
	default: // AggSum
		v = w.evalSkel(a, a.skel)
	}
	for _, rel := range a.multRels {
		v *= w.n.rels[rel].mult[w.lastRank(rel)]
	}
	return v
}

func (w *worker) lastRank(rel int) int32 {
	lv := len(w.n.rels[rel].attrs) - 1
	return w.ranks[rel][lv]
}

func (w *worker) evalSkel(a *cAgg, e *planner.EmitNode) float64 {
	switch e.Op {
	case planner.EmitLeaf:
		return a.leafBufs[e.Leaf][w.lastRank(a.leafRels[e.Leaf])]
	case planner.EmitConst:
		return e.Const
	case planner.EmitAdd:
		return w.evalSkel(a, e.L) + w.evalSkel(a, e.R)
	case planner.EmitSub:
		return w.evalSkel(a, e.L) - w.evalSkel(a, e.R)
	case planner.EmitMul:
		return w.evalSkel(a, e.L) * w.evalSkel(a, e.R)
	case planner.EmitDiv:
		return w.evalSkel(a, e.L) / w.evalSkel(a, e.R)
	case planner.EmitMulInd:
		// CASE indicator: a predicate that never fired contributes an
		// exact 0, even when the THEN side pre-aggregated to NaN/Inf.
		if l := w.evalSkel(a, e.L); l != 0 {
			return l * w.evalSkel(a, e.R)
		}
		return 0
	}
	return 0
}

// combine1 merges one value into an accumulator per aggregate kind.
func combine1(kind planner.AggKind, acc, v float64) float64 {
	switch kind {
	case planner.AggMin:
		if v < acc {
			return v
		}
		return acc
	case planner.AggMax:
		if v > acc {
			return v
		}
		return acc
	default:
		return acc + v
	}
}

// resetAcc initializes accumulators to the aggregate identities.
func resetAcc(n *cNode, acc []float64) {
	for i := range n.aggs {
		switch n.aggs[i].kind {
		case planner.AggMin:
			acc[i] = math.Inf(1)
		case planner.AggMax:
			acc[i] = math.Inf(-1)
		default:
			acc[i] = 0
		}
	}
}

// combineAcc merges worker accumulators (grand-aggregate path).
func combineAcc(n *cNode, dst, src []float64) {
	for i := range n.aggs {
		dst[i] = combine1(n.aggs[i].kind, dst[i], src[i])
	}
}

// zeroAccToFinal normalizes untouched min/max groups: an empty group is
// never flushed, so infinities only appear for all-empty grand
// aggregates, where 0 is the least surprising output.
func zeroAccToFinal(n *cNode, acc []float64) {
	for i := range acc {
		if math.IsInf(acc[i], 0) {
			acc[i] = 0
		}
	}
}

// unionAcc is the §V-A2 one-attribute union accumulator: a dense
// epoch-marked table over the last attribute's code space.
type unionAcc struct {
	vals    []float64 // lastDomain × nAggs
	mark    []int32
	epoch   int32
	touched []uint32
	nAggs   int
}

func newUnionAcc(n *cNode) *unionAcc {
	dom := n.lastDomain
	if dom < 1 {
		dom = 1
	}
	return &unionAcc{
		vals:  make([]float64, dom*len(n.aggs)),
		mark:  make([]int32, dom),
		epoch: 1,
		nAggs: len(n.aggs),
	}
}

// configureUnionAcc prepares a pooled union accumulator for node n:
// when the pooled table is large enough it is revalidated by bumping
// the epoch (stale marks are all ≤ the old epoch), otherwise a fresh
// table is allocated.
func configureUnionAcc(u *unionAcc, n *cNode) *unionAcc {
	dom := n.lastDomain
	if dom < 1 {
		dom = 1
	}
	nA := len(n.aggs)
	if u == nil || u.nAggs != nA || cap(u.mark) < dom || cap(u.vals) < dom*nA {
		return newUnionAcc(n)
	}
	u.vals = u.vals[:dom*nA]
	u.mark = u.mark[:dom]
	u.reset()
	return u
}

func (u *unionAcc) reset() {
	u.epoch++
	if u.epoch == math.MaxInt32 {
		// Epoch wrap: clear the marks once so stale epochs can never
		// collide with a reused value.
		clear(u.mark)
		u.epoch = 1
	}
	u.touched = u.touched[:0]
}

func (u *unionAcc) add(n *cNode, j uint32, vals []float64) {
	base := int(j) * u.nAggs
	if u.mark[j] != u.epoch {
		u.mark[j] = u.epoch
		u.touched = append(u.touched, j)
		for i := range n.aggs {
			switch n.aggs[i].kind {
			case planner.AggMin:
				u.vals[base+i] = math.Inf(1)
			case planner.AggMax:
				u.vals[base+i] = math.Inf(-1)
			default:
				u.vals[base+i] = 0
			}
		}
	}
	for i := range n.aggs {
		u.vals[base+i] = combine1(n.aggs[i].kind, u.vals[base+i], vals[i])
	}
}

// combineFrom merges entry j of another worker's accumulator.
func (u *unionAcc) combineFrom(n *cNode, src *unionAcc, j uint32) {
	base := int(j) * u.nAggs
	sbase := base
	if u.mark[j] != u.epoch {
		u.mark[j] = u.epoch
		u.touched = append(u.touched, j)
		copy(u.vals[base:base+u.nAggs], src.vals[sbase:sbase+u.nAggs])
		return
	}
	for i := range n.aggs {
		u.vals[base+i] = combine1(n.aggs[i].kind, u.vals[base+i], src.vals[sbase+i])
	}
}

// flushInto appends one row per touched last-attribute value, written
// in place after growing out once for all of them.
func (u *unionAcc) flushInto(out *rowsBuf, prefix []uint32) {
	kw, nA, nT := len(prefix)+1, u.nAggs, len(u.touched)
	k0, a0 := len(out.keys), len(out.aggs)
	out.keys = slices.Grow(out.keys, nT*kw)[:k0+nT*kw]
	out.aggs = slices.Grow(out.aggs, nT*nA)[:a0+nT*nA]
	keys, aggs := out.keys[k0:], out.aggs[a0:]
	for t, j := range u.touched {
		row := keys[t*kw : (t+1)*kw]
		for i, p := range prefix {
			row[i] = p
		}
		row[kw-1] = j
		dst := aggs[t*nA : (t+1)*nA]
		for i, v := range u.vals[int(j)*nA : (int(j)+1)*nA] {
			if math.IsInf(v, 0) {
				v = 0
			}
			dst[i] = v
		}
	}
}

// buildChildTrie turns a child node's output rows into a fully built
// trie keyed by the parent's access order over the shared vertices,
// annotated with the child multiplicity.
func buildChildTrie(child *cNode, rows *rowsBuf, parentAttrs []string) (*trie.Lazy, error) {
	childAttrs := child.outKeyAttrs()
	perm := make([]int, len(parentAttrs))
	for i, pa := range parentAttrs {
		perm[i] = -1
		for j, ca := range childAttrs {
			if ca == pa {
				perm[i] = j
				break
			}
		}
		if perm[i] < 0 {
			return nil, fmt.Errorf("exec: child output missing shared vertex %s (has %v)", pa, childAttrs)
		}
	}
	nRows := rows.n()
	in := trie.BuildInput{Attrs: parentAttrs}
	for _, src := range perm {
		col := make([]uint32, nRows)
		for r := 0; r < nRows; r++ {
			col[r] = rows.keys[r*rows.kWidth+src]
		}
		in.Keys = append(in.Keys, col)
	}
	vals := make([]float64, nRows)
	for r := 0; r < nRows; r++ {
		vals[r] = rows.aggs[r*rows.aWidth] // __childmult is the only agg
	}
	in.Anns = []trie.AnnSpec{{Name: multAnn, Level: len(parentAttrs) - 1, Kind: trie.F64, F64: vals}}
	lz, err := trie.NewLazy(in)
	if err != nil {
		return nil, err
	}
	lz.Full(0)
	return lz, nil
}
