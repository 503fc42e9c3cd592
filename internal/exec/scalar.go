package exec

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/qerr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// scanCtxStride is the scan's cancellation granularity in rows: cheap
// relative to the per-row work, frequent enough to stop a long fold
// promptly. A multiple of expr.BlockSize.
const scanCtxStride = 8192

// scan is a compiled single-relation aggregate (plan.ScalarScan: the
// relation is filtered, or there is no GROUP BY): a fold over the base
// columns with no trie — the |V| = 0 base case of the recursion. Each
// thread folds its static chunk block by block (select, evaluate the
// leaf vectors, fold into its own accumulators); partials merge in
// thread order. Chunk bounds depend only on the row and thread counts,
// so a result is reproducible bit for bit across compaction and
// recovery.
type scan struct {
	c      *compiled   // root node and group decoders, as assemble reads them
	n      int         // rows
	filter *expr.Pred  // nil: every row qualifies
	leaves []*expr.Num // distinct aggregate argument expressions
	// folds are the distinct (kind, leaf) accumulations — sum(x) under
	// avg(x) and every count(*) fold once — and slot maps each plan
	// aggregate to its fold. fnode carries the folds' kinds for the
	// shared accumulator helpers.
	folds []scanFold
	slot  []int
	fnode *cNode
	// keys holds the code column of each group vertex, in group order.
	// When their code space is small, strides lay it out mixed-radix and
	// each worker folds into a dense table of size groups × folds (an
	// ungrouped aggregate is the one-group table); otherwise size is 0
	// and groups go through a hashAcc.
	keys    [][]uint32
	strides []int
	size    int
	// touch lists every annotation column under the attribute-elimination
	// ablation: the scan reads them all, as an engine without elimination
	// would (the paper's Q1/Q6 rows of Table III).
	touch [][]float64
}

// scanFold is one accumulation: its kind and the leaf whose vector it
// folds (-1 for count).
type scanFold struct {
	kind planner.AggKind
	leaf int
}

// runScalarScan folds a single-relation aggregate plan into its output
// rows: one row per group in ascending code-tuple order (the order the
// join path emits), or one row for an ungrouped aggregate. The returned
// compiled form decodes them.
func runScalarScan(p *planner.Plan, cat *storage.Catalog, opts Options, parent telemetry.SpanID) (*compiled, *rowsBuf, error) {
	tr := stTrace(opts.Stats)
	ks := tr.Begin(parent, telemetry.SpanKernel, obs.DispatchScalarScan)
	defer tr.End(ks)
	s, err := compileScan(p, cat, opts)
	if err != nil {
		return nil, nil, err
	}
	threads := opts.threads()
	ws := make([]*scanWorker, threads)
	errs := make([]error, threads)
	parallelRangeID(threads, s.n, func(t, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				errs[t] = qerr.CapturePanic(r)
			}
		}()
		ws[t] = s.newWorker()
		errs[t] = ws[t].fold(lo, hi, opts.Ctx, opts.Mem)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	rows, err := s.merge(ws, opts.Mem)
	if err != nil {
		return nil, nil, err
	}
	return s.c, rows, nil
}

// compileScan resolves the relation's predicate, aggregate leaves and
// group code columns, and the group decoders over a root node whose
// materialized key is the group vertices in group order.
func compileScan(p *planner.Plan, cat *storage.Catalog, opts Options) (*scan, error) {
	if len(p.Rels) != 1 {
		return nil, fmt.Errorf("exec: scan requires one relation")
	}
	r := &p.Rels[0]
	tb := opts.table(r.Table)
	binding := &expr.Binding{Alias: r.Alias, Table: tb}
	root := &cNode{order: p.OutVertices, nLevels: len(p.OutVertices), matCount: len(p.OutVertices)}
	s := &scan{c: &compiled{p: p, cat: cat, opts: opts, root: root}, n: tb.NumRows, fnode: &cNode{}}

	if r.Filter != nil {
		f, err := expr.CompilePred(r.Filter, binding)
		if err != nil {
			return nil, err
		}
		s.filter = f
	}

	// Aggregates: a single relation's aggregate argument is one leaf
	// expression or a constant (§IV-A rule 3), evaluated per qualifying
	// row. Identical arguments share one vector, identical folds one
	// accumulator.
	leafOf := map[string]int{}
	foldOf := map[scanFold]int{}
	for ai := range p.Aggs {
		spec := &p.Aggs[ai]
		root.aggs = append(root.aggs, cAgg{kind: spec.Kind, skel: spec.Skeleton})
		f := scanFold{kind: spec.Kind, leaf: -1}
		if spec.Kind != planner.AggCount {
			var e sqlparse.Expr
			var key string
			switch sk := spec.Skeleton; {
			case sk != nil && sk.Op == planner.EmitLeaf:
				e = spec.Leaves[sk.Leaf].Expr
				key = e.String()
			case sk != nil && sk.Op == planner.EmitConst:
				e = sqlparse.NumberLit{Val: sk.Const}
				key = "const:" + strconv.FormatFloat(sk.Const, 'g', -1, 64)
			default:
				return nil, fmt.Errorf("exec: scan aggregate %s is not over one relation", spec.Name)
			}
			li, ok := leafOf[key]
			if !ok {
				v, err := expr.CompileNum(e, binding)
				if err != nil {
					return nil, err
				}
				li = len(s.leaves)
				leafOf[key] = li
				s.leaves = append(s.leaves, v)
			}
			f.leaf = li
		}
		fi, ok := foldOf[f]
		if !ok {
			fi = len(s.folds)
			foldOf[f] = fi
			s.folds = append(s.folds, f)
			s.fnode.aggs = append(s.fnode.aggs, cAgg{kind: f.kind})
			s.fnode.aggKinds = append(s.fnode.aggKinds, f.kind)
		}
		s.slot = append(s.slot, fi)
	}

	// Group code columns and their code-space sizes.
	for _, v := range p.OutVertices {
		col := tb.Col(r.VertexCol[v])
		if col == nil {
			return nil, fmt.Errorf("exec: scan group vertex %s is not a column of %s", v, r.Alias)
		}
		codes, err := s.c.keyCodesFor(r, col)
		if err != nil {
			return nil, err
		}
		dom := 1
		if d := col.Dict(); d != nil {
			dom = max(dom, d.Len())
		} else {
			for _, x := range codes {
				dom = max(dom, int(x)+1)
			}
		}
		s.keys = append(s.keys, codes)
		s.fnode.hgroups = append(s.fnode.hgroups, hashGroup{domain: dom})
	}
	if strides, size, ok := denseLayout(s.fnode.hgroups); ok {
		s.size = int(size)
		for _, st := range strides {
			s.strides = append(s.strides, int(st))
		}
	} else if len(s.keys) == 0 {
		s.size = 1
	}

	if opts.NoAttrElim {
		for _, cd := range tb.Schema.Cols {
			if col := tb.Col(cd.Name); col != nil {
				if f := col.AnnFloats(); f != nil {
					s.touch = append(s.touch, f)
				}
			}
		}
	}
	if err := s.c.buildGroupDecoders(); err != nil {
		return nil, err
	}
	return s, nil
}

// scanWorker is one thread's bound kernels, block scratch and
// accumulators: a dense table of groups × folds, or a hashAcc.
type scanWorker struct {
	s    *scan
	sel  expr.Sel    // nil when unfiltered
	vals []expr.Vec  // per leaf
	lv   [][]float64 // per leaf: its vector over the block's qualifying rows
	ids  []int32     // the block's candidate, then qualifying, row ids

	acc   []float64 // dense: size × folds
	seen  []bool    // dense: group touched
	gcode []int     // dense, grouped: group code per qualifying row

	h    *hashAcc
	toks []uint64  // hash: the row's group codes
	tv   []float64 // hash: the row's fold values
	id   []float64 // hash: fold identities

	sink float64 // NoAttrElim column touches land here
}

func (s *scan) newWorker() *scanWorker {
	nF := len(s.folds)
	w := &scanWorker{s: s, ids: make([]int32, expr.BlockSize)}
	if s.filter != nil {
		w.sel = s.filter.Bind()
	}
	for _, l := range s.leaves {
		w.vals = append(w.vals, l.Bind())
		w.lv = append(w.lv, make([]float64, expr.BlockSize))
	}
	if s.size == 0 {
		w.h = newHashAcc(s.fnode)
		w.toks = make([]uint64, len(s.keys))
		w.tv = make([]float64, nF)
		w.id = make([]float64, nF)
		resetAcc(s.fnode, w.id)
		return w
	}
	w.acc = make([]float64, s.size*nF)
	for g := 0; g < s.size; g++ {
		resetAcc(s.fnode, w.acc[g*nF:(g+1)*nF])
	}
	w.seen = make([]bool, s.size)
	if len(s.keys) > 0 {
		w.gcode = make([]int, expr.BlockSize)
	}
	return w
}

// retained is the memory the worker's accumulators hold.
func (w *scanWorker) retained() int64 {
	if w.h != nil {
		return hashAccBytes(w.h)
	}
	return int64(len(w.acc))*8 + int64(len(w.seen))
}

// hashAccBytes is the memory h holds, counted as the join workers do.
func hashAccBytes(h *hashAcc) int64 {
	return int64(cap(h.tokens))*8 + int64(cap(h.aggs))*8 + int64(cap(h.slots))*4 + int64(cap(h.dense))*4
}

// fold folds rows [lo, hi) block by block, checking ctx and charging
// the accumulators (and a hash table's growth) to mem every
// scanCtxStride rows.
func (w *scanWorker) fold(lo, hi int, ctx context.Context, mem *governor.Accountant) error {
	var charged int64
	for blk := lo; blk < hi; blk += expr.BlockSize {
		if (blk-lo)%scanCtxStride == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if ret := w.retained(); ret > charged {
				if err := mem.Charge(ret - charged); err != nil {
					return err
				}
				charged = ret
			}
		}
		w.block(blk, min(blk+expr.BlockSize, hi))
	}
	return nil
}

// block folds rows [lo, hi) (at most expr.BlockSize). Once the worker is
// bound it allocates nothing, except a group table growing for new groups.
func (w *scanWorker) block(lo, hi int) {
	s := w.s
	rows := expr.Rows(w.ids, lo, hi)
	for _, col := range s.touch {
		for _, r := range rows {
			w.sink += col[r]
		}
	}
	if w.sel != nil {
		if rows = w.sel(rows, w.ids); len(rows) == 0 {
			return
		}
	}
	for i, v := range w.vals {
		v(rows, w.lv[i])
	}
	switch {
	case len(s.keys) == 0:
		w.foldRow(len(rows))
	case s.size > 0:
		w.foldDense(rows)
	default:
		w.foldHash(rows)
	}
}

// foldRow folds m qualifying rows into the ungrouped accumulators, row
// by row in ascending order.
func (w *scanWorker) foldRow(m int) {
	w.seen[0] = true
	for fi, f := range w.s.folds {
		acc := w.acc[fi]
		switch f.kind {
		case planner.AggCount:
			acc += float64(m) // integer-valued: equal to m single increments
		case planner.AggSum:
			for _, v := range w.lv[f.leaf][:m] {
				acc += v
			}
		default:
			for _, v := range w.lv[f.leaf][:m] {
				acc = combine1(f.kind, acc, v)
			}
		}
		w.acc[fi] = acc
	}
}

// foldDense folds the qualifying rows into the dense group table, one
// fold at a time, each group's rows in ascending order.
func (w *scanWorker) foldDense(rows []int32) {
	s := w.s
	gc := w.gcode[:len(rows)]
	clear(gc)
	for g, codes := range s.keys {
		st := s.strides[g]
		for i, r := range rows {
			gc[i] += int(codes[r]) * st
		}
	}
	for _, c := range gc {
		w.seen[c] = true
	}
	nF := len(s.folds)
	for fi, f := range s.folds {
		acc := w.acc[fi:]
		if f.kind == planner.AggCount {
			for _, c := range gc {
				acc[c*nF]++
			}
			continue
		}
		vs := w.lv[f.leaf]
		for i, c := range gc {
			acc[c*nF] = combine1(f.kind, acc[c*nF], vs[i])
		}
	}
}

// foldHash folds the qualifying rows into the group table. Each value is
// first combined into its fold's identity, so a group's first row lands
// exactly as every later row combines.
func (w *scanWorker) foldHash(rows []int32) {
	s := w.s
	for i, r := range rows {
		for g, codes := range s.keys {
			w.toks[g] = uint64(codes[r])
		}
		for fi, f := range s.folds {
			v := 1.0
			if f.kind != planner.AggCount {
				v = w.lv[f.leaf][i]
			}
			w.tv[fi] = combine1(f.kind, w.id[fi], v)
		}
		w.h.add(w.toks, w.tv)
	}
}

// merge combines the workers' partials in thread order into the output
// rows: groups in ascending code-tuple order with empty min/max zeroed
// (an ungrouped aggregate always has its one row). The merged table is
// charged to mem.
func (s *scan) merge(ws []*scanWorker, mem *governor.Accountant) (*rowsBuf, error) {
	nF, nG := len(s.folds), len(s.keys)
	out := getRowsBuf(nG, len(s.slot))
	row := make([]float64, len(s.slot))
	key := make([]uint32, nG)
	emit := func(folds []float64) {
		for ai, fi := range s.slot {
			row[ai] = folds[fi]
		}
		zeroAccToFinal(s.c.root, row)
		out.appendRow(key, row)
	}
	if s.size > 0 {
		if err := mem.Charge(int64(s.size) * int64(8*nF+1)); err != nil {
			releaseRows(out)
			return nil, err
		}
		acc := make([]float64, s.size*nF)
		seen := make([]bool, s.size)
		for g := range seen {
			resetAcc(s.fnode, acc[g*nF:(g+1)*nF])
		}
		for _, w := range ws {
			if w == nil {
				continue
			}
			for g, ok := range w.seen {
				if ok {
					seen[g] = true
					combineAcc(s.fnode, acc[g*nF:(g+1)*nF], w.acc[g*nF:(g+1)*nF])
				}
			}
		}
		seen[0] = seen[0] || nG == 0
		for g, ok := range seen {
			if !ok {
				continue
			}
			rem := g
			for k, st := range s.strides {
				key[k] = uint32(rem / st)
				rem %= st
			}
			emit(acc[g*nF : (g+1)*nF])
		}
		return out, nil
	}
	h := newHashAcc(s.fnode)
	for _, w := range ws {
		if w != nil {
			h.merge(w.h)
		}
	}
	if err := mem.Charge(hashAccBytes(h)); err != nil {
		releaseRows(out)
		return nil, err
	}
	order := make([]int, h.n())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := h.tokens[order[a]*nG:], h.tokens[order[b]*nG:]
		for k := 0; k < nG; k++ {
			if ta[k] != tb[k] {
				return ta[k] < tb[k]
			}
		}
		return false
	})
	for _, gi := range order {
		for k := range key {
			key[k] = uint32(h.tokens[gi*nG+k])
		}
		emit(h.aggs[gi*nF : (gi+1)*nF])
	}
	return out, nil
}
