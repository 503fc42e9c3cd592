package exec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/dict"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/qerr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// scanCtxStride is the scan's cancellation granularity in rows: cheap
// relative to the per-row work, frequent enough to stop a long fold
// promptly. A multiple of expr.BlockSize.
const scanCtxStride = 8192

// scan is a compiled single-relation aggregate (plan.ScalarScan: the
// relation is filtered, ungrouped or counts distinct values): a fold over
// the base columns with no trie — the |V| = 0 base case of the recursion.
// Each thread folds its static chunk block by block (select, evaluate the
// leaf vectors, fold into its own accumulators); partials merge in
// thread order. Chunk bounds depend only on the row and thread counts,
// so a result is reproducible bit for bit across compaction and
// recovery.
type scan struct {
	c      *compiled  // root node and group decoders, as assemble reads them
	n      int        // candidate rows
	rows   []int32    // ascending candidate row ids; nil: rows [0, n)
	filter *expr.Pred // nil: every row qualifies
	leaves *expr.Nums // distinct aggregate argument expressions, one set
	// folds are the distinct (kind, leaf) accumulations — sum(x) under
	// avg(x) and every count(*) fold once — and slot maps each plan
	// aggregate to its fold. fnode carries the folds' kinds for the
	// shared accumulator helpers. The first plain folds accumulate row by
	// row; the rest are the count slots of distinct, filled at merge.
	folds []scanFold
	plain int
	slot  []int
	fnode *cNode
	// The plain folds by kind, for the dense table's per-group pass.
	sums, counts, minmax []int
	// distinct has one entry per COUNT(DISTINCT x) column.
	distinct []scanDistinct
	// keys holds the code column of each group vertex, in group order,
	// indexed by row id, or under a candidate list by position in rows.
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

// scanDistinct is one COUNT(DISTINCT x) and the layout of the set of
// (group codes…, x token) tuples each worker collects; a group's count
// is its number of tuples. x's token is its dictionary code for a key or
// string column, or for a numeric annotation its dict.CanonFloatBits, so
// counting builds no code space over the column.
type scanDistinct struct {
	codes  []uint32  // key or string: codes, indexed like the scan's keys
	floats []float64 // numeric annotation: values, by row id
	set    *cNode    // hgroups: the group domains, then x's; no aggregates
	fold   int
}

// RunScan folds a single-relation aggregate plan with the block scan —
// Run's path for plan.ScalarScan — over the ascending row ids in rows,
// or over every row when rows is nil. Its output has one row per group
// in ascending code-tuple order (the order the join path emits), or one
// row for an ungrouped aggregate.
func RunScan(p *planner.Plan, cat *storage.Catalog, opts Options, rows []int32) (*Result, error) {
	st := opts.Stats
	tr := stTrace(st)
	if st != nil {
		st.Dispatch = obs.DispatchScalarScan
	}
	t0 := time.Now()
	es := tr.Begin(tr.Root(), obs.SpanPhase, "execute")
	ks := tr.Begin(es, obs.SpanKernel, obs.DispatchScalarScan)
	s, out, err := foldScan(p, cat, opts, rows)
	tr.End(ks)
	tr.End(es)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.Phases.Execute = time.Since(t0)
	}
	return s.c.output(out, nil)
}

// foldScan compiles the scan, folds every thread's chunk and merges the
// partials into output rows.
func foldScan(p *planner.Plan, cat *storage.Catalog, opts Options, rows []int32) (*scan, *rowsBuf, error) {
	s, err := compileScan(p, cat, opts, rows)
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
	out, err := s.merge(ws, opts.Mem)
	if err != nil {
		return nil, nil, err
	}
	return s, out, nil
}

// compileScan resolves the relation's predicate, aggregate leaves and
// group code columns, and the group decoders over a root node whose
// materialized key is the group vertices in group order.
func compileScan(p *planner.Plan, cat *storage.Catalog, opts Options, rows []int32) (*scan, error) {
	if len(p.Rels) != 1 {
		return nil, fmt.Errorf("exec: scan requires one relation")
	}
	r := &p.Rels[0]
	tb := opts.table(r.Table)
	binding := &expr.Binding{Alias: r.Alias, Table: tb}
	root := &cNode{order: p.OutVertices, nLevels: len(p.OutVertices), matCount: len(p.OutVertices)}
	c := &compiled{p: p, cat: cat, opts: opts, root: root, pseudo: map[string]*pseudoDecoder{}}
	s := &scan{c: c, n: tb.NumRows, rows: rows, fnode: &cNode{}}
	if rows != nil {
		s.n = len(rows)
	}

	if r.Filter != nil {
		f, err := expr.CompilePred(r.Filter, binding)
		if err != nil {
			return nil, err
		}
		s.filter = f
	}

	addFold := func(f scanFold) int {
		s.folds = append(s.folds, f)
		s.fnode.aggs = append(s.fnode.aggs, cAgg{kind: f.kind})
		s.fnode.aggKinds = append(s.fnode.aggKinds, f.kind)
		return len(s.folds) - 1
	}

	// Aggregates: a single relation's aggregate argument is one leaf
	// expression or a constant (§IV-A rule 3), evaluated per qualifying
	// row. Identical arguments share one vector, identical folds one
	// accumulator, and the leaves compile as one set, so a subtree that
	// is itself a leaf (price * (1 - disc) under price * (1 - disc) *
	// (1 + tax)) is computed once. Distinct counts take the folds after
	// the plain ones.
	leafOf := map[string]int{}
	var leaves []sqlparse.Expr
	foldOf := map[scanFold]int{}
	var distinct []int
	for ai := range p.Aggs {
		spec := &p.Aggs[ai]
		root.aggs = append(root.aggs, cAgg{kind: spec.Kind, skel: spec.Skeleton})
		s.slot = append(s.slot, -1)
		if spec.Distinct {
			distinct = append(distinct, ai)
			continue
		}
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
				li = len(leaves)
				leafOf[key] = li
				leaves = append(leaves, e)
			}
			f.leaf = li
		}
		fi, ok := foldOf[f]
		if !ok {
			fi = addFold(f)
			foldOf[f] = fi
			switch f.kind {
			case planner.AggSum:
				s.sums = append(s.sums, fi)
			case planner.AggCount:
				s.counts = append(s.counts, fi)
			default:
				s.minmax = append(s.minmax, fi)
			}
		}
		s.slot[ai] = fi
	}
	s.plain = len(s.folds)
	var err error
	if s.leaves, err = expr.CompileNums(leaves, binding); err != nil {
		return nil, err
	}

	// Group code columns and their code-space sizes.
	for _, v := range p.OutVertices {
		codes, dom, err := s.codeColumn(r, tb, r.VertexCol[v])
		if err != nil {
			return nil, err
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

	// Distinct counts: one tuple set per counted column.
	distinctOf := map[string]int{}
	for _, ai := range distinct {
		name := p.Aggs[ai].Leaves[0].Expr.(sqlparse.ColRef).Name
		fi, ok := distinctOf[name]
		if !ok {
			var d scanDistinct
			dom := 0 // a float token's domain is unknown: open addressing
			if col := tb.Col(name); col != nil && numericAnn(col) {
				d.floats = col.AnnFloats()
			} else {
				var err error
				if d.codes, dom, err = s.codeColumn(r, tb, name); err != nil {
					return nil, err
				}
			}
			d.fold = addFold(scanFold{kind: planner.AggCount, leaf: -1})
			d.set = &cNode{hgroups: append(slices.Clip(s.fnode.hgroups), hashGroup{domain: dom})}
			fi = d.fold
			distinctOf[name] = fi
			s.distinct = append(s.distinct, d)
		}
		s.slot[ai] = fi
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

// codeColumn returns the code column of a group or distinct-counted
// column, indexed like the candidates (by row id, or by position in
// s.rows), and the size of its code space. A numeric annotation is
// encoded over the candidates alone, so a scan of a few sampled rows
// does work in their number; its decoder is kept for the group decoders.
func (s *scan) codeColumn(r *planner.RelInfo, tb *storage.Table, name string) ([]uint32, int, error) {
	col := tb.Col(name)
	if col == nil {
		return nil, 0, fmt.Errorf("exec: scan column %s is not a column of %s", name, r.Alias)
	}
	if numericAnn(col) {
		codes, dec := pseudoEncode(col, s.rows)
		s.c.pseudo[name] = dec
		return codes, max(1, len(dec.numVals)), nil
	}
	codes, err := s.c.keyCodesFor(r, col)
	if err != nil {
		return nil, 0, err
	}
	return gatherU32(codes, s.rows), max(1, col.Dict().Len()), nil
}

// numericAnn reports whether col is an int, date or float annotation.
func numericAnn(col *storage.Column) bool {
	return col.Def.Role != storage.Key && col.Def.Kind != storage.String
}

// scanWorker is one thread's bound kernels, block scratch and
// accumulators: a dense table of groups × folds, or a hashAcc, plus one
// tuple set per distinct count.
type scanWorker struct {
	s    *scan
	sel  expr.Sel    // nil when unfiltered
	vals expr.Vecs   // the leaf set
	lv   [][]float64 // per leaf: its vector over the block's qualifying rows
	ids  []int32     // the block's candidate, then qualifying, row ids
	pos  []int32     // under a candidate list: the qualifying rows' positions

	acc  []float64 // dense: size × folds
	seen []bool    // dense: group touched

	// Dense, grouped: each block's qualifying rows partitioned by group
	// cell. cnt is zero between blocks.
	cell  []int32     // per qualifying row: its cell
	cnt   []int32     // per cell: its rows, then its end in part
	cells []int32     // the cells the block touches, in first-touch order
	part  []int32     // qualifying row indexes, by cell, ascending in each
	sumv  [][]float64 // per scan.sums: its leaf vector

	h    *hashAcc
	toks []uint64  // hash: the row's group codes
	tv   []float64 // hash: the row's fold values; distinct slots stay 0
	id   []float64 // hash: fold identities

	dsets []*hashAcc // per scan.distinct: the tuples seen
	dtoks []uint64   // a row's group codes, then its counted code

	sink float64 // NoAttrElim column touches land here
}

func (s *scan) newWorker() *scanWorker {
	nF := len(s.folds)
	w := &scanWorker{s: s, ids: make([]int32, expr.BlockSize)}
	if s.rows != nil {
		w.pos = make([]int32, expr.BlockSize)
	}
	if s.filter != nil {
		w.sel = s.filter.Bind()
	}
	w.vals = s.leaves.Bind()
	for range s.leaves.Len() {
		w.lv = append(w.lv, make([]float64, expr.BlockSize))
	}
	for _, d := range s.distinct {
		w.dsets = append(w.dsets, newHashAcc(d.set))
		w.dtoks = make([]uint64, len(s.keys)+1)
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
		w.cell = make([]int32, expr.BlockSize)
		w.cnt = make([]int32, s.size)
		w.cells = make([]int32, 0, min(s.size, expr.BlockSize))
		w.part = make([]int32, expr.BlockSize)
		for _, fi := range s.sums {
			w.sumv = append(w.sumv, w.lv[s.folds[fi].leaf])
		}
	}
	return w
}

// retained is the memory the worker's accumulators hold.
func (w *scanWorker) retained() int64 {
	n := int64(len(w.acc))*8 + int64(len(w.seen))
	if w.h != nil {
		n = hashAccBytes(w.h)
	}
	for _, d := range w.dsets {
		n += hashAccBytes(d)
	}
	return n
}

// hashAccBytes is the memory h holds: a scan's tables are never pooled,
// so all of their capacity is this query's.
func hashAccBytes(h *hashAcc) int64 {
	return int64(cap(h.tokens))*8 + int64(cap(h.aggs))*8 + int64(cap(h.slots))*4 + int64(cap(h.dense))*4
}

// fold folds rows [lo, hi) block by block, checking ctx and charging
// the accumulators' growth to mem every scanCtxStride rows and at the
// end, so the charge is what the worker finally holds.
func (w *scanWorker) fold(lo, hi int, ctx context.Context, mem *governor.Accountant) error {
	var charged int64
	charge := func() error {
		ret := w.retained()
		if ret <= charged {
			return nil
		}
		err := mem.Charge(ret - charged)
		charged = ret
		return err
	}
	for blk := lo; blk < hi; blk += expr.BlockSize {
		if (blk-lo)%scanCtxStride == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := charge(); err != nil {
				return err
			}
		}
		w.block(blk, min(blk+expr.BlockSize, hi))
	}
	return charge()
}

// block folds candidates [lo, hi) (at most expr.BlockSize). Once the
// worker is bound it allocates nothing, except a group table or tuple
// set growing for new entries.
func (w *scanWorker) block(lo, hi int) {
	s := w.s
	var rows []int32
	if s.rows != nil {
		rows = w.ids[:copy(w.ids, s.rows[lo:hi])]
	} else {
		rows = expr.Rows(w.ids, lo, hi)
	}
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
	w.vals(rows, w.lv)
	// at indexes the code columns: the row ids, or under a candidate list
	// each qualifying row's position in it (both lists ascend).
	at := rows
	if s.rows != nil {
		at = w.pos[:len(rows)]
		j := lo
		for i, r := range rows {
			for s.rows[j] != r {
				j++
			}
			at[i] = int32(j)
		}
	}
	switch {
	case len(s.keys) == 0:
		w.foldRow(len(rows))
	case s.size > 0:
		w.foldDense(at)
	default:
		w.foldHash(at)
	}
	if len(s.distinct) > 0 {
		w.foldDistinct(rows, at)
	}
}

// foldRow folds m qualifying rows into the ungrouped accumulators, row
// by row in ascending order.
func (w *scanWorker) foldRow(m int) {
	w.seen[0] = true
	for fi, f := range w.s.folds[:w.s.plain] {
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

// foldDense folds the qualifying rows (their code indexes at) into the
// dense group table. A stable counting sort partitions the rows by
// group cell; then each touched group folds its rows in ascending
// order with its accumulators in registers (foldCell), so every group
// sees the additions of a row-by-row fold in the same order, and every
// bit of the result is the row-by-row fold's.
func (w *scanWorker) foldDense(at []int32) {
	s := w.s
	cell := w.cell[:len(at)]
	for g, codes := range s.keys {
		st := int32(s.strides[g])
		if g == 0 {
			for i, r := range at {
				cell[i] = int32(codes[r]) * st
			}
			continue
		}
		for i, r := range at {
			cell[i] += int32(codes[r]) * st
		}
	}
	cnt, cells := w.cnt, w.cells[:0]
	for _, c := range cell {
		if cnt[c] == 0 {
			cells = append(cells, c)
		}
		cnt[c]++
	}
	var end int32
	for _, c := range cells {
		n := cnt[c]
		cnt[c] = end
		end += n
	}
	for i, c := range cell {
		w.part[cnt[c]] = int32(i)
		cnt[c]++
	}
	var begin int32
	for _, c := range cells {
		end := cnt[c]
		cnt[c] = 0
		w.seen[c] = true
		w.foldCell(int(c), w.part[begin:end])
		begin = end
	}
}

// foldCell folds one group's rows — ps, their ascending positions in the
// block's leaf vectors — into its accumulators, held in locals: a count
// adds len(ps) (integer-valued, as foldRow's), sums go four to a pass as
// independent chains, and min/max combine in row order.
func (w *scanWorker) foldCell(c int, ps []int32) {
	s := w.s
	nF := len(s.folds)
	acc := w.acc[c*nF : (c+1)*nF]
	for _, fi := range s.counts {
		acc[fi] += float64(len(ps))
	}
	sums, vs := s.sums, w.sumv
	for ; len(sums) >= 4; sums, vs = sums[4:], vs[4:] {
		a0, a1, a2, a3 := acc[sums[0]], acc[sums[1]], acc[sums[2]], acc[sums[3]]
		v0, v1 := (*[expr.BlockSize]float64)(vs[0]), (*[expr.BlockSize]float64)(vs[1])
		v2, v3 := (*[expr.BlockSize]float64)(vs[2]), (*[expr.BlockSize]float64)(vs[3])
		for _, p := range ps {
			p &= expr.BlockSize - 1
			a0 += v0[p]
			a1 += v1[p]
			a2 += v2[p]
			a3 += v3[p]
		}
		acc[sums[0]], acc[sums[1]], acc[sums[2]], acc[sums[3]] = a0, a1, a2, a3
	}
	if len(sums) >= 2 {
		a0, a1 := acc[sums[0]], acc[sums[1]]
		v0, v1 := (*[expr.BlockSize]float64)(vs[0]), (*[expr.BlockSize]float64)(vs[1])
		for _, p := range ps {
			p &= expr.BlockSize - 1
			a0 += v0[p]
			a1 += v1[p]
		}
		acc[sums[0]], acc[sums[1]] = a0, a1
		sums, vs = sums[2:], vs[2:]
	}
	if len(sums) == 1 {
		a0 := acc[sums[0]]
		v0 := (*[expr.BlockSize]float64)(vs[0])
		for _, p := range ps {
			a0 += v0[p&(expr.BlockSize-1)]
		}
		acc[sums[0]] = a0
	}
	for _, fi := range s.minmax {
		f := s.folds[fi]
		a, v := acc[fi], w.lv[f.leaf]
		for _, p := range ps {
			a = combine1(f.kind, a, v[p])
		}
		acc[fi] = a
	}
}

// foldHash folds the qualifying rows (their code indexes at) into the
// group table. Each value is first combined into its fold's identity, so
// a group's first row lands exactly as every later row combines.
func (w *scanWorker) foldHash(at []int32) {
	s := w.s
	for i, r := range at {
		for g, codes := range s.keys {
			w.toks[g] = uint64(codes[r])
		}
		for fi, f := range s.folds[:s.plain] {
			v := 1.0
			if f.kind != planner.AggCount {
				v = w.lv[f.leaf][i]
			}
			w.tv[fi] = combine1(f.kind, w.id[fi], v)
		}
		w.h.add(w.toks, w.tv)
	}
}

// foldDistinct adds each qualifying row's (group codes…, counted token)
// tuple to the set of every distinct count; at holds the rows' code
// indexes.
func (w *scanWorker) foldDistinct(rows, at []int32) {
	s := w.s
	nG := len(s.keys)
	for di, d := range s.distinct {
		set := w.dsets[di]
		for i, r := range rows {
			for g, codes := range s.keys {
				w.dtoks[g] = uint64(codes[at[i]])
			}
			if d.floats != nil {
				w.dtoks[nG] = dict.CanonFloatBits(d.floats[r])
			} else {
				w.dtoks[nG] = uint64(d.codes[at[i]])
			}
			set.add(w.dtoks, nil)
		}
	}
}

// merge combines the workers' partials in thread order into the output
// rows: groups in ascending code-tuple order with empty min/max zeroed
// (an ungrouped aggregate always has its one row). A distinct count adds
// 1 to its group's slot per tuple in the union of the workers' sets.
// The merged table and sets are charged to mem.
func (s *scan) merge(ws []*scanWorker, mem *governor.Accountant) (*rowsBuf, error) {
	nF, nG := len(s.folds), len(s.keys)
	sets := make([]*hashAcc, len(s.distinct))
	for di, d := range s.distinct {
		sets[di] = newHashAcc(d.set)
		for _, w := range ws {
			if w != nil {
				sets[di].merge(w.dsets[di])
			}
		}
		if err := mem.Charge(hashAccBytes(sets[di])); err != nil {
			return nil, err
		}
	}
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
		for di, set := range sets {
			fi := s.distinct[di].fold
			for t := range set.n() {
				g := 0
				for k, st := range s.strides {
					g += int(set.tokens[t*(nG+1)+k]) * st
				}
				acc[g*nF+fi]++
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
	for di, set := range sets {
		// The tuple's group exists, so adding identities elsewhere leaves
		// every other fold as it is.
		inc := make([]float64, nF)
		resetAcc(s.fnode, inc)
		inc[s.distinct[di].fold] = 1
		for t := range set.n() {
			h.add(set.tokens[t*(nG+1):t*(nG+1)+nG], inc)
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
