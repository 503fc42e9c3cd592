package exec

import (
	"sync"

	"repro/internal/costopt"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/qerr"
	"repro/internal/trie"
)

// trySpMVFastPath recognizes the two-relation matrix–vector pattern —
// a 2-level trie joined with a 1-level trie on one attribute under a
// single SUM of a leaf product — and runs it with direct slice loops.
//
// The paper's engine code-generates exactly this loop nest from the
// WCOJ plan; an interpreter pays per-element closure and rank-lookup
// costs that a generated kernel does not, so this specialization is the
// interpreter's stand-in for code generation. Both attribute orders the
// §V optimizer can pick are implemented: the gather kernel for
// [i, j] (CSR-style row dot products) and the scatter kernel for the
// relaxed [j, i] order (column-wise accumulation under the 1-attribute
// union). Anything unexpected falls back to the generic engine.
func trySpMVFastPath(c *compiled, opts Options) (*Result, bool, error) {
	n := c.root
	if len(n.children) != 0 || len(n.rels) != 2 || len(n.aggs) != 1 || n.hashEmit {
		return nil, false, nil
	}
	ca := &n.aggs[0]
	if ca.kind != planner.AggSum || len(ca.multRels) != 0 || ca.skel == nil {
		return nil, false, nil
	}
	sk := ca.skel
	if sk.Op != planner.EmitMul || sk.L.Op != planner.EmitLeaf || sk.R.Op != planner.EmitLeaf {
		return nil, false, nil
	}
	if len(ca.leafRels) != 2 || ca.leafRels[0] == ca.leafRels[1] {
		return nil, false, nil
	}
	// A binary-path node stays on the generic recursion.
	if n.path == costopt.PathBinary {
		return nil, false, nil
	}
	n.bind()
	// Identify matrix (2 levels) and vector (1 level).
	var mRel, vRel *cRel
	var mBuf, vBuf []float64
	for li, rp := range ca.leafRels {
		cr := n.rels[rp]
		switch len(cr.attrs) {
		case 2:
			mRel, mBuf = cr, ca.leafBufs[li]
		case 1:
			vRel, vBuf = cr, ca.leafBufs[li]
		}
	}
	if mRel == nil || vRel == nil {
		return nil, false, nil
	}
	// One group item: the matrix's output attribute, as a plain vertex.
	if len(c.groups) != 1 || c.groups[0].item.Kind != planner.GroupVertex {
		return nil, false, nil
	}

	switch {
	case !n.relaxed && n.matCount == 1 &&
		n.order[0] == mRel.attrs[0] && n.order[1] == mRel.attrs[1] && vRel.attrs[0] == mRel.attrs[1]:
		return spmvGather(c, opts, mRel, vRel, mBuf, vBuf)
	case n.relaxed && n.nLevels == 2 &&
		n.order[0] == mRel.attrs[0] && n.order[1] == mRel.attrs[1] && vRel.attrs[0] == mRel.attrs[0]:
		return spmvScatter(c, opts, mRel, vRel, mBuf, vBuf)
	}
	return nil, false, nil
}

// spmvGather runs order [i, j]: the matrix trie is CSR-shaped (rows i,
// columns j); each output row is a dot product against the vector.
// Requires the vector's run to be its whole code domain so values
// index directly; otherwise falls back.
func spmvGather(c *compiled, opts Options, m, v *cRel, mBuf, vBuf []float64) (*Result, bool, error) {
	if !isDomain(v.ix, c.vertexDomainSize(v.attrs[0])) {
		return nil, false, nil
	}
	rows, _ := m.ix.Run(0, 0)
	nRows := len(rows)
	outVals := make([]float64, nRows)

	if opts.Stats != nil {
		opts.Stats.Dispatch = obs.DispatchSpMVGather
	}
	tr := stTrace(opts.Stats)
	ks := tr.Begin(c.execSpan, obs.SpanKernel, obs.DispatchSpMVGather)
	defer tr.End(ks)
	threads := opts.threads()
	parallelRange(threads, nRows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			kids, base := m.ix.Run(1, int32(r))
			sum := 0.0
			for idx, j := range kids {
				sum += mBuf[base+int32(idx)] * vBuf[j]
			}
			outVals[r] = sum
		}
	})
	return spmvResult(c, rows, outVals)
}

// spmvScatter runs the relaxed order [j, i]: iterate shared j in the
// matrix-transpose trie, scatter x_j-scaled columns into a dense
// accumulator over i (the 1-attribute union), merging per-worker
// accumulators.
func spmvScatter(c *compiled, opts Options, m, v *cRel, mBuf, vBuf []float64) (*Result, bool, error) {
	if !isDomain(v.ix, c.vertexDomainSize(v.attrs[0])) {
		return nil, false, nil
	}
	dom := c.root.lastDomain
	if dom <= 0 {
		return nil, false, nil
	}
	js, _ := m.ix.Run(0, 0)

	if opts.Stats != nil {
		opts.Stats.Dispatch = obs.DispatchSpMVScatter
	}
	tr := stTrace(opts.Stats)
	ks := tr.Begin(c.execSpan, obs.SpanKernel, obs.DispatchSpMVScatter)
	defer tr.End(ks)
	threads := opts.threads()
	accs := make([][]float64, threads)
	touches := make([][]bool, threads)
	var mu sync.Mutex
	parallelRangeID(threads, len(js), func(id, lo, hi int) {
		acc := make([]float64, dom)
		touch := make([]bool, dom)
		for r := lo; r < hi; r++ {
			x := vBuf[js[r]]
			kids, base := m.ix.Run(1, int32(r))
			for idx, i := range kids {
				acc[i] += mBuf[base+int32(idx)] * x
				touch[i] = true
			}
		}
		mu.Lock()
		accs[id] = acc
		touches[id] = touch
		mu.Unlock()
	})
	final := make([]float64, dom)
	touched := make([]bool, dom)
	for t, acc := range accs {
		if acc == nil {
			continue
		}
		for i, a := range acc {
			final[i] += a
			touched[i] = touched[i] || touches[t][i]
		}
	}
	// Union semantics: emit exactly the groups that received a tuple.
	rows := make([]uint32, 0, dom)
	vals := make([]float64, 0, dom)
	for i, hit := range touched {
		if hit {
			rows = append(rows, uint32(i))
			vals = append(vals, final[i])
		}
	}
	return spmvResult(c, rows, vals)
}

// isDomain reports whether the vector trie's one level is exactly the
// codes [0, dom), so its values index the dense leaf buffer directly.
func isDomain(v *trie.Lazy, dom int) bool {
	vals, _ := v.Run(0, 0)
	return dom > 0 && len(vals) == dom && vals[0] == 0 && int(vals[dom-1]) == dom-1
}

// spmvResult assembles the (key, value) columns in SELECT order.
func spmvResult(c *compiled, rows []uint32, vals []float64) (*Result, bool, error) {
	g := &c.groups[0]
	iCol := &Column{Name: colNameFor(c, g), Kind: g.outKind}
	switch g.outKind {
	case KindString:
		iCol.Str = make([]string, len(rows))
		for r, code := range rows {
			iCol.Str[r] = g.domain.DecodeString(code)
		}
	default:
		iCol.Kind = KindInt
		iCol.I64 = make([]int64, len(rows))
		for r, code := range rows {
			iCol.I64[r] = g.domain.DecodeInt(code)
		}
	}
	vCol := &Column{Name: aggName(c), Kind: KindFloat, F64: vals}
	res := &Result{NumRows: len(rows)}
	res.Cols = orderOutputs(c, g, nil, iCol, nil, vCol)
	return res, true, nil
}

// parallelRange splits [0, n) across workers.
func parallelRange(threads, n int, f func(lo, hi int)) {
	parallelRangeID(threads, n, func(_, lo, hi int) { f(lo, hi) })
}

func parallelRangeID(threads, n int, f func(id, lo, hi int)) {
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		f(0, 0, n)
		return
	}
	chunk := (n + threads - 1) / threads
	var wg sync.WaitGroup
	var pc qerr.PanicCell
	for t := 0; t < threads; t++ {
		lo, hi := t*chunk, (t+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(t, lo, hi int) {
			defer wg.Done()
			defer pc.Recover()
			f(t, lo, hi)
		}(t, lo, hi)
	}
	wg.Wait()
	// A panic in any chunk re-raises on the caller's goroutine, where the
	// query-boundary barrier converts it to a qerr.InternalError.
	pc.Repanic()
}
