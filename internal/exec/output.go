package exec

import (
	"fmt"
	"math"

	"repro/internal/faultinject"
	"repro/internal/planner"
	"repro/internal/sqlparse"
)

// assemble turns the root node's (key, aggregates) rows into the final
// result: group items are decoded (through the metadata container for
// GroupMeta items), groups that map to the same final key are merged by
// aggregate kind, and SELECT-level arithmetic over aggregates is
// evaluated.
func assemble(c *compiled, rows *rowsBuf) (*Result, error) {
	faultinject.Fire(faultinject.PointExecOutput)
	root := c.root
	n := rows.n()

	// Charge result assembly: the Result copies every row out of the
	// pooled buffer into fresh columns (~16 bytes per cell is a safe
	// upper bound across int64/float64/string columns).
	if c.opts.Mem != nil {
		est := int64(n) * int64(len(c.groups)+len(c.root.aggs)) * 16
		if err := c.opts.Mem.Charge(est); err != nil {
			return nil, err
		}
	}

	// Direct mode: every group item reads a distinct key position and
	// the key positions are exactly covered — stage-1 groups are final.
	direct := true
	usedPos := map[int]bool{}
	for _, g := range c.groups {
		if g.item.Kind == planner.GroupMeta {
			direct = false
			break
		}
		if usedPos[g.pos] {
			direct = false
			break
		}
		usedPos[g.pos] = true
	}
	if direct && len(usedPos) != rows.kWidth {
		direct = false
	}

	if !direct {
		// Hash-merge stage: group rows by their item tokens — key codes,
		// and GroupMeta tokens loaded from the token columns — in order of
		// first appearance.
		h := &hashAcc{nG: len(c.groups), nA: len(root.aggs), kinds: root.aggKinds,
			slots: make([]int32, minAccSlots), mask: minAccSlots - 1}
		toks := make([]uint64, len(c.groups))
		for r := 0; r < n; r++ {
			key := rows.keys[r*rows.kWidth : (r+1)*rows.kWidth]
			for gi := range c.groups {
				g := &c.groups[gi]
				code := key[g.pos]
				if g.item.Kind != planner.GroupMeta {
					toks[gi] = uint64(code)
					continue
				}
				tok, ok := metaTok(g.toks, code)
				if !ok {
					return nil, fmt.Errorf("exec: no metadata row for %s code %d", g.item.Vertex, code)
				}
				toks[gi] = tok
			}
			h.add(toks, rows.aggs[r*h.nA:(r+1)*h.nA])
		}
		return finishHash(c, h)
	}

	reprRows := make([]int, n)
	for r := range reprRows {
		reprRows[r] = r
	}
	aggVals := rows.aggs
	nAggs := len(root.aggs)

	// HAVING: filter final groups on their aggregate values.
	if c.p.Having != nil {
		keptRows := reprRows[:0]
		keptAggs := aggVals[:0:0]
		for i, r := range reprRows {
			if evalHaving(c.p.Having, aggVals[i*nAggs:(i+1)*nAggs]) {
				keptRows = append(keptRows, r)
				keptAggs = append(keptAggs, aggVals[i*nAggs:(i+1)*nAggs]...)
			}
		}
		reprRows = keptRows
		aggVals = keptAggs
	}

	nOut := len(reprRows)
	res := &Result{NumRows: nOut}
	for _, o := range c.p.Outputs {
		col := &Column{Name: o.Name}
		switch o.Kind {
		case planner.OutGroup:
			g := &c.groups[o.Index]
			decodeGroupColumn(g, col, rows.keys, rows.kWidth, g.pos, reprRows)
		case planner.OutAgg:
			col.Kind = KindFloat
			col.F64 = make([]float64, nOut)
			for i := 0; i < nOut; i++ {
				col.F64[i] = aggVals[i*nAggs+o.Index]
			}
		case planner.OutAggExpr:
			col.Kind = KindFloat
			col.F64 = make([]float64, nOut)
			for i := 0; i < nOut; i++ {
				col.F64[i] = evalAggExpr(o.Expr, aggVals[i*nAggs:(i+1)*nAggs])
			}
		}
		res.Cols = append(res.Cols, col)
	}
	return res, nil
}

// evalHaving evaluates the HAVING predicate on one group's final
// aggregate values.
func evalHaving(h *planner.HavingNode, aggs []float64) bool {
	switch h.Op {
	case "and":
		return evalHaving(h.L, aggs) && evalHaving(h.R, aggs)
	case "or":
		return evalHaving(h.L, aggs) || evalHaving(h.R, aggs)
	case "not":
		return !evalHaving(h.L, aggs)
	}
	l := evalAggExpr(h.LE, aggs)
	r := evalAggExpr(h.RE, aggs)
	switch h.Op {
	case "=":
		return l == r
	case "<>":
		return l != r
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	}
	return false
}

// evalAggExpr evaluates a SELECT-level skeleton whose leaves index the
// final aggregate values.
func evalAggExpr(e *planner.EmitNode, aggs []float64) float64 {
	switch e.Op {
	case planner.EmitLeaf:
		return aggs[e.Leaf]
	case planner.EmitConst:
		return e.Const
	case planner.EmitAdd:
		return evalAggExpr(e.L, aggs) + evalAggExpr(e.R, aggs)
	case planner.EmitSub:
		return evalAggExpr(e.L, aggs) - evalAggExpr(e.R, aggs)
	case planner.EmitMul:
		return evalAggExpr(e.L, aggs) * evalAggExpr(e.R, aggs)
	case planner.EmitDiv:
		return evalAggExpr(e.L, aggs) / evalAggExpr(e.R, aggs)
	case planner.EmitMulInd:
		if l := evalAggExpr(e.L, aggs); l != 0 {
			return l * evalAggExpr(e.R, aggs)
		}
		return 0
	}
	return 0
}

// decodeGroupColumn materializes one GROUP BY output column from each
// output row's token: a key or pseudo-vertex code, or a GroupMeta token
// (a string item's annotation code, else a value's float bits). Row i's
// token is src[r*stride+off], where r is rows[i], or i when rows is nil.
// Each kind decodes in a loop of its own: large outputs (SMM) decode
// millions of cells.
func decodeGroupColumn[T uint32 | uint64](g *groupDecoder, col *Column, src []T, stride, off int, rows []int) {
	n := len(rows)
	if rows == nil {
		n = len(src) / stride
	}
	tok := func(i int) T {
		if rows != nil {
			i = rows[i]
		}
		return src[i*stride+off]
	}
	col.Kind = g.outKind
	switch g.outKind {
	case KindInt:
		col.I64 = make([]int64, n)
	case KindFloat:
		col.F64 = make([]float64, n)
	case KindString:
		col.Str = make([]string, n)
	}
	switch {
	case g.item.Kind == planner.GroupVertex && g.outKind == KindString:
		for i := range col.Str {
			col.Str[i] = g.domain.DecodeString(uint32(tok(i)))
		}
	case g.item.Kind == planner.GroupVertex:
		for i := range col.I64 {
			col.I64[i] = g.domain.DecodeInt(uint32(tok(i)))
		}
	case g.item.Kind == planner.GroupPseudo && g.pseudo.strDict != nil:
		for i := range col.Str {
			col.Str[i] = g.pseudo.strDict.DecodeString(uint32(tok(i)))
		}
	case g.item.Kind == planner.GroupPseudo && g.outKind == KindInt:
		for i := range col.I64 {
			col.I64[i] = int64(g.pseudo.numVals[tok(i)])
		}
	case g.item.Kind == planner.GroupPseudo && g.pseudo.isDate:
		for i := range col.Str {
			col.Str[i] = sqlparse.DaysToDate(int32(g.pseudo.numVals[tok(i)]))
		}
	case g.item.Kind == planner.GroupPseudo:
		for i := range col.F64 {
			col.F64[i] = g.pseudo.numVals[tok(i)]
		}
	case g.metaDict != nil:
		for i := range col.Str {
			col.Str[i] = g.metaDict.DecodeString(uint32(tok(i)))
		}
	case g.metaDate:
		for i := range col.Str {
			col.Str[i] = sqlparse.DaysToDate(int32(math.Float64frombits(uint64(tok(i)))))
		}
	case g.outKind == KindInt:
		for i := range col.I64 {
			col.I64[i] = int64(math.Float64frombits(uint64(tok(i))))
		}
	default:
		for i := range col.F64 {
			col.F64[i] = math.Float64frombits(uint64(tok(i)))
		}
	}
}

// assembleHash materializes a hash-emit result: group values decode
// from the accumulated metadata tokens, aggregates are already final.
func assembleHash(c *compiled, h *hashAcc) (*Result, error) {
	faultinject.Fire(faultinject.PointExecOutput)
	if c.opts.Mem != nil {
		est := int64(h.n()) * int64(len(c.groups)+len(c.root.aggs)) * 16
		if err := c.opts.Mem.Charge(est); err != nil {
			return nil, err
		}
	}
	return finishHash(c, h)
}

// finishHash applies HAVING to a table of final groups and decodes it
// into the Result, one token per group item and group.
func finishHash(c *compiled, h *hashAcc) (*Result, error) {
	nAggs := h.nA
	if c.p.Having != nil {
		kept := &hashAcc{nG: h.nG, nA: h.nA}
		ng := h.n()
		for gi := 0; gi < ng; gi++ {
			if evalHaving(c.p.Having, h.aggs[gi*nAggs:(gi+1)*nAggs]) {
				kept.tokens = append(kept.tokens, h.tokens[gi*h.nG:(gi+1)*h.nG]...)
				kept.aggs = append(kept.aggs, h.aggs[gi*nAggs:(gi+1)*nAggs]...)
			}
		}
		h = kept
	}
	nOut := h.n()
	res := &Result{NumRows: nOut}
	for _, o := range c.p.Outputs {
		col := &Column{Name: o.Name}
		switch o.Kind {
		case planner.OutGroup:
			decodeGroupColumn(&c.groups[o.Index], col, h.tokens, h.nG, o.Index, nil)
		case planner.OutAgg:
			col.Kind = KindFloat
			col.F64 = make([]float64, nOut)
			for r := 0; r < nOut; r++ {
				col.F64[r] = h.aggs[r*nAggs+o.Index]
			}
		case planner.OutAggExpr:
			col.Kind = KindFloat
			col.F64 = make([]float64, nOut)
			for r := 0; r < nOut; r++ {
				col.F64[r] = evalAggExpr(o.Expr, h.aggs[r*nAggs:(r+1)*nAggs])
			}
		}
		res.Cols = append(res.Cols, col)
	}
	return res, nil
}
