package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dict"
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

	reprRows := make([]int, 0, n)
	var aggVals []float64
	nAggs := len(root.aggs)

	if direct {
		for r := 0; r < n; r++ {
			reprRows = append(reprRows, r)
		}
		aggVals = rows.aggs
	} else {
		// Hash-merge stage: group rows by decoded group-value tokens.
		tokens := make([]func(r int) (uint64, error), len(c.groups))
		for gi := range c.groups {
			g := &c.groups[gi]
			switch g.item.Kind {
			case planner.GroupVertex, planner.GroupPseudo:
				pos := g.pos
				tokens[gi] = func(r int) (uint64, error) {
					return uint64(rows.keys[r*rows.kWidth+pos]), nil
				}
			case planner.GroupMeta:
				pos := g.pos
				g := g
				meta := bindMeta(g.metaNum)
				tokens[gi] = func(r int) (uint64, error) {
					code := rows.keys[r*rows.kWidth+pos]
					row := g.metaRows[code]
					if row < 0 {
						return 0, fmt.Errorf("exec: no metadata row for %s code %d", g.item.Vertex, code)
					}
					if g.metaCodes != nil {
						return uint64(g.metaCodes[row]), nil
					}
					return dict.CanonFloatBits(meta.at(row)), nil
				}
			}
		}
		idx := map[string]int{}
		keyBuf := make([]byte, 8*len(c.groups))
		for r := 0; r < n; r++ {
			for gi := range tokens {
				tok, err := tokens[gi](r)
				if err != nil {
					return nil, err
				}
				binary.LittleEndian.PutUint64(keyBuf[gi*8:], tok)
			}
			k := string(keyBuf)
			gi, ok := idx[k]
			if !ok {
				gi = len(reprRows)
				idx[k] = gi
				reprRows = append(reprRows, r)
				base := len(aggVals)
				aggVals = append(aggVals, rows.aggs[r*nAggs:(r+1)*nAggs]...)
				_ = base
				continue
			}
			for ai := 0; ai < nAggs; ai++ {
				aggVals[gi*nAggs+ai] = combine1(root.aggs[ai].kind,
					aggVals[gi*nAggs+ai], rows.aggs[r*nAggs+ai])
			}
		}
	}

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
			if err := decodeGroupColumn(c, &c.groups[o.Index], rows, reprRows, col); err != nil {
				return nil, err
			}
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

// decodeGroupColumn materializes one GROUP BY output column.
func decodeGroupColumn(c *compiled, g *groupDecoder, rows *rowsBuf, repr []int, col *Column) error {
	nOut := len(repr)
	col.Kind = g.outKind
	switch g.outKind {
	case KindInt:
		col.I64 = make([]int64, nOut)
	case KindFloat:
		col.F64 = make([]float64, nOut)
	case KindString:
		col.Str = make([]string, nOut)
	}
	meta := bindMeta(g.metaNum)
	for i, r := range repr {
		code := rows.keys[r*rows.kWidth+g.pos]
		switch g.item.Kind {
		case planner.GroupVertex:
			if g.outKind == KindString {
				col.Str[i] = g.domain.DecodeString(code)
			} else {
				col.I64[i] = g.domain.DecodeInt(code)
			}
		case planner.GroupPseudo:
			switch {
			case g.pseudo.strDict != nil:
				col.Str[i] = g.pseudo.strDict.DecodeString(code)
			case g.outKind == KindInt:
				col.I64[i] = int64(g.pseudo.numVals[code])
			case g.pseudo.isDate:
				col.Str[i] = sqlparse.DaysToDate(int32(g.pseudo.numVals[code]))
			default:
				col.F64[i] = g.pseudo.numVals[code]
			}
		case planner.GroupMeta:
			row := g.metaRows[code]
			if row < 0 {
				return fmt.Errorf("exec: no metadata row for %s code %d", g.item.Vertex, code)
			}
			switch {
			case g.metaCodes != nil:
				col.Str[i] = g.metaDict.DecodeString(g.metaCodes[row])
			case g.metaDate:
				col.Str[i] = sqlparse.DaysToDate(int32(meta.at(row)))
			case g.outKind == KindInt:
				col.I64[i] = int64(meta.at(row))
			default:
				col.F64[i] = meta.at(row)
			}
		}
	}
	return nil
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
			g := &c.groups[o.Index]
			gi := hashGroupIndex(c, o.Index)
			col.Kind = g.outKind
			switch g.outKind {
			case KindInt:
				col.I64 = make([]int64, nOut)
			case KindFloat:
				col.F64 = make([]float64, nOut)
			case KindString:
				col.Str = make([]string, nOut)
			}
			for r := 0; r < nOut; r++ {
				tok := h.tokens[r*h.nG+gi]
				switch {
				case g.metaCodes != nil:
					col.Str[r] = g.metaDict.DecodeString(uint32(tok))
				case g.metaDate:
					col.Str[r] = sqlparse.DaysToDate(int32(math.Float64frombits(tok)))
				case g.outKind == KindInt:
					col.I64[r] = int64(math.Float64frombits(tok))
				default:
					col.F64[r] = math.Float64frombits(tok)
				}
			}
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

// hashGroupIndex maps a plan group index to its token slot (group items
// are registered in plan order, so the indices coincide; kept explicit
// for clarity).
func hashGroupIndex(c *compiled, planGroup int) int { return planGroup }
