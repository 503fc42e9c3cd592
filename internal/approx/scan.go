package approx

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/storage"
)

// cell reads one native value: int64 for Int64 and Date columns,
// float64 for Float64, string for String.
func cell(c *storage.Column, r int32) any {
	switch c.Def.Kind {
	case storage.Float64:
		return c.Floats[r]
	case storage.String:
		return c.Strs[r]
	}
	return c.Ints[r]
}

// num reads one numeric value as float64 (Analyze admits no string
// column under sum/avg/min/max).
func num(c *storage.Column, r int32) float64 {
	if c.Def.Kind == storage.Float64 {
		return c.Floats[r]
	}
	return float64(c.Ints[r])
}

// --- canonical group/distinct keys (mirror the engine's pseudo-encoding) ---

// canonVal maps a float to its dict.CanonFloat representative.
func canonVal(v any) any {
	if f, ok := v.(float64); ok {
		return dict.CanonFloat(f)
	}
	return v
}

// canonKey renders a canonical value as an exact pairing string.
func canonKey(v any) string {
	switch x := v.(type) {
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		return "f" + strconv.FormatUint(dict.CanonFloatBits(x), 16)
	case string:
		return "s" + x
	}
	return fmt.Sprintf("?%v", v)
}

// --- group/aggregate fold ---

type groupAcc struct {
	keyVals []any
	rows    float64
	accs    []float64
	counts  []float64
	sets    []map[string]struct{}
	// accsSq/maxAbs track Σv² and max|v| per sum/avg aggregate — free on
	// the exact path, and exactly what the sample route's CLT bounds need.
	accsSq []float64
	maxAbs []float64
}

// scan folds the rows of the shape's table that satisfy its WHERE into
// groups, returned in first-seen order. ids (ascending) restricts the
// candidates to a sample; nil scans every row. Candidates go through the
// compiled predicate a block at a time, and the fold reads the survivors'
// values straight from the columns.
func (sh *Shape) scan(ids []int32) []*groupAcc {
	t := sh.tab
	n := t.NumRows
	if ids != nil {
		n = len(ids)
	}
	gcols := make([]*storage.Column, len(sh.GroupBy))
	for i, name := range sh.GroupBy {
		gcols[i] = t.Col(name)
	}
	acols := make([]*storage.Column, len(sh.Aggs))
	for i, a := range sh.Aggs {
		acols[i] = t.Col(a.Col)
	}
	var sel expr.Sel
	if sh.pred != nil {
		sel = sh.pred.Bind()
	}

	groups := map[string]*groupAcc{}
	var order []*groupAcc
	buf := make([]int32, expr.BlockSize)
	for lo := 0; lo < n; lo += expr.BlockSize {
		hi := min(lo+expr.BlockSize, n)
		var rows []int32
		if ids == nil {
			rows = expr.Rows(buf, lo, hi)
		} else {
			rows = buf[:copy(buf, ids[lo:hi])]
		}
		if sel != nil {
			rows = sel(rows, buf)
		}
		for _, r := range rows {
			key := ""
			var keyVals []any
			if len(gcols) > 0 {
				keyVals = make([]any, len(gcols))
				for i, c := range gcols {
					v := canonVal(cell(c, r))
					keyVals[i] = v
					key += canonKey(v) + "\x00"
				}
			}
			g := groups[key]
			if g == nil {
				g = newGroupAcc(sh, keyVals)
				groups[key] = g
				order = append(order, g)
			}
			g.rows++
			for i, a := range sh.Aggs {
				if a.Distinct {
					g.sets[i][canonKey(canonVal(cell(acols[i], r)))] = struct{}{}
					continue
				}
				switch a.Fn {
				case "count":
					g.accs[i]++
				case "sum", "avg":
					v := num(acols[i], r)
					g.accs[i] += v
					g.accsSq[i] += v * v
					g.counts[i]++
					if av := math.Abs(v); av > g.maxAbs[i] {
						g.maxAbs[i] = av
					}
				case "min":
					if v := num(acols[i], r); v < g.accs[i] {
						g.accs[i] = v
					}
				case "max":
					if v := num(acols[i], r); v > g.accs[i] {
						g.accs[i] = v
					}
				}
			}
		}
	}
	return order
}

func newGroupAcc(sh *Shape, keyVals []any) *groupAcc {
	g := &groupAcc{keyVals: keyVals, accs: make([]float64, len(sh.Aggs)), counts: make([]float64, len(sh.Aggs)), sets: make([]map[string]struct{}, len(sh.Aggs)), accsSq: make([]float64, len(sh.Aggs)), maxAbs: make([]float64, len(sh.Aggs))}
	for i, a := range sh.Aggs {
		switch a.Fn {
		case "min":
			g.accs[i] = math.Inf(1)
		case "max":
			g.accs[i] = math.Inf(-1)
		}
		if a.Distinct {
			g.sets[i] = map[string]struct{}{}
		}
	}
	return g
}

// finals computes the output value of every aggregate for one group,
// applying the engine's scalar conventions (±Inf→0 on empty, avg =
// sum/count incl. 0/0 = NaN).
func (sh *Shape) finals(g *groupAcc) []float64 {
	out := make([]float64, len(sh.Aggs))
	for i, a := range sh.Aggs {
		v := g.accs[i]
		if a.Distinct {
			v = float64(len(g.sets[i]))
		}
		if g.rows == 0 && math.IsInf(v, 0) {
			v = 0
		}
		if a.Fn == "avg" {
			v = v / g.counts[i]
		}
		out[i] = v
	}
	return out
}

// EvalScan evaluates the shape exactly over a full scan of its table:
// the engine's COUNT(DISTINCT) baseline (hash-set evaluation).
func EvalScan(sh *Shape) *exec.Result {
	groups := sh.scan(nil)
	if len(sh.GroupBy) == 0 && len(groups) == 0 {
		// Scalar convention: one all-zero aggregate row.
		groups = append(groups, newGroupAcc(sh, nil))
	}
	res := newResult(sh)
	for _, g := range groups {
		appendRow(res, sh, g.keyVals, sh.finals(g))
	}
	return res
}

// newResult allocates the typed output columns for a shape.
func newResult(sh *Shape) *exec.Result {
	res := &exec.Result{}
	for _, out := range sh.Out {
		col := &exec.Column{Name: out.Name}
		if out.Group >= 0 {
			switch sh.tab.Col(sh.GroupBy[out.Group]).Def.Kind {
			case storage.Float64:
				col.Kind = exec.KindFloat
			case storage.String:
				col.Kind = exec.KindString
			default:
				col.Kind = exec.KindInt
			}
		} else {
			col.Kind = exec.KindFloat
		}
		res.Cols = append(res.Cols, col)
	}
	return res
}

// appendRow appends one output row from group key values and finished
// aggregate values.
func appendRow(res *exec.Result, sh *Shape, keyVals []any, finals []float64) {
	for ci, out := range sh.Out {
		col := res.Cols[ci]
		if out.Group >= 0 {
			switch v := keyVals[out.Group].(type) {
			case int64:
				col.I64 = append(col.I64, v)
			case float64:
				col.F64 = append(col.F64, v)
			case string:
				col.Str = append(col.Str, v)
			}
			continue
		}
		col.F64 = append(col.F64, finals[out.Agg])
	}
	res.NumRows++
}
