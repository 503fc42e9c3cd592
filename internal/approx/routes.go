package approx

import (
	"math"
	"slices"

	"repro/internal/costopt"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/sketch"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Answer is one approximate-tier evaluation: the result plus the
// advertised accuracy contract.
type Answer struct {
	Res   *exec.Result
	Route string // obs.Dispatch* label
	// ErrorBound is the largest per-column bound; ErrorBounds has one
	// entry per output column (0 for group columns and exact values).
	ErrorBound  float64
	ErrorBounds []float64
	Confidence  float64
	// MissBound, on group routes, is the largest true count an output
	// group absent from the answer may have (0 = answer is complete).
	MissBound float64
}

func finishBounds(a *Answer) *Answer {
	for _, b := range a.ErrorBounds {
		if b > a.ErrorBound {
			a.ErrorBound = b
		}
	}
	a.Confidence = Confidence
	return a
}

// Route picks the tier's route for an opted-in query: a whole-table
// sketch read when the shape allows it, a sample evaluation otherwise,
// and "" when the priced win is not decisive (caller runs exact).
// rows is the snapshot row count, sampleCap the reservoir capacity,
// drift the statement's observed cost_ratio (0 = unknown).
func Route(sh *Shape, rows, sampleCap int, drift float64) (string, *costopt.ApproxDecision) {
	if sh.Sketchable() {
		dec := costopt.ChooseApprox(rows, sampleCap, 1<<sketch.DefaultHLLPrecision, drift)
		if dec.Route == costopt.RouteSketch {
			return "hll", dec
		}
		return "", dec
	}
	if sh.Sampleable() {
		dec := costopt.ChooseApprox(rows, sampleCap, 0, drift)
		if dec.Route == costopt.RouteSample {
			return "sample", dec
		}
		return "", dec
	}
	return "", costopt.ChooseApprox(rows, sampleCap, 0, drift)
}

// EvalHLL answers a scalar count / count-distinct shape from the
// per-column HLL sketches of a summary covering the shape's table.
func EvalHLL(sh *Shape, sum *Summary) *Answer {
	n := sh.tab.NumRows
	finals := make([]float64, len(sh.Aggs))
	bounds := make([]float64, len(sh.Aggs))
	for i, a := range sh.Aggs {
		if !a.Distinct {
			finals[i] = float64(n) // count(*) is exact from coverage
			continue
		}
		ci := colIndex(&sh.tab.Schema, a.Col)
		h := sum.HLLs[ci]
		est := math.Round(h.Estimate())
		if est > float64(n) {
			est = float64(n)
		}
		finals[i] = est
		bounds[i] = hllBound(h, est)
	}
	res := &exec.Result{NumRows: 1}
	for _, out := range sh.Out {
		res.Cols = append(res.Cols, &exec.Column{Name: out.Name, Kind: exec.KindFloat, F64: []float64{finals[out.Agg]}})
	}
	return finishBounds(&Answer{Res: res, Route: obs.DispatchApproxHLL, ErrorBounds: outBounds(sh, bounds)})
}

// EvalSample answers a count-sum-avg shape from a uniform sample of its
// table's rows (ids ascending): the planner's scan of the shape's query
// over the sampled rows at one thread, scaled by N/k. The query gains
// helper aggregates — per sum/avg argument v, Σv, Σv², min v and max v,
// and the group's row count — that feed the bounds and are dropped from
// the answer. An error means the exact pipeline rejects the shape too.
func EvalSample(sh *Shape, cat *storage.Catalog, snap *storage.Snapshot, ids []int32) (*Answer, error) {
	n, k := sh.tab.NumRows, len(ids)
	scale := 1.0
	if k > 0 {
		scale = float64(n) / float64(k)
	}
	q := *sh.q
	q.Select = slices.Clone(q.Select)
	nOut := len(q.Select)
	helper := func(fn string, arg sqlparse.Expr) int {
		fc := sqlparse.FuncCall{Name: fn, Star: arg == nil}
		if arg != nil {
			fc.Args = []sqlparse.Expr{arg}
		}
		q.Select = append(q.Select, sqlparse.SelectItem{Expr: fc})
		return len(q.Select) - 1
	}
	// moments[i] is the first of aggregate i's four helper columns (0:
	// none; helpers follow the answer's columns).
	moments := make([]int, len(sh.Aggs))
	rowsCol := -1
	for i, a := range sh.Aggs {
		if a.Fn != "sum" && a.Fn != "avg" {
			continue
		}
		v := sqlparse.ColRef{Name: a.Col}
		moments[i] = helper("sum", v)
		helper("sum", sqlparse.BinaryExpr{Op: "*", L: v, R: v})
		helper("min", v)
		helper("max", v)
		if a.Fn == "avg" && rowsCol < 0 {
			rowsCol = helper("count", nil)
		}
	}
	p, err := planner.Build(&q, cat)
	if err != nil {
		return nil, err
	}
	p.StoredGroupKinds = true
	res, err := exec.RunScan(p, cat, exec.Options{Threads: 1, Snap: snap}, ids)
	if err != nil {
		return nil, err
	}

	bounds := make([]float64, len(sh.Aggs))
	for r := 0; r < res.NumRows; r++ {
		for i, a := range sh.Aggs {
			var sum, sq, maxAbs float64
			if m := moments[i]; m > 0 {
				sum, sq = res.Cols[m].F64[r], res.Cols[m+1].F64[r]
				maxAbs = math.Max(math.Abs(res.Cols[m+2].F64[r]), math.Abs(res.Cols[m+3].F64[r]))
			}
			switch a.Fn {
			case "count":
				bounds[i] = math.Max(bounds[i], countBound(n, k))
			case "sum":
				bounds[i] = math.Max(bounds[i], sumBound(n, k, sum, sq, maxAbs))
			case "avg":
				bounds[i] = math.Max(bounds[i], avgBound(int(res.Cols[rowsCol].F64[r]), sum, sq, maxAbs))
			}
		}
	}
	res.Cols = res.Cols[:nOut]
	for ci, out := range sh.Out {
		if out.Agg < 0 {
			continue
		}
		vs := res.Cols[ci].F64
		switch sh.Aggs[out.Agg].Fn {
		case "count":
			for r := range vs {
				vs[r] = math.Round(vs[r] * scale)
			}
		case "sum":
			for r := range vs {
				vs[r] *= scale
			}
		}
	}
	a := &Answer{Res: res, Route: obs.DispatchApproxSample, ErrorBounds: outBounds(sh, bounds)}
	if len(sh.GroupBy) > 0 {
		a.MissBound = MissBound(n, k)
	}
	return finishBounds(a), nil
}

// outBounds spreads per-aggregate bounds onto output-column positions
// (group columns are exact: bound 0).
func outBounds(sh *Shape, aggBounds []float64) []float64 {
	out := make([]float64, len(sh.Out))
	for i, oc := range sh.Out {
		if oc.Agg >= 0 {
			out[i] = aggBounds[oc.Agg]
		}
	}
	return out
}

func colIndex(sch *storage.Schema, name string) int {
	for i := range sch.Cols {
		if sch.Cols[i].Name == name {
			return i
		}
	}
	return -1
}
