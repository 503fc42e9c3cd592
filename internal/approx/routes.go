package approx

import (
	"math"

	"repro/internal/costopt"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// Answer is one approximate-tier evaluation: the result plus the
// advertised accuracy contract.
type Answer struct {
	Res   *exec.Result
	Route string // obs.Dispatch* label
	// Approx is false only for the exact distinct scan.
	Approx bool
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
	if a.Approx {
		a.Confidence = Confidence
	}
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
	a := &Answer{Route: obs.DispatchApproxHLL, Approx: true}
	a.Res = newResult(sh)
	appendRow(a.Res, sh, nil, finals)
	a.ErrorBounds = outBounds(sh, bounds)
	return finishBounds(a)
}

// EvalSample answers a filtered/grouped count-sum-avg shape from a
// uniform sample of its table's rows (ids ascending): the shared scan
// over the sampled rows, scaled by N/k.
func EvalSample(sh *Shape, ids []int32) *Answer {
	n, k := sh.tab.NumRows, len(ids)
	scale := 1.0
	if k > 0 {
		scale = float64(n) / float64(k)
	}
	groups := sh.scan(ids)
	scalar := len(sh.GroupBy) == 0
	if scalar && len(groups) == 0 {
		groups = append(groups, newGroupAcc(sh, nil))
	}

	a := &Answer{Route: obs.DispatchApproxSample, Approx: true}
	a.Res = newResult(sh)
	bounds := make([]float64, len(sh.Aggs))
	for _, g := range groups {
		finals := make([]float64, len(sh.Aggs))
		for i, agg := range sh.Aggs {
			switch agg.Fn {
			case "count":
				finals[i] = math.Round(g.accs[i] * scale)
				bounds[i] = math.Max(bounds[i], countBound(n, k))
			case "sum":
				finals[i] = g.accs[i] * scale
				bounds[i] = math.Max(bounds[i], sumBound(n, k, g.accs[i], g.accsSq[i], g.maxAbs[i]))
			case "avg":
				finals[i] = g.accs[i] / g.counts[i]
				bounds[i] = math.Max(bounds[i], avgBound(int(g.counts[i]), g.accs[i], g.accsSq[i], g.maxAbs[i]))
			}
		}
		appendRow(a.Res, sh, g.keyVals, finals)
	}
	a.ErrorBounds = outBounds(sh, bounds)
	if !scalar {
		a.MissBound = MissBound(n, k)
	}
	return finishBounds(a)
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
