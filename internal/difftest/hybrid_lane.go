// The hybrid lane pits the two access paths of the hybrid executor
// against each other: every generated query runs with all GHD nodes
// forced onto the WCOJ recursion and forced onto the binary hash-join
// chain over lazy tries, each twice (cold, then with filtered tries
// derived from cached base orders), and the results must be
// bit-identical — same row order, same column order, float aggregates
// equal down to the last bit (so accumulation order, duplicate
// multiplicities, and -0/NaN handling all match, not just values up to
// rounding).
package difftest

import (
	"context"
	"fmt"

	"math"

	"repro/internal/core"
	"repro/internal/costopt"
	"repro/internal/exec"
)

// RunHybridLane executes the case's SQL under both forced access paths
// and cost-based, compares bitwise, then runs both forced paths again
// on the same engine: the repeat finds every filtered relation's base
// order admitted and derives its trie from it, so the derived build is
// held to the direct build's bits on both paths.
func RunHybridLane(c *Case) Outcome {
	eng, err := c.BuildEngine()
	if err != nil {
		return Outcome{Verdict: Skip, Detail: err.Error()}
	}
	rw, err := eng.QueryWithContext(context.Background(), c.SQL, core.QueryOptions{ForcePath: costopt.PathWCOJ})
	if err != nil {
		if planReject(err) {
			return Outcome{Verdict: Skip, Detail: err.Error()}
		}
		return disagree("forced-wcoj run failed: %v", err)
	}
	// The cost-based default must agree too — whatever mix the
	// classifier picks per node, the answer may not move.
	runs := []struct {
		name string
		opts core.QueryOptions
	}{
		{"forced-binary", core.QueryOptions{ForcePath: costopt.PathBinary}},
		{"cost-based hybrid", core.QueryOptions{}},
		{"repeated forced-wcoj", core.QueryOptions{ForcePath: costopt.PathWCOJ}},
		{"repeated forced-binary", core.QueryOptions{ForcePath: costopt.PathBinary}},
	}
	for _, r := range runs {
		res, err := eng.QueryWithContext(context.Background(), c.SQL, r.opts)
		if err != nil {
			return disagree("%s run failed after wcoj succeeded: %v", r.name, err)
		}
		if detail := diffBitwise(rw, res); detail != "" {
			return disagree("wcoj vs %s: %s", r.name, detail)
		}
	}
	return Outcome{Verdict: Agree}
}

// diffBitwise reports the first bitwise difference between two results,
// or "" when identical. Floats compare by bit pattern: NaN payloads and
// signed zeros must match exactly.
func diffBitwise(a, b *exec.Result) string {
	if a.NumRows != b.NumRows {
		return fmt.Sprintf("row count %d vs %d", a.NumRows, b.NumRows)
	}
	if len(a.Cols) != len(b.Cols) {
		return fmt.Sprintf("column count %d vs %d", len(a.Cols), len(b.Cols))
	}
	for ci := range a.Cols {
		ca, cb := a.Cols[ci], b.Cols[ci]
		if ca.Name != cb.Name || ca.Kind != cb.Kind {
			return fmt.Sprintf("column %d header %s/%d vs %s/%d", ci, ca.Name, ca.Kind, cb.Name, cb.Kind)
		}
		for ri := 0; ri < a.NumRows; ri++ {
			switch ca.Kind {
			case exec.KindInt:
				if ca.I64[ri] != cb.I64[ri] {
					return fmt.Sprintf("col %s row %d: %d vs %d", ca.Name, ri, ca.I64[ri], cb.I64[ri])
				}
			case exec.KindFloat:
				if math.Float64bits(ca.F64[ri]) != math.Float64bits(cb.F64[ri]) {
					return fmt.Sprintf("col %s row %d: %v (0x%x) vs %v (0x%x)", ca.Name, ri,
						ca.F64[ri], math.Float64bits(ca.F64[ri]), cb.F64[ri], math.Float64bits(cb.F64[ri]))
				}
			case exec.KindString:
				if ca.Str[ri] != cb.Str[ri] {
					return fmt.Sprintf("col %s row %d: %q vs %q", ca.Name, ri, ca.Str[ri], cb.Str[ri])
				}
			}
		}
	}
	return ""
}

// GenHybridCase reuses the refeval query/dataset generator — the widest
// SQL surface the suite has — retagged for the hybrid lane.
func (g *Gen) GenHybridCase() (*Case, *QuerySpec) {
	c, spec := g.Candidate()
	c.Lane = "hybrid"
	return c, spec
}
