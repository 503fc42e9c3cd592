package difftest

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/refeval"
)

// The approx lane drives the approximate query tier against the
// brute-force reference evaluator: every estimate must land within its
// advertised error bound of the exact answer, groups absent from an
// approximate answer must be small (MissBound), and whenever the tier
// declines (Stats.Approx=false) the opt-in must be invisible —
// bit-identical to the plain run and exact against the reference.
//
// The lane pins the reservoir capacity at 64 rows so the cost model's
// 4x rule engages at small generated tables: sample routes from 256
// rows, sketch routes from ~1.6k rows.
const approxLaneSampleRows = 64

// GenApproxCase builds one single-table dataset plus a tier-shaped
// aggregate query. Data is deliberately benign — bounded ints, quarter
// -multiple floats, no NaN — so the advertised bounds hold
// deterministically at every seed.
func (g *Gen) GenApproxCase() *Case {
	r := g.rnd

	// Row count spans the route regimes for a 64-row reservoir:
	// below every threshold (exact), sample-only, and sketch-eligible.
	var n int
	switch r.Intn(4) {
	case 0:
		n = 20 + r.Intn(230)
	case 1:
		n = 300 + r.Intn(1200)
	default:
		n = 1700 + r.Intn(1600)
	}
	dk := 1 + r.Intn(500)
	groupVals := stringPool[:1+r.Intn(10)]

	t := TableDef{Name: "t0", Cols: []ColDef{
		{Name: "k", Kind: "int", Role: "key", Domain: "d0"},
		{Name: "v", Kind: "int", Role: "ann"},
		{Name: "s", Kind: "string", Role: "ann"},
		{Name: "f", Kind: "float", Role: "ann"},
	}}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(r.Intn(dk)),
			strconv.Itoa(r.Intn(101) - 50),
			groupVals[r.Intn(len(groupVals))],
			fmtFloat(float64(r.Intn(129)-64) / 4),
		})
	}

	// Filter thresholds keep selectivity >= ~40% so sample estimates
	// never run dry. Grouped shapes always put count(*) first after the
	// group column: the miss check reads a group's true size from it.
	x := r.Intn(41) - 10
	var sql string
	nG := 0
	switch r.Intn(8) {
	case 0:
		sql = "SELECT count(distinct k) FROM t0"
	case 1:
		sql = "SELECT count(distinct k), count(*) FROM t0"
	case 2:
		sql = fmt.Sprintf("SELECT count(distinct k) FROM t0 WHERE v < %d", x)
	case 3:
		sql = "SELECT s, count(*) FROM t0 GROUP BY s"
		nG = 1
	case 4:
		sql = fmt.Sprintf("SELECT count(*), sum(v) FROM t0 WHERE v < %d", x)
	case 5:
		sql = fmt.Sprintf("SELECT avg(f), count(*) FROM t0 WHERE v >= %d", -(10 + r.Intn(31)))
	case 6:
		sql = fmt.Sprintf("SELECT s, count(*), sum(v) FROM t0 WHERE v < %d GROUP BY s", x)
		nG = 1
	case 7:
		sql = "SELECT min(v), max(f) FROM t0"
	}
	return &Case{
		Seed:   g.seed,
		Lane:   "approx",
		Note:   fmt.Sprintf("groups=%d", nG),
		Tables: []TableDef{t},
		SQL:    sql,
	}
}

// RunApproxLane runs the case with ApproxOK set and checks the tier's
// accuracy contract against refeval's exact answer.
func RunApproxLane(c *Case) Outcome {
	eng, err := c.BuildEngine(core.WithApproxSampleRows(approxLaneSampleRows))
	if err != nil {
		return Outcome{Verdict: Skip, Detail: err.Error()}
	}
	res, err := eng.QueryWithContext(context.Background(), c.SQL, core.QueryOptions{ApproxOK: true})
	if err != nil {
		if planReject(err) {
			return Outcome{Verdict: Skip, Detail: err.Error()}
		}
		return disagree("approx query failed: %v", err)
	}
	rels, err := c.Relations()
	if err != nil {
		return Outcome{Verdict: Skip, Detail: err.Error()}
	}
	want, refErr := refeval.Eval(c.SQL, rels)
	if refErr != nil {
		return Outcome{Verdict: Skip, Detail: refErr.Error()}
	}

	st := res.Stats
	if st == nil || !st.Approx {
		// The tier declined (or served exactly): the opt-in must be
		// invisible. Bit-identical to the plain run, exact vs reference.
		plain, err := eng.Query(c.SQL)
		if err != nil {
			if planReject(err) {
				return Outcome{Verdict: Skip, Detail: err.Error()}
			}
			return disagree("plain query failed: %v", err)
		}
		if err := CompareEngineResults(res, plain, aggMask(c)); err != nil {
			return disagree("ApproxOK changed an exact answer: %v", err)
		}
		if err := CompareResults(res, want); err != nil {
			return disagree("exact answer disagrees with reference: %v", err)
		}
		return Outcome{Verdict: Agree}
	}
	return checkApproxBounds(c, res, want, st)
}

// checkApproxBounds verifies an approximate answer against the exact
// reference: per-column |estimate - exact| within the advertised
// ErrorBounds entry, approximate groups a subset of exact groups, and
// every missing group's true count within MissBound.
func checkApproxBounds(c *Case, res *exec.Result, want *refeval.Result, st *obs.QueryStats) Outcome {
	if len(res.Cols) != len(want.Cols) {
		return disagree("column count: approx %d, reference %d", len(res.Cols), len(want.Cols))
	}
	if len(st.ErrorBounds) != len(res.Cols) {
		return disagree("ErrorBounds has %d entries for %d output columns", len(st.ErrorBounds), len(res.Cols))
	}
	if !(st.Confidence > 0 && st.Confidence <= 1) {
		return disagree("approximate answer with confidence %v", st.Confidence)
	}
	nG := 0
	fmt.Sscanf(c.Note, "groups=%d", &nG)

	type exactRow struct {
		vals    []float64
		claimed bool
	}
	exact := map[string]*exactRow{}
	for r := 0; r < want.NumRows; r++ {
		key := ""
		for gi := 0; gi < nG; gi++ {
			key += approxGroupKey(want.Cols[gi].Vals[r]) + "\x00"
		}
		vals := make([]float64, len(want.Cols)-nG)
		for ci := nG; ci < len(want.Cols); ci++ {
			f, ok := want.Cols[ci].Vals[r].(float64)
			if !ok {
				return Outcome{Verdict: Skip, Detail: fmt.Sprintf("non-float reference aggregate %T", want.Cols[ci].Vals[r])}
			}
			vals[ci-nG] = f
		}
		exact[key] = &exactRow{vals: vals}
	}

	for r := 0; r < res.NumRows; r++ {
		key := ""
		for gi := 0; gi < nG; gi++ {
			key += approxGroupKey(engineCell(res.Cols[gi], r)) + "\x00"
		}
		ex := exact[key]
		if ex == nil {
			return disagree("approx answer invented group %q (route %s)", key, st.ApproxRoute)
		}
		ex.claimed = true
		for ci := nG; ci < len(res.Cols); ci++ {
			got := res.Cols[ci].F64[r]
			wv := ex.vals[ci-nG]
			if math.IsNaN(got) && math.IsNaN(wv) {
				continue
			}
			diff := math.Abs(got - wv)
			slack := st.ErrorBounds[ci] + 1e-9*math.Max(1, math.Abs(wv))
			if !(diff <= slack) {
				return disagree("column %d: approx %v, exact %v, error %v exceeds advertised bound %v (route %s)",
					ci, got, wv, diff, st.ErrorBounds[ci], st.ApproxRoute)
			}
		}
	}

	if nG > 0 {
		// Grouped lane shapes always select count(*) as the first
		// aggregate, so a missing group's true size is vals[0].
		for key, ex := range exact {
			if ex.claimed {
				continue
			}
			if ex.vals[0] > st.MissBound {
				return disagree("group %q (true count %v) missing from approx answer; advertised miss bound %v (route %s)",
					key, ex.vals[0], st.MissBound, st.ApproxRoute)
			}
		}
	}
	return Outcome{Verdict: Agree}
}

// approxGroupKey canonicalizes one group value from either side
// (engine native cell or refeval value) for exact pairing.
func approxGroupKey(v any) string {
	switch x := v.(type) {
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case int32:
		return "i" + strconv.FormatInt(int64(x), 10)
	case float64:
		if math.IsNaN(x) {
			return "fNaN"
		}
		if x == 0 {
			x = 0
		}
		return "f" + strconv.FormatFloat(x, 'x', -1, 64)
	case string:
		return "s" + x
	}
	return fmt.Sprintf("?%v", v)
}

// engineCell extracts a native group value from an engine column.
func engineCell(col *exec.Column, r int) any {
	switch col.Kind {
	case exec.KindString:
		return col.Str[r]
	case exec.KindFloat:
		return col.F64[r]
	default:
		return col.I64[r]
	}
}
