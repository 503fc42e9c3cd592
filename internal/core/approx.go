package core

import (
	"strings"
	"time"

	"repro/internal/approx"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// This file wires the approximate query tier (internal/approx) into the
// engine: per-table summary lifecycle, the runQuery intercept, and the
// overload-degrade path. The tier owns two things the WCOJ pipeline
// does not execute:
//
//   - COUNT(DISTINCT col): always served here, exactly (hash-set scan)
//     by default, approximately (HyperLogLog) under ApproxOK when the
//     priced win is decisive.
//   - Sketch/sample answers for single-table aggregates when the caller
//     opted in (QueryOptions.ApproxOK) and the cost model prices the
//     exact plan at >= 4x the approximate one.

// approxCounters exports the tier's totals on /metrics.
func (e *Engine) approxCounters() map[string]int64 {
	return map[string]int64{
		"approx_queries_total":  e.approxQueries.Load(),
		"approx_degraded_total": e.approxDegraded.Load(),
	}
}

func (e *Engine) approxSampleCap() int {
	if e.approxSampleRows > 0 {
		return e.approxSampleRows
	}
	return approx.DefaultSampleRows
}

// summaryFor returns the table's summary, building it on first use and
// extending it over any snapshot rows appended since it last covered
// the table. Callers must hold e.approxMu for the summary's whole use
// (sketch reads race with Extend otherwise).
func (e *Engine) summaryFor(name string, g *storage.Table, epoch uint64) *approx.Summary {
	s := e.summaries[name]
	if s == nil || !s.Covers(g) {
		s = approx.NewSummary(&g.Schema, e.approxSampleCap())
		e.summaries[name] = s
	}
	if s.Rows < g.NumRows {
		s.Extend(g, epoch)
	}
	return s
}

// refreshSummaries re-extends every already-built summary against the
// post-compaction state, so the first approximate query after a compact
// does not pay the fold. Summaries never built stay lazy. Compaction
// preserves row order (base prefix, then deltas), so the incremental
// extension stays sound across it.
func (e *Engine) refreshSummaries() {
	snap := e.cat.Snapshot()
	var epoch uint64
	if snap != nil {
		epoch = snap.Epoch
	}
	e.approxMu.Lock()
	defer e.approxMu.Unlock()
	for name, s := range e.summaries {
		t := e.cat.Table(name)
		if t == nil {
			delete(e.summaries, name)
			continue
		}
		g := snap.Resolve(t)
		if !s.Covers(g) {
			s = approx.NewSummary(&g.Schema, e.approxSampleCap())
			e.summaries[name] = s
		}
		if s.Rows < g.NumRows {
			s.Extend(g, epoch)
		}
	}
}

// degrade is the overload-degrade entry of the approximate tier: a
// query shed by admission control is answered from a sketch or sample
// when its shape has a bounded-work route. Anything else — including a
// text that does not parse — reports false so the caller surfaces the
// original OverloadedError.
func (e *Engine) degrade(sql string, qo QueryOptions, st *obs.QueryStats) (*exec.Result, bool) {
	if err := e.Freeze(); err != nil {
		return nil, false
	}
	q, err := parseStats(sql, st)
	if err != nil {
		return nil, false
	}
	return e.tryApprox(q, qo, st, true)
}

// tryApprox is the approximate tier's intercept on a parsed query (the
// catalog is frozen by then). The returned bool reports whether the
// tier served the query; false falls through to the normal pipeline,
// whose planner produces the authoritative errors for shapes the tier
// declined. A shape the tier accepts cannot fail: Analyze has already
// compiled its WHERE and resolved every column.
//
// degraded marks the overload-degrade entry: only bounded-work routes
// (sketch/sample) are served — the cost gate is waived, since any
// approximate answer beats a shed.
func (e *Engine) tryApprox(q *sqlparse.Query, qo QueryOptions, st *obs.QueryStats, degraded bool) (*exec.Result, bool) {
	if len(q.From) != 1 {
		return nil, false
	}
	t := e.cat.Table(q.From[0].Table)
	if t == nil {
		return nil, false
	}
	snap := e.cat.Snapshot()
	g := snap.Resolve(t)
	sh, ok := approx.Analyze(q, g)
	if !ok {
		return nil, false
	}
	if st != nil {
		st.FingerprintText, st.Fingerprint = sqlparse.Fingerprint(q)
	}

	route := ""
	if qo.ApproxOK {
		var fp uint64
		if st != nil {
			fp = st.Fingerprint
		}
		drift := e.tel.Statements.CostRatio(fp)
		route, _ = approx.Route(sh, g.NumRows, e.approxSampleCap(), drift)
		if degraded && route == "" {
			// Under overload any bounded-work answer beats a 429; waive
			// the cost gate and take whatever route the shape allows.
			if sh.Sketchable() {
				route = "hll"
			} else if sh.Sampleable() {
				route = "sample"
			}
		}
	}
	if route == "" && (degraded || !sh.HasDistinct) {
		// Degrade has no bounded route; non-distinct exact shapes belong
		// to the normal pipeline.
		return nil, false
	}

	te := time.Now()
	var ans *approx.Answer
	switch route {
	case "":
		// Exact distinct scan: the engine's COUNT(DISTINCT) baseline.
		ans = &approx.Answer{Res: approx.EvalScan(sh), Route: obs.DispatchDistinctScan}
	default:
		var epoch uint64
		if snap != nil {
			epoch = snap.Epoch
		}
		e.approxMu.Lock()
		sum := e.summaryFor(q.From[0].Table, g, epoch)
		switch route {
		case "hll":
			ans = approx.EvalHLL(sh, sum)
		default:
			ans = approx.EvalSample(sh, sum.SampleIDs())
		}
		e.approxMu.Unlock()
	}

	if st != nil {
		st.Phases.Execute = time.Since(te)
		tr := st.Trace
		tr.Add(tr.Root(), telemetry.SpanPhase, "approx", te, time.Now())
		st.Dispatch = ans.Route
		st.ApproxRoute = ans.Route
		st.Approx = ans.Approx
		st.ErrorBound = ans.ErrorBound
		st.ErrorBounds = ans.ErrorBounds
		st.Confidence = ans.Confidence
		st.MissBound = ans.MissBound
		if snap != nil {
			st.SnapshotEpoch = snap.Epoch
			st.DeltaRowsFolded = e.cat.DeltaRows()
		}
	}
	if ans.Approx {
		e.approxQueries.Add(1)
	}
	return ans.Res, true
}

// explainApprox renders the approximate-tier plan for shapes the tier
// is authoritative over (distinct-bearing single-table aggregates,
// which the WCOJ planner rejects). Other shapes return ok=false and
// EXPLAIN renders the normal plan.
func (e *Engine) explainApprox(sql string) (string, bool) {
	q, err := sqlparse.Parse(sql)
	if err != nil || len(q.From) != 1 {
		return "", false
	}
	t := e.cat.Table(q.From[0].Table)
	if t == nil || e.Freeze() != nil {
		return "", false
	}
	g := e.cat.Snapshot().Resolve(t)
	sh, ok := approx.Analyze(q, g)
	if !ok || !sh.HasDistinct {
		return "", false
	}
	_, fp := sqlparse.Fingerprint(q)
	drift := e.tel.Statements.CostRatio(fp)
	route, dec := approx.Route(sh, g.NumRows, e.approxSampleCap(), drift)
	var b strings.Builder
	b.WriteString(sh.String() + "\n")
	if route == "" {
		b.WriteString("route: exact distinct scan (hash-set evaluation)\n")
	} else {
		b.WriteString("route (with ApproxOK): " + route + "\n")
	}
	b.WriteString("decision: " + dec.String() + "\n")
	return b.String(), true
}
