package core

import (
	"time"

	"repro/internal/approx"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// This file wires the approximate query tier (internal/approx) into the
// engine: per-table summary lifecycle, the runQuery intercept, and the
// overload-degrade path. The tier serves sketch/sample answers for
// single-table aggregates when the caller opted in
// (QueryOptions.ApproxOK) and the cost model prices the exact plan at
// >= 4x the approximate one. Everything else, exact COUNT(DISTINCT)
// included, runs on the normal pipeline.

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
func (e *Engine) degrade(sql string, st *obs.QueryStats) (*exec.Result, bool) {
	if err := e.Freeze(); err != nil {
		return nil, false
	}
	q, err := parseStats(sql, st)
	if err != nil {
		return nil, false
	}
	return e.tryApprox(q, st, true)
}

// tryApprox is the approximate tier's intercept on a parsed query (the
// catalog is frozen by then). The returned bool reports whether the
// tier served the query; false falls through to the normal pipeline,
// whose planner produces the authoritative errors for shapes the tier
// declined or could not plan.
//
// degraded marks the overload-degrade entry: the cost gate is waived,
// since any approximate answer beats a shed.
func (e *Engine) tryApprox(q *sqlparse.Query, st *obs.QueryStats, degraded bool) (*exec.Result, bool) {
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

	var fp uint64
	if st != nil {
		fp = st.Fingerprint
	}
	drift := e.tel.Statements.CostRatio(fp)
	route, _ := approx.Route(sh, g.NumRows, e.approxSampleCap(), drift)
	if degraded && route == "" {
		// Under overload any bounded-work answer beats a 429; waive the
		// cost gate and take whatever route the shape allows.
		if sh.Sketchable() {
			route = "hll"
		} else if sh.Sampleable() {
			route = "sample"
		}
	}
	if route == "" {
		return nil, false
	}

	te := time.Now()
	var epoch uint64
	if snap != nil {
		epoch = snap.Epoch
	}
	var ans *approx.Answer
	e.approxMu.Lock()
	sum := e.summaryFor(q.From[0].Table, g, epoch)
	if route == "hll" {
		ans = approx.EvalHLL(sh, sum)
		e.approxMu.Unlock()
	} else {
		// The ids are a copy: the scan runs after the lock is released.
		ids := sum.SampleIDs()
		e.approxMu.Unlock()
		var err error
		if ans, err = approx.EvalSample(sh, e.cat, snap, ids); err != nil {
			return nil, false
		}
	}

	if st != nil {
		st.Phases.Execute = time.Since(te)
		tr := st.Trace
		tr.Add(tr.Root(), obs.SpanPhase, "approx", te, time.Now())
		st.Dispatch = ans.Route
		st.ApproxRoute = ans.Route
		st.Approx = true
		st.ErrorBound = ans.ErrorBound
		st.ErrorBounds = ans.ErrorBounds
		st.Confidence = ans.Confidence
		st.MissBound = ans.MissBound
		if snap != nil {
			st.SnapshotEpoch = snap.Epoch
			st.DeltaRowsFolded = e.cat.DeltaRows()
		}
	}
	e.approxQueries.Add(1)
	return ans.Res, true
}
