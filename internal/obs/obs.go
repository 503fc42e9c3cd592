// Package obs is the engine's observability layer, threaded through
// the query lifecycle: per-query QueryStats (phase timers, per-kernel
// intersection counts, trie-cache behavior, dispatch decisions) and
// its hierarchical trace spans (query → phase → GHD node → kernel);
// per-engine cumulative EngineMetrics; and the Collector one or more
// engines share — log-linear latency histograms with lock-free
// recording, the live registry of in-flight queries, the
// per-fingerprint statement store, and the HTTP debug server exposing
// Prometheus metrics, the registry, span dumps and pprof.
//
// Hot-path discipline: nothing here is touched per tuple. Intersection
// counters live in set.Stats values owned by one parfor worker each
// (see set.Buffer.Stat) and are folded into a QueryStats once, at the
// parfor join; phase timers and spans are a monotonic clock read plus
// a short critical section on a per-query buffer, at query, phase and
// GHD-node granularity; EngineMetrics, the histograms and the
// statement store are updated once per finished query
// (EngineMetrics.Finish), with atomics or one short mutex hold.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/set"
)

// Dispatch labels for the execution strategy a query ended up on.
const (
	DispatchScalarScan  = "scalar-scan"  // single-relation aggregate scan (Q1/Q6 shapes, COUNT(DISTINCT))
	DispatchDenseMM     = "dense-mm"     // §III-D BLAS matrix–matrix kernel
	DispatchDenseMV     = "dense-mv"     // §III-D BLAS matrix–vector kernel
	DispatchSpMVGather  = "spmv-gather"  // specialized CSR-style SpMV kernel
	DispatchSpMVScatter = "spmv-scatter" // specialized relaxed-order SpMV kernel
	DispatchWCOJ        = "generic-wcoj" // generic worst-case optimal join interpreter
	DispatchHybrid      = "hybrid"       // mixed binary/WCOJ access paths across GHD nodes

	// Approximate-tier dispatches (opt-in only; exact COUNT(DISTINCT) is
	// a scalar-scan aggregate).
	DispatchApproxHLL    = "approx-hll"    // HyperLogLog COUNT(DISTINCT) estimate
	DispatchApproxSample = "approx-sample" // the scalar scan over a reservoir sample, scaled
)

// Phases holds one duration per query-lifecycle phase. Freeze is only
// nonzero for the first query against an unfrozen catalog (the
// encoding work the paper's measurements exclude); Compile covers
// per-query trie building; Output covers result assembly and decode.
type Phases struct {
	Parse   time.Duration
	Plan    time.Duration
	Freeze  time.Duration
	Compile time.Duration
	Execute time.Duration
	Output  time.Duration
	Total   time.Duration
}

// NodeCost is the estimate-vs-actual cost audit for one GHD node, on
// two scales. Est is the §V icost sum that prices the node's access
// path (Σ icost×weight over the chosen order on the WCOJ path, the probe
// term on the binary path), against Actual, the node's measured kernel
// counts repriced with the same icost constants; Ratio is Actual/Est,
// the per-node calibration signal the access-path drift correction
// reads, 0 when Est was 0 (dense relations, trivial nodes). Order
// selection does not read that scale: it minimises EstBindings, the
// estimated prefix bindings of the order, which Bindings — the trie
// nodes the join recursion visited — measures.
type NodeCost struct {
	Order  []string // the node's executed attribute order
	Est    float64  // §V icost estimate of the chosen access path
	Actual float64  // icost-weighted observed intersections/probes
	Ratio  float64  // Actual/Est (0 when Est == 0)
	Isect  uint64   // raw intersection+probe count at this node
	Bytes  uint64   // bytes materialized at this node
	// EstBindings is the order's estimated prefix bindings
	// (costopt.Order.Est; 0 on a one-edge node) and Bindings the trie
	// nodes the workers visited, summed at the parfor join.
	EstBindings float64
	Bindings    uint64
	// Path is the access path the node executed (costopt.PathWCOJ or
	// costopt.PathBinary); LazyLevels counts the lazy-trie levels this
	// node materialized during execution (0 on the WCOJ path and on
	// cache hits whose levels were already built).
	Path       string
	LazyLevels int
}

// QueryStats captures everything observable about one query run.
type QueryStats struct {
	SQL    string
	Phases Phases

	// Fingerprint identifies the statement's literal-free shape (see
	// sqlparse.Fingerprint); 0 when the statement never parsed.
	// FingerprintText is the canonical text the ID hashes.
	Fingerprint     uint64
	FingerprintText string

	// Trace is the query's hierarchical span record (query → phase →
	// GHD node → kernel); nil when the engine ran without telemetry
	// (e.g. the bare Prepare/Execute benchmark path). All telemetry
	// span operations are nil-safe, so executors record through this
	// field unconditionally.
	Trace *Trace

	// PlanCached reports whether the (plan, orders) pair came from the
	// prepared-plan cache (parse/plan phases then read ~0).
	PlanCached bool
	// Dispatch is the execution strategy taken (Dispatch* constants).
	Dispatch string
	// AccessPaths lists the per-GHD-node access path in pre-order
	// (costopt.PathWCOJ / costopt.PathBinary); empty for scalar scans
	// and specialized-kernel dispatches.
	AccessPaths []string
	// Threads is the parfor worker bound the query ran with.
	Threads int

	// GHD shape and the optimizer's root decision.
	GHDNodes  int
	RootOrder []string
	Relaxed   bool

	// Intersect counts kernel invocations and materialized bytes,
	// merged from all parfor workers.
	Intersect set.Stats

	// Query-trie construction: cache behavior, builds that sorted or
	// bucketed rows (cold direct builds and the base orders filtered
	// tries derive from), and tries derived from a cached base.
	TrieCacheHits   int
	TrieCacheMisses int
	TriesBuilt      int
	TriesDerived    int
	// Semijoins lists each filtered relation of a GHD node, in pre-order:
	// the rows its filter selected and the rows left once the node's
	// other filtered relations semijoin-reduced its selection.
	Semijoins []Semijoin

	// Heap traffic attributed to the query: bytes allocated and GC
	// cycles started while it ran (runtime/metrics deltas taken around
	// the run — process-wide, so concurrent queries share the blame).
	AllocBytes uint64
	GCCycles   uint64

	// MemHighWater is the query's governor-accounted memory peak in
	// bytes (0 when accounting is off).
	MemHighWater int64

	// SnapshotEpoch is the epoch snapshot the query read (0 = static
	// catalog, no post-freeze appends); DeltaRowsFolded counts the
	// delta-store rows that snapshot folded in.
	SnapshotEpoch   uint64
	DeltaRowsFolded int

	// NodeCosts is the per-GHD-node estimate-vs-actual cost audit,
	// appended by the generic WCOJ engine as each node finishes (empty
	// for scalar scans and specialized-kernel dispatches, which run no
	// per-node intersections to audit).
	NodeCosts []NodeCost

	// Approx is true when the result came from the approximate tier
	// (sketch or sample evaluation) rather than exact execution;
	// ApproxRoute names the tier's route decision ("exact", "sample",
	// "sketch"), set for every approx-eligible query including those
	// routed exact. Degraded marks a query that entered the tier because
	// admission control was overloaded and the caller had opted in.
	Approx      bool
	ApproxRoute string
	Degraded    bool
	// ErrorBound is the largest advertised absolute error across output
	// aggregate columns (0 for exact results); ErrorBounds carries the
	// per-output-column bounds (group columns are always exact, bound
	// 0). Confidence is the probability the bounds hold (0.999 for the
	// tier's estimators).
	ErrorBound  float64
	ErrorBounds []float64
	Confidence  float64
	// MissBound, on grouped approximate routes, bounds the true count of
	// any group absent from the answer (0 = the answer is complete).
	MissBound float64

	RowsOut int
}

// Semijoin is one filtered relation's selection before and after its
// GHD node's semijoin reduction.
type Semijoin struct {
	Rel      string // the relation's alias
	Selected int    // rows the filter kept
	Reduced  int    // rows left after the reduction
}

// String renders the stats in the EXPLAIN ANALYZE block format.
func (q *QueryStats) String() string {
	var b strings.Builder
	plan := "computed"
	if q.PlanCached {
		plan = "cached"
	}
	fmt.Fprintf(&b, "dispatch: %s  threads: %d  plan: %s\n", q.Dispatch, q.Threads, plan)
	if q.Fingerprint != 0 {
		fmt.Fprintf(&b, "fingerprint: %016x  %s\n", q.Fingerprint, q.FingerprintText)
	}
	if len(q.RootOrder) > 0 {
		relax := ""
		if q.Relaxed {
			relax = " (relaxed)"
		}
		fmt.Fprintf(&b, "ghd nodes: %d  root order: [%s]%s\n", q.GHDNodes, strings.Join(q.RootOrder, " "), relax)
	}
	fmt.Fprintf(&b, "phases: parse=%v plan=%v freeze=%v compile=%v execute=%v output=%v total=%v\n",
		rd(q.Phases.Parse), rd(q.Phases.Plan), rd(q.Phases.Freeze), rd(q.Phases.Compile),
		rd(q.Phases.Execute), rd(q.Phases.Output), rd(q.Phases.Total))
	if len(q.AccessPaths) > 0 {
		fmt.Fprintf(&b, "access paths: %s\n", strings.Join(q.AccessPaths, " "))
	}
	is := &q.Intersect
	fmt.Fprintf(&b, "intersections: %d (uint∩uint merge=%d gallop=%d, bs∩uint=%d, bs∩bs=%d, probes=%d), %s materialized\n",
		is.Total(), is.UintUintMerge, is.UintUintGallop, is.BsUint, is.BsBs, is.Probes, fmtBytes(is.BytesOut))
	for _, nc := range q.NodeCosts {
		path := ""
		if nc.Path != "" {
			path = fmt.Sprintf(" path=%s lazy-levels=%d", nc.Path, nc.LazyLevels)
		}
		fmt.Fprintf(&b, "cost audit [%s]:%s est=%.0f actual=%.0f ratio=%.2f bindings est=%.0f actual=%d (isect=%d, %s)\n",
			strings.Join(nc.Order, " "), path, nc.Est, nc.Actual, nc.Ratio, nc.EstBindings, nc.Bindings, nc.Isect, fmtBytes(nc.Bytes))
	}
	for _, sj := range q.Semijoins {
		fmt.Fprintf(&b, "semijoin: %s sel=%d reduced=%d\n", sj.Rel, sj.Selected, sj.Reduced)
	}
	fmt.Fprintf(&b, "tries: built=%d derived=%d cache hit=%d miss=%d\n", q.TriesBuilt, q.TriesDerived, q.TrieCacheHits, q.TrieCacheMisses)
	fmt.Fprintf(&b, "heap: %s allocated, %d gc cycles\n", fmtBytes(q.AllocBytes), q.GCCycles)
	if q.MemHighWater > 0 {
		fmt.Fprintf(&b, "mem high-water: %s\n", fmtBytes(uint64(q.MemHighWater)))
	}
	if q.SnapshotEpoch > 0 {
		fmt.Fprintf(&b, "snapshot: epoch=%d delta rows folded=%d\n", q.SnapshotEpoch, q.DeltaRowsFolded)
	}
	if q.ApproxRoute != "" {
		degraded := ""
		if q.Degraded {
			degraded = " (degraded under overload)"
		}
		if q.Approx {
			miss := ""
			if q.MissBound > 0 {
				miss = fmt.Sprintf(" miss bound=%g", q.MissBound)
			}
			fmt.Fprintf(&b, "approx: route=%s error bound=%g confidence=%g%s%s\n",
				q.ApproxRoute, q.ErrorBound, q.Confidence, miss, degraded)
		} else {
			fmt.Fprintf(&b, "approx: route=%s (exact answer)%s\n", q.ApproxRoute, degraded)
		}
	}
	fmt.Fprintf(&b, "rows: %d\n", q.RowsOut)
	return b.String()
}

// Line renders a compact one-line form for benchmark harnesses.
func (q *QueryStats) Line() string {
	is := &q.Intersect
	return fmt.Sprintf("dispatch=%s plan=%t compile=%v execute=%v total=%v isect=%d(mg=%d gl=%d bu=%d bb=%d) cache=%d/%d alloc=%dB rows=%d",
		q.Dispatch, q.PlanCached, rd(q.Phases.Compile), rd(q.Phases.Execute), rd(q.Phases.Total),
		is.Total(), is.UintUintMerge, is.UintUintGallop, is.BsUint, is.BsBs,
		q.TrieCacheHits, q.TrieCacheHits+q.TrieCacheMisses, q.AllocBytes, q.RowsOut)
}

func rd(d time.Duration) time.Duration { return d.Round(time.Microsecond) }

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// EngineMetrics accumulates per-engine totals across queries. All
// counters are atomics: Record is one query-granularity update, and
// Snapshot can be read concurrently with running queries.
type EngineMetrics struct {
	Queries atomic.Uint64
	Errors  atomic.Uint64
	RowsOut atomic.Uint64

	ParseNs   atomic.Int64
	PlanNs    atomic.Int64
	FreezeNs  atomic.Int64
	CompileNs atomic.Int64
	ExecNs    atomic.Int64
	OutputNs  atomic.Int64
	TotalNs   atomic.Int64

	UintUintMerge  atomic.Uint64
	UintUintGallop atomic.Uint64
	BsUint         atomic.Uint64
	BsBs           atomic.Uint64
	IsectBytes     atomic.Uint64

	TrieCacheHits   atomic.Uint64
	TrieCacheMisses atomic.Uint64
	TriesBuilt      atomic.Uint64
	TriesDerived    atomic.Uint64
	PlanCacheHits   atomic.Uint64

	AllocBytes atomic.Uint64
	GCCycles   atomic.Uint64

	// c is the collector the engine reports to (nil on a bare
	// EngineMetrics, which then only counts); slow is the optional
	// slow-query log.
	c    *Collector
	slow *slowLog
}

// NewEngineMetrics returns one engine's metrics bound to collector c:
// c sums SnapshotCounters into its /metrics export, Snapshot adds c's
// latency quantiles, and Finish records each query into c as well.
// When slow is non-nil, Finish writes a JSON line to it for every
// query whose total latency reaches slowAt.
func NewEngineMetrics(c *Collector, slow io.Writer, slowAt time.Duration) *EngineMetrics {
	m := &EngineMetrics{c: c}
	if slow != nil {
		m.slow = &slowLog{w: slow, threshold: slowAt}
	}
	c.AddCounterSource(m.SnapshotCounters)
	return m
}

// Finish is the one end-of-query bookkeeping step, whatever way the
// query ended (success, error, admission shed, overload degrade): it
// closes the trace, retires the query from the live registry, records
// its latencies, counts it as a query or an error, folds it into the
// statement store and, when configured, the slow-query log. st must
// carry Phases.Total (and RowsOut on success).
func (m *EngineMetrics) Finish(st *QueryStats, aq *ActiveQuery, err error) {
	st.Trace.Finish()
	m.c.Registry.Finish(aq)
	m.c.observe(st, err)
	if err != nil {
		m.RecordError()
	} else {
		m.Record(st)
	}
	m.c.Statements.Record(st, err)
	m.slow.log(st, err)
}

// Record folds one finished query's stats into the totals.
func (m *EngineMetrics) Record(q *QueryStats) {
	m.Queries.Add(1)
	m.RowsOut.Add(uint64(q.RowsOut))
	m.ParseNs.Add(int64(q.Phases.Parse))
	m.PlanNs.Add(int64(q.Phases.Plan))
	m.FreezeNs.Add(int64(q.Phases.Freeze))
	m.CompileNs.Add(int64(q.Phases.Compile))
	m.ExecNs.Add(int64(q.Phases.Execute))
	m.OutputNs.Add(int64(q.Phases.Output))
	m.TotalNs.Add(int64(q.Phases.Total))
	m.UintUintMerge.Add(q.Intersect.UintUintMerge)
	m.UintUintGallop.Add(q.Intersect.UintUintGallop)
	m.BsUint.Add(q.Intersect.BsUint)
	m.BsBs.Add(q.Intersect.BsBs)
	m.IsectBytes.Add(q.Intersect.BytesOut)
	m.TrieCacheHits.Add(uint64(q.TrieCacheHits))
	m.TrieCacheMisses.Add(uint64(q.TrieCacheMisses))
	m.TriesBuilt.Add(uint64(q.TriesBuilt))
	m.TriesDerived.Add(uint64(q.TriesDerived))
	m.AllocBytes.Add(q.AllocBytes)
	m.GCCycles.Add(q.GCCycles)
	if q.PlanCached {
		m.PlanCacheHits.Add(1)
	}
}

// RecordError counts a failed query.
func (m *EngineMetrics) RecordError() { m.Errors.Add(1) }

// Snapshot exports the totals as an expvar-style flat map, plus the
// bound collector's latency quantiles (lat_<name>_p50_ns, ...).
func (m *EngineMetrics) Snapshot() map[string]int64 {
	snap := m.SnapshotCounters()
	if m.c != nil {
		for k, v := range m.c.Quantiles() {
			snap[k] = v
		}
	}
	return snap
}

// SnapshotCounters exports only the raw cumulative counters (no
// derived gauges) — the summable form for aggregating across engines.
func (m *EngineMetrics) SnapshotCounters() map[string]int64 {
	return map[string]int64{
		"queries":                  int64(m.Queries.Load()),
		"errors":                   int64(m.Errors.Load()),
		"rows_out":                 int64(m.RowsOut.Load()),
		"parse_ns":                 m.ParseNs.Load(),
		"plan_ns":                  m.PlanNs.Load(),
		"freeze_ns":                m.FreezeNs.Load(),
		"compile_ns":               m.CompileNs.Load(),
		"execute_ns":               m.ExecNs.Load(),
		"output_ns":                m.OutputNs.Load(),
		"total_ns":                 m.TotalNs.Load(),
		"isect_uint_uint_merge":    int64(m.UintUintMerge.Load()),
		"isect_uint_uint_gallop":   int64(m.UintUintGallop.Load()),
		"isect_bs_uint":            int64(m.BsUint.Load()),
		"isect_bs_bs":              int64(m.BsBs.Load()),
		"isect_bytes_materialized": int64(m.IsectBytes.Load()),
		"trie_cache_hits":          int64(m.TrieCacheHits.Load()),
		"trie_cache_misses":        int64(m.TrieCacheMisses.Load()),
		"tries_built":              int64(m.TriesBuilt.Load()),
		"tries_derived":            int64(m.TriesDerived.Load()),
		"plan_cache_hits":          int64(m.PlanCacheHits.Load()),
		"alloc_bytes":              int64(m.AllocBytes.Load()),
		"gc_cycles":                int64(m.GCCycles.Load()),
	}
}

// SnapshotString renders the snapshot with sorted keys, one per line.
func (m *EngineMetrics) SnapshotString() string { return sortedLines(m.Snapshot()) }

// sortedLines renders a flat metric map as "key value" lines sorted by
// key (the \metrics views).
func sortedLines(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-26s %d\n", k, m[k])
	}
	return b.String()
}

// slowLog is the structured slow-query log: JSON lines for every query
// at or above the threshold, serialized on one writer.
type slowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// slowEntry is one slow-query log line.
type slowEntry struct {
	TS          string `json:"ts"`
	QueryID     uint64 `json:"query_id"`
	SQL         string `json:"sql"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Epoch       uint64 `json:"snapshot_epoch,omitempty"`
	TotalNs     int64  `json:"total_ns"`
	ParseNs     int64  `json:"parse_ns,omitempty"`
	PlanNs      int64  `json:"plan_ns,omitempty"`
	FreezeNs    int64  `json:"freeze_ns,omitempty"`
	CompileNs   int64  `json:"compile_ns,omitempty"`
	ExecNs      int64  `json:"execute_ns,omitempty"`
	OutputNs    int64  `json:"output_ns,omitempty"`
	Dispatch    string `json:"dispatch,omitempty"`
	Rows        int    `json:"rows"`
	Error       string `json:"error,omitempty"`
}

// log emits a slow-query line when configured (non-nil) and over
// threshold.
func (l *slowLog) log(st *QueryStats, err error) {
	if l == nil || st.Phases.Total < l.threshold {
		return
	}
	ent := slowEntry{
		TS:        time.Now().UTC().Format(time.RFC3339Nano),
		QueryID:   st.Trace.ID(),
		SQL:       st.SQL,
		Epoch:     st.SnapshotEpoch,
		TotalNs:   int64(st.Phases.Total),
		ParseNs:   int64(st.Phases.Parse),
		PlanNs:    int64(st.Phases.Plan),
		FreezeNs:  int64(st.Phases.Freeze),
		CompileNs: int64(st.Phases.Compile),
		ExecNs:    int64(st.Phases.Execute),
		OutputNs:  int64(st.Phases.Output),
		Dispatch:  st.Dispatch,
		Rows:      st.RowsOut,
	}
	if st.Fingerprint != 0 {
		ent.Fingerprint = FingerprintHex(st.Fingerprint)
	}
	if err != nil {
		ent.Error = err.Error()
	}
	line, jerr := json.Marshal(ent)
	if jerr != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	l.w.Write(line)
	l.mu.Unlock()
}
