package obs

import (
	"container/list"
	"slices"
	"sort"
	"sync"
	"time"
)

// DefaultStatementCap bounds the statement store when the collector
// builds its own: enough for every distinct query shape of a dashboard
// fleet, small enough that the per-entry histograms stay a few MiB.
const DefaultStatementCap = 256

// StatementStats is one fingerprint's live accumulator.
type stmtEntry struct {
	elem *list.Element // position in the LRU list
	s    StatementSnapshot
	hist *Histogram
}

// StatementSnapshot is the exported, mergeable form of one
// fingerprint's statistics (the pg_stat_statements row analog).
type StatementSnapshot struct {
	Fingerprint uint64 `json:"-"`
	// FingerprintHex is the join key used everywhere fingerprints are
	// rendered (slow log, /metrics labels, EXPLAIN ANALYZE).
	FingerprintHex string `json:"fingerprint"`
	Text           string `json:"query"`

	Calls  uint64 `json:"calls"`
	Errors uint64 `json:"errors"`
	Rows   uint64 `json:"rows"`

	TotalNs int64 `json:"total_ns"`
	MeanNs  int64 `json:"mean_ns"`
	P50Ns   int64 `json:"p50_ns"`
	P95Ns   int64 `json:"p95_ns"`
	P99Ns   int64 `json:"p99_ns"`
	MaxNs   int64 `json:"max_ns"`

	AllocBytes   uint64 `json:"alloc_bytes"`
	MemHighWater int64  `json:"mem_high_water"` // max over calls
	DeltaRows    uint64 `json:"delta_rows_folded"`

	// Cost-model audit: cumulative estimated (§V icost×weight) and
	// observed (icost-weighted kernel counts) work, and their ratio —
	// the estimate-vs-actual calibration signal per statement shape.
	EstCost    float64 `json:"est_cost"`
	ActualCost float64 `json:"actual_cost"`
	CostRatio  float64 `json:"cost_ratio"` // ActualCost/EstCost, 0 when unknown

	// Approximate-tier usage: how many calls were answered with sketch
	// or sample estimates, and the error bound advertised last time.
	ApproxCalls    uint64  `json:"approx_calls,omitempty"`
	LastErrorBound float64 `json:"last_error_bound,omitempty"`

	// Plan drift: the optimizer's root attribute order last seen for
	// this fingerprint, how many times it changed, and the snapshot
	// epoch of the latest change (compaction re-sizing tables can
	// legitimately flip the §V decision; drift says it happened).
	LastOrder []string `json:"last_order,omitempty"`
	// LastPaths is the per-GHD-node access-path labels of the latest run
	// (wcoj/binary, pre-order) — the hybrid executor's decision record.
	LastPaths       []string `json:"last_paths,omitempty"`
	PlanChanges     uint64   `json:"plan_changes"`
	LastChangeEpoch uint64   `json:"last_change_epoch,omitempty"`
	LastEpoch       uint64   `json:"last_epoch"`

	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`

	// Hist carries the full latency histogram for merging across
	// engines/snapshots; omitted from JSON (the quantiles above are the
	// wire form).
	Hist *HistSnapshot `json:"-"`
}

// Merge folds another snapshot of the same fingerprint into s (fleet
// aggregation across engines or across scrape intervals).
func (s *StatementSnapshot) Merge(o *StatementSnapshot) {
	s.Calls += o.Calls
	s.Errors += o.Errors
	s.Rows += o.Rows
	s.TotalNs += o.TotalNs
	s.AllocBytes += o.AllocBytes
	s.DeltaRows += o.DeltaRows
	s.EstCost += o.EstCost
	s.ActualCost += o.ActualCost
	s.ApproxCalls += o.ApproxCalls
	s.PlanChanges += o.PlanChanges
	if o.MemHighWater > s.MemHighWater {
		s.MemHighWater = o.MemHighWater
	}
	if o.MaxNs > s.MaxNs {
		s.MaxNs = o.MaxNs
	}
	if o.LastSeen.After(s.LastSeen) {
		s.LastSeen = o.LastSeen
		s.LastOrder = o.LastOrder
		s.LastPaths = o.LastPaths
		s.LastEpoch = o.LastEpoch
		s.LastErrorBound = o.LastErrorBound
	}
	if o.LastChangeEpoch > s.LastChangeEpoch {
		s.LastChangeEpoch = o.LastChangeEpoch
	}
	if !o.FirstSeen.IsZero() && (s.FirstSeen.IsZero() || o.FirstSeen.Before(s.FirstSeen)) {
		s.FirstSeen = o.FirstSeen
	}
	if s.Hist != nil && o.Hist != nil {
		s.Hist.Merge(o.Hist)
	} else if s.Hist == nil {
		s.Hist = o.Hist
	}
	s.finish()
}

// finish recomputes the derived fields from the accumulated state.
func (s *StatementSnapshot) finish() {
	if s.Calls > 0 {
		s.MeanNs = s.TotalNs / int64(s.Calls)
	}
	if s.Hist != nil && s.Hist.Count > 0 {
		s.P50Ns = s.Hist.Quantile(0.50)
		s.P95Ns = s.Hist.Quantile(0.95)
		s.P99Ns = s.Hist.Quantile(0.99)
	}
	if s.EstCost > 0 {
		s.CostRatio = s.ActualCost / s.EstCost
	} else {
		s.CostRatio = 0
	}
}

// StatementStore is the bounded per-fingerprint statement-statistics
// table: an LRU keyed by fingerprint, updated once per finished query.
// Recording is one short mutex hold (map lookup, ~10 integer adds, an
// LRU splice) plus a lock-free histogram record — nothing per-tuple, so
// it is safe on the query hot path.
type StatementStore struct {
	mu      sync.Mutex
	cap     int
	m       map[uint64]*stmtEntry
	lru     *list.List // front = most recent
	evicted uint64
	drifts  uint64
}

// NewStatementStore creates a store bounded to cap fingerprints
// (cap <= 0 uses DefaultStatementCap).
func NewStatementStore(cap int) *StatementStore {
	if cap <= 0 {
		cap = DefaultStatementCap
	}
	return &StatementStore{cap: cap, m: make(map[uint64]*stmtEntry), lru: list.New()}
}

// Record folds one finished query (failed when err != nil) into its
// fingerprint's entry, creating (and, at capacity, evicting the
// least-recently-used) as needed. Fingerprint 0 (unparseable
// statement) is ignored.
func (st *StatementStore) Record(q *QueryStats, err error) {
	if st == nil || q.Fingerprint == 0 {
		return
	}
	dur := int64(q.Phases.Total)
	var est, actual float64
	for _, nc := range q.NodeCosts {
		est += nc.Est
		actual += nc.Actual
	}
	now := time.Now()
	st.mu.Lock()
	e := st.m[q.Fingerprint]
	if e == nil {
		if st.lru.Len() >= st.cap {
			old := st.lru.Back()
			st.lru.Remove(old)
			delete(st.m, old.Value.(uint64))
			st.evicted++
		}
		e = &stmtEntry{hist: &Histogram{}}
		e.s.Fingerprint = q.Fingerprint
		e.s.FingerprintHex = FingerprintHex(q.Fingerprint)
		e.s.Text = q.FingerprintText
		e.s.FirstSeen = now
		e.elem = st.lru.PushFront(q.Fingerprint)
		st.m[q.Fingerprint] = e
	} else {
		st.lru.MoveToFront(e.elem)
	}
	s := &e.s
	s.Calls++
	if err != nil {
		s.Errors++
	}
	s.Rows += uint64(q.RowsOut)
	s.TotalNs += dur
	if dur > s.MaxNs {
		s.MaxNs = dur
	}
	s.AllocBytes += q.AllocBytes
	if q.MemHighWater > s.MemHighWater {
		s.MemHighWater = q.MemHighWater
	}
	s.DeltaRows += uint64(q.DeltaRowsFolded)
	s.EstCost += est
	s.ActualCost += actual
	if q.Approx {
		s.ApproxCalls++
		s.LastErrorBound = q.ErrorBound
	}
	if len(q.RootOrder) > 0 {
		if len(s.LastOrder) > 0 && !slices.Equal(s.LastOrder, q.RootOrder) {
			s.PlanChanges++
			s.LastChangeEpoch = q.SnapshotEpoch
			st.drifts++
		}
		s.LastOrder = append(s.LastOrder[:0], q.RootOrder...)
	}
	if len(q.AccessPaths) > 0 {
		s.LastPaths = append(s.LastPaths[:0], q.AccessPaths...)
	}
	s.LastEpoch = q.SnapshotEpoch
	s.LastSeen = now
	st.mu.Unlock()
	// Histogram recording is atomic; no need to hold the store lock.
	e.hist.RecordNs(dur)
}

// Len reports the number of tracked fingerprints.
func (st *StatementStore) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// Lookup returns a deep-copied snapshot of one fingerprint's statistics
// (derived fields recomputed), or ok=false when untracked. The hybrid
// path classifier reads the statement's cost_ratio through this — the
// estimate-vs-actual drift signal feeding back into access-path
// pricing. Lookups do not touch the LRU order.
func (st *StatementStore) Lookup(fp uint64) (StatementSnapshot, bool) {
	if st == nil {
		return StatementSnapshot{}, false
	}
	st.mu.Lock()
	e := st.m[fp]
	if e == nil {
		st.mu.Unlock()
		return StatementSnapshot{}, false
	}
	s := e.s
	s.LastOrder = append([]string(nil), e.s.LastOrder...)
	s.LastPaths = append([]string(nil), e.s.LastPaths...)
	hist := e.hist
	st.mu.Unlock()
	s.Hist = hist.Snapshot()
	s.finish()
	return s, true
}

// CostRatio returns the fingerprint's cumulative actual/estimated cost
// ratio, or 0 when the statement is untracked or has no cost estimate
// yet. This is the allocation-free fast path of Lookup for the per-query
// access-path classifier.
func (st *StatementStore) CostRatio(fp uint64) float64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.m[fp]; e != nil && e.s.EstCost > 0 {
		return e.s.ActualCost / e.s.EstCost
	}
	return 0
}

// Evicted reports how many fingerprints were pushed out by the LRU cap.
func (st *StatementStore) Evicted() uint64 {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evicted
}

// Reset clears every entry (tests and \statements reset).
func (st *StatementStore) Reset() {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.m = make(map[uint64]*stmtEntry)
	st.lru = list.New()
	st.mu.Unlock()
}

// Statement sort keys accepted by Snapshots' by selector.
var StatementSortKeys = []string{"time", "calls", "mean", "rows", "errors", "alloc", "drift", "ratio"}

// Snapshots exports every tracked fingerprint sorted by the selector
// (descending): "time" (default) = total latency, "calls", "mean",
// "rows", "errors", "alloc", "drift" = plan changes, "ratio" =
// estimate-vs-actual cost ratio. limit <= 0 returns all. Snapshots are
// deep copies: safe to hold, merge and serialize while queries run.
func (st *StatementStore) Snapshots(by string, limit int) []StatementSnapshot {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	out := make([]StatementSnapshot, 0, len(st.m))
	hists := make([]*Histogram, 0, len(st.m))
	for _, e := range st.m {
		s := e.s
		s.LastOrder = append([]string(nil), e.s.LastOrder...)
		s.LastPaths = append([]string(nil), e.s.LastPaths...)
		out = append(out, s)
		hists = append(hists, e.hist)
	}
	st.mu.Unlock()
	for i := range out {
		out[i].Hist = hists[i].Snapshot()
		out[i].finish()
	}
	less := func(i, j int) bool { return out[i].TotalNs > out[j].TotalNs }
	switch by {
	case "", "time":
	case "calls":
		less = func(i, j int) bool { return out[i].Calls > out[j].Calls }
	case "mean":
		less = func(i, j int) bool { return out[i].MeanNs > out[j].MeanNs }
	case "rows":
		less = func(i, j int) bool { return out[i].Rows > out[j].Rows }
	case "errors":
		less = func(i, j int) bool { return out[i].Errors > out[j].Errors }
	case "alloc":
		less = func(i, j int) bool { return out[i].AllocBytes > out[j].AllocBytes }
	case "drift":
		less = func(i, j int) bool { return out[i].PlanChanges > out[j].PlanChanges }
	case "ratio":
		less = func(i, j int) bool { return out[i].CostRatio > out[j].CostRatio }
	}
	// Fingerprint tie-break keeps the order deterministic for tests and
	// stable pagination.
	sort.Slice(out, func(i, j int) bool {
		if less(i, j) != less(j, i) {
			return less(i, j)
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// Counters exports store-level totals for the /metrics counter sum
// (per-fingerprint series are emitted separately by the exposition
// layer).
func (st *StatementStore) Counters() map[string]int64 {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return map[string]int64{
		"statements_tracked":     int64(len(st.m)),
		"statements_evicted":     int64(st.evicted),
		"statement_plan_changes": int64(st.drifts),
	}
}

// FingerprintHex renders a fingerprint ID the way every surface joins
// on it (slow log, /metrics labels, /debug/statements).
func FingerprintHex(fp uint64) string {
	const hexdigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[fp&0xf]
		fp >>= 4
	}
	return string(buf[:])
}
