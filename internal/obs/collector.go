package obs

import (
	"strings"
	"sync"
	"time"

	"repro/internal/set"
)

// Phase histogram names, in rendering order. "total" is whole-query
// latency; the rest are per-lifecycle-phase.
var PhaseNames = []string{"total", "parse", "plan", "freeze", "compile", "execute", "output"}

// Collector owns an engine's (or a fleet of engines') aggregated
// telemetry: latency histograms per phase and per dispatch class, the
// live query registry, and the counter sources feeding /metrics. One
// collector may be shared by several engines (lhbench runs many); each
// engine's EngineMetrics registers its counters as a source.
type Collector struct {
	Registry *Registry

	// Statements is the per-fingerprint statement-statistics store
	// (pg_stat_statements analog), shared by every engine bound to this
	// collector and exported on /debug/statements and /metrics.
	Statements *StatementStore

	phase map[string]*Histogram // fixed keys (PhaseNames), immutable after New

	mu       sync.RWMutex
	class    map[string]*Histogram // dispatch label → total-latency histogram
	counters []func() map[string]int64
}

// NewCollector creates an empty collector with its own registry.
func NewCollector() *Collector {
	c := &Collector{
		Registry:   NewRegistry(0),
		Statements: NewStatementStore(0),
		phase:      make(map[string]*Histogram, len(PhaseNames)),
		class:      map[string]*Histogram{},
	}
	for _, p := range PhaseNames {
		c.phase[p] = &Histogram{}
	}
	c.AddCounterSource(c.Statements.Counters)
	return c
}

// AddCounterSource registers a snapshot function whose values are
// summed into the /metrics counter export (one per engine).
func (c *Collector) AddCounterSource(f func() map[string]int64) {
	c.mu.Lock()
	c.counters = append(c.counters, f)
	c.mu.Unlock()
}

// ObservePhase records one phase duration (no-op for unknown phases).
func (c *Collector) ObservePhase(phase string, d time.Duration) {
	if h := c.phase[phase]; h != nil {
		h.Record(d)
	}
}

// ObserveClass records one whole-query latency under its dispatch
// class (scalar-scan, dense-mm, spmv-gather, generic-wcoj, ...).
func (c *Collector) ObserveClass(class string, d time.Duration) {
	if class == "" {
		class = "unknown"
	}
	c.mu.RLock()
	h := c.class[class]
	c.mu.RUnlock()
	if h == nil {
		c.mu.Lock()
		h = c.class[class]
		if h == nil {
			h = &Histogram{}
			c.class[class] = h
		}
		c.mu.Unlock()
	}
	h.Record(d)
}

// observe feeds one finished query into the latency histograms: every
// nonzero phase, plus whole-query latency under the dispatch class the
// query ended on (failed queries have no class).
func (c *Collector) observe(st *QueryStats, err error) {
	c.ObservePhase("total", st.Phases.Total)
	for _, p := range [...]struct {
		name string
		d    time.Duration
	}{
		{"parse", st.Phases.Parse}, {"plan", st.Phases.Plan},
		{"freeze", st.Phases.Freeze}, {"compile", st.Phases.Compile},
		{"execute", st.Phases.Execute}, {"output", st.Phases.Output},
	} {
		if p.d > 0 {
			c.ObservePhase(p.name, p.d)
		}
	}
	if err == nil {
		c.ObserveClass(st.Dispatch, st.Phases.Total)
	}
	// Per-kernel latency estimates: the set kernels time one in every
	// sampleStride invocations; a query that sampled a kernel at least
	// once contributes its mean sampled latency under a kernel: class,
	// so /metrics exports p50/p95/p99 per intersection kernel.
	for k := 0; k < set.NumKernels; k++ {
		if ns, ok := st.Intersect.SampledMeanNs(k); ok {
			c.ObserveClass("kernel:"+set.KernelNames[k], time.Duration(ns))
		}
	}
}

// PhaseSnapshot returns the named phase histogram's snapshot (nil for
// unknown phases).
func (c *Collector) PhaseSnapshot(phase string) *HistSnapshot {
	if h := c.phase[phase]; h != nil {
		return h.Snapshot()
	}
	return nil
}

// ClassSnapshots returns a snapshot per dispatch class seen so far.
func (c *Collector) ClassSnapshots() map[string]*HistSnapshot {
	c.mu.RLock()
	out := make(map[string]*HistSnapshot, len(c.class))
	for k, h := range c.class {
		out[k] = h.Snapshot()
	}
	c.mu.RUnlock()
	return out
}

// Counters sums every registered counter source into one flat map.
func (c *Collector) Counters() map[string]int64 {
	c.mu.RLock()
	srcs := append([]func() map[string]int64(nil), c.counters...)
	c.mu.RUnlock()
	out := map[string]int64{}
	for _, f := range srcs {
		for k, v := range f() {
			out[k] += v
		}
	}
	return out
}

// Quantiles exports p50/p95/p99 per phase and dispatch class as flat
// ns-valued gauges (lat_<name>_p50_ns, ...), skipping empty histograms.
// EngineMetrics.Snapshot merges this map into its counters.
func (c *Collector) Quantiles() map[string]int64 {
	out := map[string]int64{}
	add := func(name string, s *HistSnapshot) {
		if s == nil || s.Count == 0 {
			return
		}
		key := sanitizeMetricName(name)
		out["lat_"+key+"_p50_ns"] = s.Quantile(0.50)
		out["lat_"+key+"_p95_ns"] = s.Quantile(0.95)
		out["lat_"+key+"_p99_ns"] = s.Quantile(0.99)
	}
	for _, p := range PhaseNames {
		add(p, c.phase[p].Snapshot())
	}
	for class, s := range c.ClassSnapshots() {
		add(class, s)
	}
	return out
}

// sanitizeMetricName maps a label to [a-z0-9_] (Prometheus-safe).
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// String renders counters, quantiles and in-flight count as sorted
// "key value" lines (the \metrics superset view).
func (c *Collector) String() string {
	m := c.Counters()
	for k, v := range c.Quantiles() {
		m[k] = v
	}
	m["inflight_queries"] = int64(c.Registry.NumActive())
	return sortedLines(m)
}
