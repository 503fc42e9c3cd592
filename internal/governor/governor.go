// Package governor is the engine's resource-governance layer: it keeps
// an overloaded or adversarial workload from taking the process down.
//
// Two mechanisms compose:
//
//   - Admission control: a weighted semaphore bounds how many queries
//     execute concurrently, a bounded FIFO wait queue absorbs bursts,
//     and anything beyond that is shed immediately with a typed
//     qerr.OverloadedError carrying a Retry-After hint. Queued waiters
//     are deadline-aware: a context that cannot outlast the expected
//     wait is shed instead of queued, and cancellation while queued
//     dequeues promptly.
//
//   - Memory accounting: each admitted query gets an Accountant charged
//     at the engine's large-allocation sites (query-trie builds, worker
//     output buffers, aggregation tables, result assembly). Charges are
//     checked against the query's budget and against an engine-wide
//     soft limit fed by runtime/metrics heap readings; an over-budget
//     query aborts with qerr.ResourceExhaustedError instead of OOMing
//     the process.
//
// Everything is cheap when unconfigured: with no limits set, admission
// is two atomic adds per query and accounting is disabled (nil
// Accountant, nil-safe Charge).
package governor

import (
	"container/list"
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/qerr"
)

// Config bounds an engine's resource usage. Zero values disable the
// corresponding mechanism.
type Config struct {
	// MaxConcurrency is the weighted-semaphore capacity: the total
	// admission weight (1 per query by default) executing at once.
	// 0 = unlimited.
	MaxConcurrency int
	// QueueDepth bounds how many queries may wait for admission before
	// load shedding starts. 0 = no queueing: at capacity, shed.
	QueueDepth int
	// MemoryBudget is the default per-query charge budget in bytes.
	// 0 = unlimited.
	MemoryBudget int64
	// SoftLimit is the engine-wide memory soft limit in bytes: when the
	// total charged across live queries, or the process heap as read
	// from runtime/metrics, exceeds it, the currently charging query is
	// aborted. 0 = unlimited.
	SoftLimit int64
}

// Governor owns one engine's admission state and memory accounting.
// The zero value is not usable; call New.
type Governor struct {
	cfg Config

	mu      sync.Mutex
	inUse   int64      // admitted weight currently executing
	waiters *list.List // of *waiter, FIFO
	closed  bool       // shutting down: admit nothing new

	charged atomic.Int64 // bytes charged across all live accountants

	// heapSample caches the runtime/metrics heap reading so the charge
	// path never reads it more than once per heapSampleEvery.
	heapBytes   atomic.Int64
	heapSampled atomic.Int64 // unix nanos of the last sample

	// ewmaNs tracks recent query latency (released queries), feeding the
	// Retry-After hint and the deadline-aware queue check.
	ewmaNs atomic.Int64

	admitted   atomic.Int64
	queuedTot  atomic.Int64
	shed       atomic.Int64
	memAborted atomic.Int64
	panics     atomic.Int64
}

type waiter struct {
	weight int64
	// ready is closed once a decision is made; granted (written before
	// the close, so the close's happens-before publishes it) says which
	// way it went: admitted, or shed by shutdown.
	ready   chan struct{}
	granted bool
}

// New creates a governor for the given config.
func New(cfg Config) *Governor {
	return &Governor{cfg: cfg, waiters: list.New()}
}

// Config returns the governor's configuration.
func (g *Governor) Config() Config {
	if g == nil {
		return Config{}
	}
	return g.cfg
}

// heapSampleEvery bounds how often Charge reads runtime/metrics.
const heapSampleEvery = 10 * time.Millisecond

// minRetryAfter floors the Retry-After hint.
const minRetryAfter = 100 * time.Millisecond

// Acquire admits one query of the given weight (clamped to the
// semaphore capacity so an over-weighted query can still run alone). It
// returns a release func that must be called exactly once when the
// query finishes. At capacity the query waits in a bounded FIFO queue;
// a full queue, a deadline that cannot outlast the expected wait, or a
// closed (draining) governor sheds it with *qerr.OverloadedError.
// Context cancellation while queued returns ctx.Err().
func (g *Governor) Acquire(ctx context.Context, weight int64) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	if weight < 1 {
		weight = 1
	}
	maxW := int64(g.cfg.MaxConcurrency)
	if maxW > 0 && weight > maxW {
		weight = maxW
	}
	start := time.Now()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.shed.Add(1)
		return nil, &qerr.OverloadedError{Reason: "shutting down", RetryAfter: g.retryAfter(0)}
	}
	if maxW == 0 {
		// Concurrency unbounded: count and go.
		g.mu.Unlock()
		g.admitted.Add(1)
		return func() { g.observeLatency(start) }, nil
	}
	if g.inUse+weight <= maxW && g.waiters.Len() == 0 {
		g.inUse += weight
		g.mu.Unlock()
		g.admitted.Add(1)
		return g.releaseFunc(weight, start), nil
	}
	// At capacity: queue or shed.
	nq := g.waiters.Len()
	if nq >= g.cfg.QueueDepth {
		g.mu.Unlock()
		g.shed.Add(1)
		return nil, &qerr.OverloadedError{Reason: "queue full", RetryAfter: g.retryAfter(nq)}
	}
	if dl, ok := ctx.Deadline(); ok {
		// Deadline-aware queueing: if the deadline cannot outlast the
		// expected wait for this queue position, shed now instead of
		// occupying a slot that will certainly time out.
		if wait := g.expectedWait(nq); wait > 0 && time.Until(dl) < wait {
			g.mu.Unlock()
			g.shed.Add(1)
			return nil, &qerr.OverloadedError{Reason: "deadline before admission", RetryAfter: g.retryAfter(nq)}
		}
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	elem := g.waiters.PushBack(w)
	g.mu.Unlock()
	g.queuedTot.Add(1)

	select {
	case <-w.ready:
		if !w.granted {
			g.shed.Add(1)
			return nil, &qerr.OverloadedError{Reason: "shutting down", RetryAfter: g.retryAfter(0)}
		}
		g.admitted.Add(1)
		return g.releaseFunc(weight, start), nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w.ready:
			granted := w.granted
			if granted {
				// Lost the race: admitted just as the context died.
				// Return the weight and hand the slot onward.
				g.inUse -= weight
				g.dispatchLocked()
			}
			g.mu.Unlock()
		default:
			g.waiters.Remove(elem)
			g.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// releaseFunc builds the idempotence-guarded release closure.
func (g *Governor) releaseFunc(weight int64, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.observeLatency(start)
			g.mu.Lock()
			g.inUse -= weight
			g.dispatchLocked()
			g.mu.Unlock()
		})
	}
}

// dispatchLocked admits queued waiters that now fit (FIFO; head-of-line
// blocking is deliberate — it preserves arrival fairness).
func (g *Governor) dispatchLocked() {
	maxW := int64(g.cfg.MaxConcurrency)
	for e := g.waiters.Front(); e != nil; e = g.waiters.Front() {
		w := e.Value.(*waiter)
		if g.inUse+w.weight > maxW {
			return
		}
		g.inUse += w.weight
		g.waiters.Remove(e)
		w.granted = true
		close(w.ready)
	}
}

// observeLatency folds a finished (or unbounded-admission) query's wall
// time into the EWMA feeding Retry-After and deadline-aware queueing.
func (g *Governor) observeLatency(start time.Time) {
	d := time.Since(start).Nanoseconds()
	for {
		old := g.ewmaNs.Load()
		nw := d
		if old > 0 {
			nw = old + (d-old)/8
		}
		if g.ewmaNs.CompareAndSwap(old, nw) {
			return
		}
	}
}

// expectedWait estimates how long the next query would sit at queue
// position pos: queue drain time at the observed per-query latency over
// MaxConcurrency parallel slots.
func (g *Governor) expectedWait(pos int) time.Duration {
	ewma := g.ewmaNs.Load()
	if ewma == 0 || g.cfg.MaxConcurrency == 0 {
		return 0
	}
	return time.Duration(ewma * int64(pos+1) / int64(g.cfg.MaxConcurrency))
}

// retryAfter computes the shed hint from the expected queue drain time.
func (g *Governor) retryAfter(queueLen int) time.Duration {
	d := g.expectedWait(queueLen)
	if d < minRetryAfter {
		return minRetryAfter
	}
	return d
}

// BeginShutdown stops admitting: every subsequent Acquire sheds with
// "shutting down", and queued waiters are shed immediately. In-flight
// queries keep running until they release (the drain loop's job).
func (g *Governor) BeginShutdown() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closed = true
	for e := g.waiters.Front(); e != nil; e = g.waiters.Front() {
		w := e.Value.(*waiter)
		g.waiters.Remove(e)
		close(w.ready) // granted stays false: shed
	}
	g.mu.Unlock()
}

// InUse reports the admitted weight currently executing.
func (g *Governor) InUse() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inUse
}

// QueueLen reports the number of queries waiting for admission.
func (g *Governor) QueueLen() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiters.Len()
}

// Charged reports the total bytes currently charged across live
// accountants.
func (g *Governor) Charged() int64 {
	if g == nil {
		return 0
	}
	return g.charged.Load()
}

// RecordPanic counts a panic converted at a recovery barrier.
func (g *Governor) RecordPanic() {
	if g != nil {
		g.panics.Add(1)
	}
}

// Counters exports the governor's counters and gauges in the flat
// summable form the telemetry collector aggregates onto /metrics.
func (g *Governor) Counters() map[string]int64 {
	if g == nil {
		return nil
	}
	return map[string]int64{
		"gov_admitted":          g.admitted.Load(),
		"gov_queued":            g.queuedTot.Load(),
		"gov_shed":              g.shed.Load(),
		"gov_mem_aborted":       g.memAborted.Load(),
		"gov_panics_recovered":  g.panics.Load(),
		"gov_inflight_weight":   g.InUse(),
		"gov_queue_len":         int64(g.QueueLen()),
		"gov_mem_charged_bytes": g.charged.Load(),
	}
}

// sampleHeap returns the current heap-objects byte count from
// runtime/metrics, re-reading at most once per heapSampleEvery.
func (g *Governor) sampleHeap() int64 {
	now := time.Now().UnixNano()
	last := g.heapSampled.Load()
	if now-last < int64(heapSampleEvery) {
		return g.heapBytes.Load()
	}
	if !g.heapSampled.CompareAndSwap(last, now) {
		return g.heapBytes.Load() // another goroutine is sampling
	}
	s := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s[:])
	v := int64(s[0].Value.Uint64())
	g.heapBytes.Store(v)
	return v
}

// Accountant tracks one query's memory charges. A nil Accountant is
// valid and free: every method no-ops, so the hot path stays branch-
// predictable when accounting is off.
type Accountant struct {
	g      *Governor
	sql    string
	budget int64 // 0 = unlimited
	used   atomic.Int64
	closed atomic.Bool
}

// NewAccountant opens a per-query accountant. budget <= 0 falls back to
// the config default; a governor with no budget and no soft limit
// returns nil (accounting disabled, zero overhead).
func (g *Governor) NewAccountant(sql string, budget int64) *Accountant {
	if g == nil {
		return nil
	}
	if budget <= 0 {
		budget = g.cfg.MemoryBudget
	}
	if budget <= 0 && g.cfg.SoftLimit <= 0 {
		return nil
	}
	return &Accountant{g: g, sql: sql, budget: budget}
}

// Charge accounts n bytes about to be (or just) allocated for the
// query. It fails with *qerr.ResourceExhaustedError when the query's
// budget or the engine soft limit is exceeded; the caller must abort
// the query. Over-charge beyond the failure point stays recorded so
// Close releases exactly what was charged.
func (a *Accountant) Charge(n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	if err := faultinject.Err(faultinject.PointGovernorCharge); err != nil {
		a.g.memAborted.Add(1)
		return &qerr.ResourceExhaustedError{SQL: a.sql, Used: a.used.Load(), Limit: a.budget}
	}
	used := a.used.Add(n)
	total := a.g.charged.Add(n)
	if a.budget > 0 && used > a.budget {
		a.g.memAborted.Add(1)
		return &qerr.ResourceExhaustedError{SQL: a.sql, Used: used, Limit: a.budget}
	}
	if soft := a.g.cfg.SoftLimit; soft > 0 {
		if total > soft {
			a.g.memAborted.Add(1)
			return &qerr.ResourceExhaustedError{SQL: a.sql, Used: used, Limit: soft, Engine: true}
		}
		if heap := a.g.sampleHeap(); heap > soft {
			a.g.memAborted.Add(1)
			return &qerr.ResourceExhaustedError{SQL: a.sql, Used: used, Limit: soft, Engine: true}
		}
	}
	return nil
}

// Fits reports whether n more bytes would stay within the query's
// budget and the engine soft limit, charging nothing: the test for
// optional work a query skips when memory is short.
func (a *Accountant) Fits(n int64) bool {
	if a == nil {
		return true
	}
	if a.budget > 0 && a.used.Load()+n > a.budget {
		return false
	}
	soft := a.g.cfg.SoftLimit
	return soft <= 0 || (a.g.charged.Load()+n <= soft && a.g.sampleHeap()+n <= soft)
}

// Used reports the bytes charged so far.
func (a *Accountant) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// Close releases every charge back to the engine total. Idempotent.
func (a *Accountant) Close() {
	if a == nil || !a.closed.CompareAndSwap(false, true) {
		return
	}
	a.g.charged.Add(-a.used.Load())
}
