// Package core assembles the LevelHeaded engine (paper §III): catalog,
// SQL front-end, GHD-based query compiler, cost-based attribute
// ordering, and the WCOJ execution engine, behind one Engine type. The
// public facade at the repository root (import "repro") wraps this
// package.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/costopt"
	"repro/internal/exec"
	"repro/internal/ghd"
	"repro/internal/governor"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/qerr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Engine is a LevelHeaded instance: a catalog plus query machinery.
// Methods are safe for concurrent use after Freeze — including
// Table.Append/AppendBatch, which land in per-table delta stores and
// surface through epoch snapshots without an explicit compaction.
type Engine struct {
	mu      sync.Mutex
	cat     *storage.Catalog
	cache   *exec.TrieCache
	plans   *lru.Cache[string, *preparedPlan]
	metrics *obs.EngineMetrics
	tel     *obs.Collector
	slow    io.Writer
	slowAt  time.Duration
	gov     *governor.Governor

	threads    int
	noAttrElim bool
	noCostOpt  bool
	pickWorst  bool
	noBLAS     bool
	noCache    bool
	govCfg     governor.Config

	// Compaction state: one compaction at a time, optionally kicked in
	// the background when the delta debt crosses autoCompactRows.
	compactMu       sync.Mutex
	compactInFlight atomic.Bool
	compactions     atomic.Int64
	compactedRows   atomic.Int64
	autoCompactRows int
	bgCtx           context.Context
	bgCancel        context.CancelFunc
	bgWG            sync.WaitGroup

	// Approximate-tier state (see approx.go): per-table summaries
	// (HLL + reservoir sample) built lazily on first
	// approximate use and extended as snapshots grow.
	approxMu         sync.Mutex
	summaries        map[string]*approx.Summary
	approxSampleRows int
	approxQueries    atomic.Int64
	approxDegraded   atomic.Int64

	// Durability state (nil unless WithDurability): see durable.go.
	dur *durState
}

// Option configures an Engine.
type Option func(*Engine)

// WithThreads bounds query parallelism (0 = GOMAXPROCS).
func WithThreads(n int) Option { return func(e *Engine) { e.threads = n } }

// WithAttributeElimination toggles the §IV attribute-elimination
// optimization; disabling it reproduces the "-Attr. Elim." rows of
// Table III (all annotation columns loaded, no dense BLAS dispatch).
func WithAttributeElimination(on bool) Option {
	return func(e *Engine) { e.noAttrElim = !on }
}

// WithCostOptimizer toggles the §V cost-based attribute ordering;
// disabled, the engine picks EmptyHeaded-style orders.
func WithCostOptimizer(on bool) Option { return func(e *Engine) { e.noCostOpt = !on } }

// WithWorstOrder makes the optimizer select the highest-cost order
// (the "-Attr. Ord." rows of Table III).
func WithWorstOrder(on bool) Option { return func(e *Engine) { e.pickWorst = on } }

// WithBLAS toggles the dense-kernel dispatch of §III-D.
func WithBLAS(on bool) Option { return func(e *Engine) { e.noBLAS = !on } }

// WithTrieCache toggles reuse of unfiltered query tries, and of the base
// orders filtered tries derive from, across queries (the physical index
// whose creation the paper's timings exclude).
func WithTrieCache(on bool) Option { return func(e *Engine) { e.noCache = !on } }

// WithTelemetry shares a telemetry collector with this engine instead
// of creating a private one — histograms, the live query registry and
// the /metrics counter export then aggregate over every engine bound
// to the collector (lhbench runs a fleet of engines behind one debug
// server).
func WithTelemetry(c *obs.Collector) Option { return func(e *Engine) { e.tel = c } }

// WithSlowQueryLog emits one JSON line per query whose total latency
// reaches threshold (phase breakdown, dispatch class, rows, error).
// The writer is serialized internally; pass os.Stderr or a log file.
func WithSlowQueryLog(w io.Writer, threshold time.Duration) Option {
	return func(e *Engine) { e.slow, e.slowAt = w, threshold }
}

// WithMemoryBudget caps the tracked memory (query tries, worker
// buffers, aggregation tables, result assembly) of each query; an
// over-budget query aborts with qerr.ResourceExhaustedError. 0 means
// unlimited.
func WithMemoryBudget(n int64) Option {
	return func(e *Engine) { e.govCfg.MemoryBudget = n }
}

// WithMemorySoftLimit sets the engine-wide soft memory limit: when the
// sum of tracked allocations — or the process heap — exceeds it, the
// next query to allocate aborts with an engine-wide
// qerr.ResourceExhaustedError. 0 means unlimited.
func WithMemorySoftLimit(n int64) Option {
	return func(e *Engine) { e.govCfg.SoftLimit = n }
}

// WithMaxConcurrency bounds the number of concurrently executing
// queries; excess queries wait in the admission queue. 0 means
// unlimited.
func WithMaxConcurrency(n int) Option {
	return func(e *Engine) { e.govCfg.MaxConcurrency = n }
}

// WithQueueDepth bounds the admission wait queue; a query arriving with
// the queue full is shed immediately with qerr.OverloadedError (0 with
// admission control on means no queueing: shed when saturated).
func WithQueueDepth(n int) Option {
	return func(e *Engine) { e.govCfg.QueueDepth = n }
}

// WithAutoCompact kicks a background Compact whenever the catalog-wide
// delta debt (appended-but-uncompacted rows) reaches rows. 0 (the
// default) disables automatic compaction; appends are still folded
// incrementally by the snapshot builder, so auto-compaction only
// bounds memory, never visibility.
func WithAutoCompact(rows int) Option {
	return func(e *Engine) { e.autoCompactRows = rows }
}

// WithApproxSampleRows sets the per-table reservoir capacity of the
// approximate query tier (default approx.DefaultSampleRows). Smaller
// samples answer faster with wider error bounds, and make the sample
// route price in on smaller tables.
func WithApproxSampleRows(n int) Option {
	return func(e *Engine) { e.approxSampleRows = n }
}

// New creates an empty engine.
func New(opts ...Option) *Engine {
	e := &Engine{cat: storage.NewCatalog(), cache: exec.NewTrieCache(), plans: lru.New[string, *preparedPlan](maxCachedPlans), summaries: map[string]*approx.Summary{}}
	for _, o := range opts {
		o(e)
	}
	if e.tel == nil {
		e.tel = obs.NewCollector()
	}
	e.metrics = obs.NewEngineMetrics(e.tel, e.slow, e.slowAt)
	e.gov = governor.New(e.govCfg)
	e.bgCtx, e.bgCancel = context.WithCancel(context.Background())
	e.tel.AddCounterSource(e.gov.Counters)
	e.tel.AddCounterSource(e.deltaCounters)
	e.tel.AddCounterSource(e.approxCounters)
	if e.dur != nil {
		// Recovery runs before the engine is visible to any caller, so
		// the first query already sees the restored state; failures are
		// recorded (RecoveryError) and the engine comes up regardless.
		e.recoverStartup()
		// Hook the catalog (possibly the one recovery just rebuilt) so
		// EVERY subsequent table creation — via Engine.CreateTable or
		// directly on the catalog by a dataset generator — persists its
		// schema and gets a WAL attached before it accepts appends.
		e.cat.OnCreate(func(t *storage.Table) error {
			return e.registerDurableTable(t.Schema.Name)
		})
		e.startGroupCommit()
		e.tel.AddCounterSource(e.durCounters)
	}
	return e
}

// Catalog exposes the engine's catalog for loading data.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// CreateTable registers a new base table. On a durable engine the
// schema manifest is rewritten and a WAL attached before the table is
// returned, so even the very first append is recoverable.
func (e *Engine) CreateTable(s storage.Schema) (*storage.Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Durability (WAL attach + schema persistence) rides the catalog's
	// OnCreate hook, so it also covers generators creating tables
	// directly on the catalog.
	return e.cat.Create(s)
}

// Freeze builds dictionaries and encodings; it runs automatically on
// the first query. It is NOT a mutation barrier: rows appended after
// Freeze land in per-table delta stores and stay queryable.
func (e *Engine) Freeze() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cat.Freeze()
}

// Compact folds every table's appended delta rows into its base
// generation and truncates the delta logs; on a durable engine it then
// writes a snapshot. The fold copies no column data (see
// storage.Catalog.Compact), so it is charged to no accountant. It is
// single-flight, cancellable per table via ctx, and panic-contained
// like a query. Dictionary codes are stable across compaction, so
// results are byte-identical before and after. On a never-frozen
// catalog it performs the initial freeze.
func (e *Engine) Compact(ctx context.Context) (err error) {
	if ferr := e.Freeze(); ferr != nil {
		return ferr
	}
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			ie := qerr.CapturePanic(r)
			e.gov.RecordPanic()
			err = ie
		}
	}()
	n, _, cerr := e.cat.Compact(ctx)
	if n > 0 {
		e.compactions.Add(1)
		e.compactedRows.Add(int64(n))
		e.purgeStaleTries()
		e.refreshSummaries()
	}
	if cerr == nil && e.dur != nil {
		// Persist the compacted state: atomic snapshot write, then WAL
		// truncation up to the rotated cutoffs. A failed snapshot leaves
		// the WAL segments in place — recovery replays them over the
		// previous snapshot, so durability is never weakened by the
		// failure, and the error tells the caller the checkpoint didn't
		// advance.
		cerr = e.writeSnapshot()
	}
	return cerr
}

// purgeStaleTries drops cached tries built from superseded generations.
func (e *Engine) purgeStaleTries() {
	for _, name := range e.cat.Tables() {
		if t := e.cat.Table(name); t != nil {
			e.cache.PurgeTable(name, t.Live().Generation())
		}
	}
}

// maybeAutoCompact kicks a background compaction when the accumulated
// delta debt crosses the configured threshold.
func (e *Engine) maybeAutoCompact() {
	if e.autoCompactRows <= 0 || e.compactInFlight.Load() {
		return
	}
	if e.cat.DeltaRows() < e.autoCompactRows {
		return
	}
	if !e.compactInFlight.CompareAndSwap(false, true) {
		return
	}
	e.bgWG.Add(1)
	go func() {
		defer e.bgWG.Done()
		defer e.compactInFlight.Store(false)
		// Compact contains panics and honors bgCtx, which BeginShutdown
		// cancels; a failed background compaction retries on the next
		// threshold crossing.
		_ = e.Compact(e.bgCtx)
	}()
}

// IngestRows appends a batch of rows to the named table under governor
// admission: an overloaded engine sheds the batch with
// qerr.OverloadedError (lhserve maps it to HTTP 429) instead of letting
// writers starve queries. Returns the number of rows appended.
func (e *Engine) IngestRows(ctx context.Context, table string, rows [][]interface{}) (int, error) {
	t := e.cat.Table(table)
	if t == nil {
		return 0, &qerr.UnknownTableError{Name: table}
	}
	release, err := e.gov.Acquire(ctx, 1)
	if err != nil {
		return 0, err
	}
	defer release()
	if err := t.AppendBatch(rows); err != nil {
		return 0, err
	}
	e.maybeAutoCompact()
	return len(rows), nil
}

// IngestDelimited streams delimiter-separated rows into a table under
// the same governor admission as IngestRows, returning the number of
// rows appended. A mid-stream parse error or cancellation leaves the
// fully committed chunks appended and reports their count alongside
// the error.
func (e *Engine) IngestDelimited(ctx context.Context, table string, r io.Reader, delim byte) (int, error) {
	t := e.cat.Table(table)
	if t == nil {
		return 0, &qerr.UnknownTableError{Name: table}
	}
	release, err := e.gov.Acquire(ctx, 1)
	if err != nil {
		return 0, err
	}
	defer release()
	before := t.TotalRows()
	lerr := t.LoadDelimitedContext(ctx, r, delim)
	n := t.TotalRows() - before
	if n > 0 {
		e.maybeAutoCompact()
	}
	return n, lerr
}

// TableStatus describes one table's live/delta state.
type TableStatus struct {
	Name             string `json:"name"`
	Rows             int    `json:"rows"`       // rows visible to the next query
	DeltaRows        int    `json:"delta_rows"` // appended rows not yet compacted
	Generation       uint64 `json:"generation"`
	LastCompactEpoch uint64 `json:"last_compact_epoch"`
}

// TablesStatus reports per-table delta debt and compaction epochs, in
// catalog creation order.
func (e *Engine) TablesStatus() []TableStatus {
	var out []TableStatus
	for _, name := range e.cat.Tables() {
		t := e.cat.Table(name)
		out = append(out, TableStatus{
			Name:             name,
			Rows:             t.TotalRows(),
			DeltaRows:        t.DeltaRows(),
			Generation:       t.Live().Generation(),
			LastCompactEpoch: t.LastCompactEpoch(),
		})
	}
	return out
}

// deltaCounters exports the live-data state on /metrics:
// catalog-wide delta debt, per-table delta rows and compaction epochs,
// and compaction totals.
func (e *Engine) deltaCounters() map[string]int64 {
	m := map[string]int64{
		"compactions_total":    e.compactions.Load(),
		"compacted_rows_total": e.compactedRows.Load(),
		"snapshot_epoch":       int64(e.cat.Epoch()),
		"delta_rows":           int64(e.cat.DeltaRows()),
	}
	for _, name := range e.cat.Tables() {
		t := e.cat.Table(name)
		m["delta_rows_"+name] = int64(t.DeltaRows())
		m["last_compact_epoch_"+name] = int64(t.LastCompactEpoch())
	}
	return m
}

// QueryOptions override per-query behavior (experiments).
type QueryOptions struct {
	// ForcedOrder pins the root GHD node's attribute order (Fig. 5b/5c).
	ForcedOrder []string
	// ForcedRelaxed marks the forced order as a §V-A2 relaxed order.
	ForcedRelaxed bool
	// WorstOrder selects the highest-cost order for this query.
	WorstOrder bool
	// Threads overrides the engine thread setting for this query.
	Threads int
	// ForcePath forces every GHD node onto one access path —
	// costopt.PathWCOJ or costopt.PathBinary — instead of the cost-based
	// choice. Empty leaves the choice to the cost model; unknown values
	// are rejected at query time by exec.Run.
	ForcePath string
	// MemoryBudget overrides the engine-level per-query memory budget
	// for this query (0 keeps the engine setting).
	MemoryBudget int64
	// ApproxOK declares the caller tolerates approximate answers: the
	// engine may route eligible single-table aggregates to the
	// sketch/sample tier when the cost model prices exact execution at
	// >= 4x the approximate one (Result.Stats.Approx reports when it
	// did, with an explicit error bound), and a query shed by admission
	// control degrades to the approximate tier instead of failing with
	// qerr.OverloadedError.
	ApproxOK bool
}

// Query parses, plans, optimizes and executes one SQL query.
func (e *Engine) Query(sql string) (*exec.Result, error) {
	return e.QueryWithContext(context.Background(), sql, QueryOptions{})
}

// QueryWithContext is the query entry point: context plus per-query
// overrides (Query is its no-options shorthand). Cancellation and
// deadline are honored between lifecycle phases and at parfor chunk
// boundaries inside the execution engine. One run per query is timed,
// traced, registered in the live query registry, counted into the
// engine metrics and latency histograms, and the returned Result
// carries its QueryStats (including the span trace).
func (e *Engine) QueryWithContext(ctx context.Context, sql string, qo QueryOptions) (*exec.Result, error) {
	st := &obs.QueryStats{SQL: sql, Trace: obs.NewTrace(sql)}
	// The derived cancel is what makes an in-flight query killable from
	// the registry (and the debug server's cancel endpoint).
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	aq := e.tel.Registry.Register(sql, cancel, st.Trace)
	t0 := time.Now()
	// Admission control: registered first so a queued query is visible in
	// the live registry (phase "queued"), then admitted or shed.
	aq.SetPhase("queued")
	var res *exec.Result
	var oe *qerr.OverloadedError
	release, err := e.gov.Acquire(ctx, 1)
	switch {
	case err == nil:
		defer release()
		a0, g0 := obs.HeapCounters()
		res, err = e.runQuery(ctx, sql, qo, st, aq)
		a1, g1 := obs.HeapCounters()
		st.AllocBytes, st.GCCycles = a1-a0, g1-g0
	case qo.ApproxOK && errors.As(err, &oe):
		// Overload degrade: an opted-in (ApproxOK) query shed by the
		// governor retries on the approximate tier without admission — a
		// bounded sketch/sample read — instead of surfacing the shed.
		// Shapes the tier cannot bound fall through to the original error.
		aq.SetPhase("degraded")
		if r, ok := e.degrade(sql, st); ok {
			st.Degraded = true
			e.approxDegraded.Add(1)
			res, err = r, nil
		}
	}
	st.Phases.Total = time.Since(t0)
	if err == nil {
		st.RowsOut = res.NumRows
		res.Stats = st
	}
	e.metrics.Finish(st, aq, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Statements exports the per-fingerprint statement statistics, sorted
// by the given key (see obs.StatementSortKeys; "" = total time).
func (e *Engine) Statements(by string, limit int) []obs.StatementSnapshot {
	return e.tel.Statements.Snapshots(by, limit)
}

func (e *Engine) runQuery(ctx context.Context, sql string, qo QueryOptions, st *obs.QueryStats, aq *obs.ActiveQuery) (res *exec.Result, err error) {
	// Query-boundary panic barrier: a crash anywhere in the lifecycle
	// below (or re-raised from a parallel section's PanicCell) fails only
	// this query, as qerr.InternalError with the captured stack.
	defer func() {
		if r := recover(); r != nil {
			ie := qerr.CapturePanic(r)
			ie.SQL = sql
			e.gov.RecordPanic()
			res, err = nil, ie
		}
	}()
	aq.SetPhase("prepare")
	// Approximate-tier intercept, on the one parse the query gets: under
	// ApproxOK, sketch/sample routes whose priced win is decisive.
	// Unhandled shapes fall through to the planner.
	var handled bool
	p, ch, err := e.prepareStats(sql, qo, st, func(q *sqlparse.Query) bool {
		if qo.ApproxOK {
			res, handled = e.tryApprox(q, st, false)
		}
		return handled
	})
	if handled {
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	aq.SetPhase("execute")
	opts := e.execOptions(qo)
	opts.Ctx = ctx
	opts.Stats = st
	// Pin the epoch snapshot for the query's whole lifetime: appends and
	// compactions that land while it runs cannot shift what it reads.
	// Nil (the common static case) costs a nil-pointer branch per table.
	opts.Snap = e.cat.Snapshot()
	if opts.Snap != nil {
		st.SnapshotEpoch = opts.Snap.Epoch
		st.DeltaRowsFolded = e.cat.DeltaRows()
	}
	mem := e.gov.NewAccountant(sql, qo.MemoryBudget)
	defer mem.Close()
	opts.Mem = mem
	res, err = exec.Run(p, ch, e.cat, opts)
	// Used is monotone until Close, so this is the query's memory
	// high-water (0 when accounting is off).
	st.MemHighWater = mem.Used()
	if err != nil {
		// Panics recovered inside parfor workers surface as an
		// InternalError return value rather than unwinding to the barrier
		// above; count them the same way.
		var ie *qerr.InternalError
		if errors.As(err, &ie) {
			e.gov.RecordPanic()
		}
		return nil, &qerr.ExecError{SQL: sql, Err: err}
	}
	return res, nil
}

// BeginShutdown stops admitting queries: every queued waiter and every
// subsequent Acquire fails with qerr.OverloadedError. In-flight queries
// are unaffected; a background compaction is cancelled. Pair with Drain
// for a graceful stop.
func (e *Engine) BeginShutdown() {
	e.gov.BeginShutdown()
	e.bgCancel()
}

// Drain waits until every in-flight query finishes or ctx expires; on
// expiry the stragglers are cancelled through the live query registry
// and Drain waits (briefly) for them to observe the cancellation. It
// returns the number of queries that were force-cancelled.
func (e *Engine) Drain(ctx context.Context) int {
	reg := e.tel.Registry
	for reg.NumActive() > 0 {
		if ctx.Err() != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelled := 0
	for _, qi := range reg.List() {
		if reg.Cancel(qi.ID) {
			cancelled++
		}
	}
	if cancelled > 0 {
		// Bounded wait for the cancelled queries to unwind: they observe
		// the context at the next chunk/step check.
		deadline := time.Now().Add(2 * time.Second)
		for reg.NumActive() > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	// A background compaction was cancelled by BeginShutdown; wait for
	// it to unwind so no goroutine outlives the drain. (bgWG also covers
	// the group-commit flusher and any auto-compact snapshot write.)
	e.bgWG.Wait()
	if e.dur != nil {
		// A caller-driven Compact may still be mid-snapshot-write: take
		// the compaction lock once so Drain cannot return while that
		// write is in flight, then final-fsync every WAL so no acked
		// group-commit batch is left unsynced at exit.
		e.compactMu.Lock()
		e.compactMu.Unlock() //nolint:staticcheck // barrier, not a critical section
		e.syncWALs()
	}
	return cancelled
}

// ExplainAnalyze runs the query and renders the plan followed by the
// measured per-phase timings, kernel counts and dispatch decision.
func (e *Engine) ExplainAnalyze(sql string) (string, error) {
	return e.ExplainAnalyzeContext(context.Background(), sql)
}

// ExplainAnalyzeContext is ExplainAnalyze under a context.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, sql string) (string, error) {
	res, err := e.QueryWithContext(ctx, sql, QueryOptions{})
	if err != nil {
		return "", err
	}
	plan, err := e.Explain(sql)
	if err != nil {
		return "", err
	}
	out := plan + res.Stats.String()
	if tree := res.Stats.Trace.TreeString(); tree != "" {
		out += "spans:\n" + tree
	}
	return out, nil
}

// Metrics exposes the engine's cumulative observability counters.
func (e *Engine) Metrics() *obs.EngineMetrics { return e.metrics }

// Telemetry exposes the engine's telemetry collector: latency
// histograms, the live query registry, and the counter aggregation
// behind the debug HTTP server's /metrics.
func (e *Engine) Telemetry() *obs.Collector { return e.tel }

// Prepare compiles a query without running it, returning the logical
// plan and chosen orders (used by EXPLAIN and by benchmarks that want
// compile/execute split).
func (e *Engine) Prepare(sql string, qo QueryOptions) (*planner.Plan, *costopt.Choice, error) {
	return e.prepare(sql, qo)
}

// Execute runs a previously prepared plan.
func (e *Engine) Execute(p *planner.Plan, ch *costopt.Choice, qo QueryOptions) (*exec.Result, error) {
	opts := e.execOptions(qo)
	opts.Snap = e.cat.Snapshot()
	return exec.Run(p, ch, e.cat, opts)
}

func (e *Engine) execOptions(qo QueryOptions) exec.Options {
	threads := e.threads
	if qo.Threads > 0 {
		threads = qo.Threads
	}
	opts := exec.Options{
		Threads:    threads,
		NoAttrElim: e.noAttrElim,
		NoBLAS:     e.noBLAS,
		// Specialized kernels stand in for code generation over the
		// optimizer's chosen plan; ablations that force other orders must
		// measure the generic interpreter instead.
		NoFastPath: e.noCostOpt || e.pickWorst || qo.WorstOrder || len(qo.ForcedOrder) > 0,
		ForcePath:  qo.ForcePath,
	}
	if !e.noCache {
		opts.Cache = e.cache
	}
	return opts
}

// maxCachedPlans bounds Engine.plans, which is keyed on the raw SQL text:
// without a bound every redrawn literal would add an entry forever. The
// least recently used text goes first, so a hot text survives a stream
// of one-off literals. A miss still reuses the memoised GHD and orders
// (ghd.Decompose, costopt.Choose); this cache skips parsing and
// planning on exact repeats.
const maxCachedPlans = 4096

// preparedPlan caches one compiled (plan, orders) pair. Plans and
// choices are immutable after construction, so hot-run re-execution
// (the paper's measurement setup) skips parsing, GHD enumeration and
// order scoring entirely. The statement fingerprint rides along so
// cache hits skip re-normalization too.
type preparedPlan struct {
	p      *planner.Plan
	ch     *costopt.Choice
	fp     uint64
	fpText string
}

func (e *Engine) prepare(sql string, qo QueryOptions) (*planner.Plan, *costopt.Choice, error) {
	return e.prepareStats(sql, qo, nil, nil)
}

// prepareStats is prepare with optional stats capture: parse/plan phase
// durations (mirrored as trace spans), plan-cache behavior, and the
// GHD/order decision. The text is parsed at most once, and not at all
// on a plan-cache hit unless the caller opted into approximate answers
// (their shape analysis needs the AST). intercept, when non-nil, sees
// that one parse before the planner does; returning true claims the
// query and prepareStats returns nothing.
func (e *Engine) prepareStats(sql string, qo QueryOptions, st *obs.QueryStats, intercept func(*sqlparse.Query) bool) (*planner.Plan, *costopt.Choice, error) {
	var tr *obs.Trace
	if st != nil {
		tr = st.Trace
	}
	tf := time.Now()
	if err := e.Freeze(); err != nil {
		return nil, nil, err
	}
	if st != nil {
		st.Phases.Freeze = time.Since(tf)
		if st.Phases.Freeze > time.Millisecond {
			// Only a first-query freeze is worth a span; a no-op
			// freeze check would just be tree noise.
			tr.Add(tr.Root(), obs.SpanPhase, "freeze", tf, time.Now())
		}
	}
	key := fmt.Sprintf("%s|%v|%v|%v|%v|%v", sql, e.noCostOpt, e.pickWorst || qo.WorstOrder, qo.ForcedOrder, qo.ForcedRelaxed, e.noAttrElim)
	pp, _ := e.plans.Get(key)
	var q *sqlparse.Query
	if pp == nil || (qo.ApproxOK && intercept != nil) {
		var err error
		if q, err = parseStats(sql, st); err != nil {
			return nil, nil, &qerr.ParseError{SQL: sql, Err: err}
		}
		if intercept != nil && intercept(q) {
			return nil, nil, nil
		}
	}
	if pp != nil {
		if st != nil {
			st.PlanCached = true
			st.Fingerprint, st.FingerprintText = pp.fp, pp.fpText
			recordPlanStats(st, pp.p, pp.ch)
		}
		return pp.p, e.classifyPaths(pp.p, pp.ch, pp.fp, qo), nil
	}
	fpText, fp := sqlparse.Fingerprint(q)
	if st != nil {
		st.Fingerprint, st.FingerprintText = fp, fpText
	}
	tq := time.Now()
	p, err := planner.Build(q, e.cat)
	if err != nil {
		return nil, nil, &qerr.PlanError{SQL: sql, Err: err}
	}
	co := costopt.Options{
		Disabled:      e.noCostOpt,
		PickWorst:     e.pickWorst || qo.WorstOrder,
		Forced:        qo.ForcedOrder,
		ForcedRelaxed: qo.ForcedRelaxed,
	}
	ch, err := costopt.Choose(p, co)
	if err != nil {
		return nil, nil, &qerr.PlanError{SQL: sql, Err: err}
	}
	if st != nil {
		st.Phases.Plan = time.Since(tq)
		tr.Add(tr.Root(), obs.SpanPhase, "plan", tq, time.Now())
		recordPlanStats(st, p, ch)
	}
	e.plans.Put(key, &preparedPlan{p: p, ch: ch, fp: fp, fpText: fpText})
	return p, e.classifyPaths(p, ch, fp, qo), nil
}

// parseStats parses sql, recording the parse phase and its span when
// st is non-nil.
func parseStats(sql string, st *obs.QueryStats) (*sqlparse.Query, error) {
	tp := time.Now()
	q, err := sqlparse.Parse(sql)
	if err == nil && st != nil {
		st.Phases.Parse = time.Since(tp)
		st.Trace.Add(st.Trace.Root(), obs.SpanPhase, "parse", tp, time.Now())
	}
	return q, err
}

// classifyPaths augments a chosen plan with per-node access-path
// decisions (tentpole of the hybrid executor). It runs per query — not
// once at plan-cache fill — because the drift correction folds in the
// statement's live cost_ratio, which sharpens as executions accumulate.
// The cached Choice is never mutated: paths land on a per-query shallow
// copy, so concurrent queries racing on one cached plan stay safe.
// Ablation and forced-order modes skip classification — their cost
// numbers deliberately mismeasure, and Table III rows must keep
// measuring the pure WCOJ interpreter.
func (e *Engine) classifyPaths(p *planner.Plan, ch *costopt.Choice, fp uint64, qo QueryOptions) *costopt.Choice {
	if e.noCostOpt || e.pickWorst || qo.WorstOrder || len(qo.ForcedOrder) > 0 || p.GHD == nil {
		return ch
	}
	drift := e.tel.Statements.CostRatio(fp)
	out := *ch
	out.Paths = costopt.ClassifyPaths(p, ch, drift)
	return &out
}

// recordPlanStats copies the optimizer's decision into the stats.
func recordPlanStats(st *obs.QueryStats, p *planner.Plan, ch *costopt.Choice) {
	if p.ScalarScan || p.GHD == nil {
		return
	}
	st.GHDNodes = len(ch.Orders)
	if ord := ch.Orders[p.GHD.Root]; ord != nil {
		st.RootOrder = append([]string(nil), ord.Attrs...)
		st.Relaxed = ord.Relaxed
	}
}

// Explain renders the query plan: hypergraph, GHD, per-node attribute
// orders with their §V cost terms.
func (e *Engine) Explain(sql string) (string, error) {
	p, ch, err := e.prepare(sql, QueryOptions{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if p.ScalarScan {
		explainScan(&b, p)
		return b.String(), nil
	}
	fmt.Fprintf(&b, "hypergraph: %s\n", p.HG)
	fmt.Fprintf(&b, "%s", p.GHD)
	p.GHD.Walk(func(node *ghd.Node, _ int) {
		ord := ch.Orders[node]
		fmt.Fprintf(&b, "node %v: %s\n", node.Bag, ord)
		if pi := ch.Paths[node]; pi != nil {
			fmt.Fprintf(&b, "  %s\n", pi)
		}
		for _, pv := range ord.Per {
			fmt.Fprintf(&b, "  %-14s icost=%-4d weight=%d\n", pv.Vertex, pv.ICost, pv.Weight)
		}
	})
	fmt.Fprintf(&b, "aggregates: %d, groups: %d, outputs: %d\n", len(p.Aggs), len(p.Groups), len(p.Outputs))
	return b.String(), nil
}

// explainScan renders a single-relation aggregate scan, e.g.
// "scan over lineitem: filter …, group by l_returnflag, l_linestatus".
func explainScan(b *strings.Builder, p *planner.Plan) {
	r := &p.Rels[0]
	var parts []string
	if r.Filter != nil {
		parts = append(parts, "filter "+r.Filter.String())
	}
	if len(p.Groups) > 0 {
		items := make([]string, len(p.Groups))
		for i, g := range p.Groups {
			if g.Expr != nil {
				items[i] = g.Expr.String()
			} else {
				items[i] = g.Col
			}
		}
		parts = append(parts, "group by "+strings.Join(items, ", "))
	}
	fmt.Fprintf(b, "scan over %s", r.Alias)
	if len(parts) > 0 {
		fmt.Fprintf(b, ": %s", strings.Join(parts, ", "))
	}
	b.WriteByte('\n')
}

// CacheSize reports the number of cached tries and base orders.
func (e *Engine) CacheSize() int { return e.cache.Len() }
