// Package levelheaded (import "repro") is a from-scratch Go
// reproduction of LevelHeaded — "A Unified Engine for Business
// Intelligence and Linear Algebra Querying" (Aberger, Lamb, Olukotun,
// Ré; ICDE 2018) — an in-memory relational engine that executes both
// SQL-style BI queries and linear-algebra kernels with a single
// worst-case optimal join (WCOJ) architecture.
//
// The public API is a thin facade over internal/core:
//
//	eng := levelheaded.New()
//	tab, _ := eng.CreateTable(levelheaded.Schema{
//		Name: "matrix",
//		Cols: []levelheaded.ColumnDef{
//			{Name: "i", Kind: levelheaded.Int64, Role: levelheaded.Key, Domain: "dim"},
//			{Name: "j", Kind: levelheaded.Int64, Role: levelheaded.Key, Domain: "dim"},
//			{Name: "v", Kind: levelheaded.Float64, Role: levelheaded.Annotation},
//		},
//	})
//	tab.Append(int64(0), int64(1), 0.5)
//	res, _ := eng.Query(ctx, `SELECT m1.i, m2.j, sum(m1.v * m2.v) AS v
//		FROM matrix AS m1, matrix AS m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`)
//
// Tables stay appendable after the first query: later Append calls land
// in a per-table delta store that the next query folds in through an
// epoch snapshot, and Compact merges deltas into base storage off the
// hot path.
//
// Keys (the only joinable attributes) are dictionary-encoded into
// tries; annotations live in flat columnar buffers reachable from any
// trie level; queries compile SQL → hypergraph → GHD → cost-ordered
// WCOJ plan (paper §III–§V).
package levelheaded

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Re-exported storage types: schemas classify every attribute as a Key
// (joinable, trie-stored) or an Annotation (aggregatable, columnar).
type (
	// Schema declares a table.
	Schema = storage.Schema
	// ColumnDef declares one column.
	ColumnDef = storage.ColumnDef
	// Table is a loaded base relation.
	Table = storage.Table
	// Result is a columnar query result.
	Result = exec.Result
	// ResultColumn is one typed column of a Result.
	ResultColumn = exec.Column
	// QueryOptions carries per-query experiment overrides.
	QueryOptions = core.QueryOptions
	// TableStatus reports one table's live-data state (rows, delta
	// backlog, generation, last compaction epoch).
	TableStatus = core.TableStatus
	// Option configures an Engine at construction.
	Option = core.Option
	// QueryStats is the per-query observability record: phase timings,
	// per-kernel intersection counts, dispatch decision, trie-cache
	// behavior. Reachable from Result.Stats.
	QueryStats = obs.QueryStats
	// EngineMetrics accumulates per-engine totals across queries.
	EngineMetrics = obs.EngineMetrics
	// Telemetry is the engine-wide telemetry collector: latency
	// histograms per phase and dispatch class, the live query registry,
	// and retained traces. Share one across engines with WithTelemetry
	// to aggregate a fleet behind a single debug server.
	Telemetry = obs.Collector
	// Trace is one query's hierarchical span record (query → phase →
	// GHD node → kernel), reachable from QueryStats.Trace; render it
	// with TreeString or export it with ChromeTraceJSON.
	Trace = obs.Trace
	// QueryInfo describes one in-flight (or recently finished) query in
	// the live registry.
	QueryInfo = obs.QueryInfo
	// StatementSnapshot is one fingerprint's cumulative statement
	// statistics (the pg_stat_statements row analog), from
	// Engine.Statements or /debug/statements.
	StatementSnapshot = obs.StatementSnapshot
	// DebugServer is a running telemetry HTTP server (see ServeDebug).
	DebugServer = obs.Server
)

// Typed errors. All are errors.Is/As-compatible and carry the offending
// SQL or schema object; ParseError/PlanError/ExecError wrap the
// underlying cause (so errors.Is(err, context.Canceled) sees through an
// ExecError after a cancellation).
type (
	// ParseError reports SQL the front-end could not parse.
	ParseError = qerr.ParseError
	// PlanError reports a query that could not be planned or ordered.
	PlanError = qerr.PlanError
	// ExecError reports a failure (or cancellation) during execution.
	ExecError = qerr.ExecError
	// UnknownTableError reports a reference to a table never created.
	UnknownTableError = qerr.UnknownTableError
	// UnknownColumnError reports a reference to a column not in a schema.
	UnknownColumnError = qerr.UnknownColumnError
	// FrozenTableError reports a bulk SetColumnData attempted after
	// freeze. It is retired from the append path: Table.Append and
	// LoadDelimitedContext now succeed on frozen tables by writing to
	// the delta store.
	FrozenTableError = qerr.FrozenTableError
	// ResourceExhaustedError reports a query aborted for exceeding its
	// memory budget (or the engine-wide soft limit).
	ResourceExhaustedError = qerr.ResourceExhaustedError
	// OverloadedError reports a query shed by admission control; its
	// RetryAfter is a backoff hint (lhserve maps it to HTTP 429).
	OverloadedError = qerr.OverloadedError
	// InternalError reports a panic contained at the query boundary: the
	// query failed, the engine keeps serving, Stack has the crash site.
	InternalError = qerr.InternalError
)

// Column kinds.
const (
	Int64   = storage.Int64
	Float64 = storage.Float64
	String  = storage.String
	Date    = storage.Date
)

// Column roles (the LevelHeaded data model, paper §III-A).
const (
	Key        = storage.Key
	Annotation = storage.Annotation
)

// Result column kinds.
const (
	KindInt    = exec.KindInt
	KindFloat  = exec.KindFloat
	KindString = exec.KindString
)

// Engine options.
var (
	// WithThreads bounds query parallelism (0 = GOMAXPROCS).
	WithThreads = core.WithThreads
	// WithAttributeElimination toggles §IV attribute elimination.
	WithAttributeElimination = core.WithAttributeElimination
	// WithCostOptimizer toggles the §V cost-based attribute ordering.
	WithCostOptimizer = core.WithCostOptimizer
	// WithWorstOrder selects the highest-cost attribute orders.
	WithWorstOrder = core.WithWorstOrder
	// WithBLAS toggles the dense-kernel dispatch of §III-D.
	WithBLAS = core.WithBLAS
	// WithTrieCache toggles cross-query reuse of unfiltered tries and of
	// the base orders filtered tries derive from.
	WithTrieCache = core.WithTrieCache
	// WithTelemetry shares an existing telemetry collector with the
	// engine (instead of the private one every engine otherwise gets).
	WithTelemetry = core.WithTelemetry
	// WithSlowQueryLog emits one JSON line per query slower than the
	// threshold (threshold 0 logs every query).
	WithSlowQueryLog = core.WithSlowQueryLog
	// WithMemoryBudget caps each query's tracked memory; over-budget
	// queries abort with *ResourceExhaustedError (0 = unlimited).
	WithMemoryBudget = core.WithMemoryBudget
	// WithMemorySoftLimit sets the engine-wide soft memory limit; when
	// tracked allocations or the process heap exceed it, the next query
	// to allocate aborts (0 = unlimited).
	WithMemorySoftLimit = core.WithMemorySoftLimit
	// WithMaxConcurrency bounds concurrently executing queries; excess
	// queries queue, and queue overflow sheds with *OverloadedError
	// (0 = unlimited).
	WithMaxConcurrency = core.WithMaxConcurrency
	// WithQueueDepth bounds the admission wait queue used with
	// WithMaxConcurrency.
	WithQueueDepth = core.WithQueueDepth
	// WithAutoCompact starts a background compaction whenever a table's
	// delta backlog reaches the given row count (0 = manual Compact
	// only).
	WithAutoCompact = core.WithAutoCompact
	// WithApproxSampleRows sets the per-table reservoir sample capacity
	// of the approximate query tier (0 = the 4096-row default). Smaller
	// samples answer faster with wider error bounds.
	WithApproxSampleRows = core.WithApproxSampleRows
	// WithDurability makes every acked append crash-durable: rows are
	// written to a per-table write-ahead log in dir before they commit,
	// Compact additionally persists an atomic snapshot there, and a new
	// engine pointed at the same dir recovers the snapshot plus WAL
	// tails on startup (see Recovered / RecoveryError).
	WithDurability = core.WithDurability
)

// SyncPolicy controls when WAL appends reach stable storage (see
// WithDurability). Records are always *written* per append — any
// policy survives a process crash; the policy only decides fsync
// cadence, i.e. what survives power loss.
type SyncPolicy = wal.Policy

// Sync policy constructors.
var (
	// SyncEvery fsyncs after every append batch (power-loss-safe,
	// slowest).
	SyncEvery = wal.SyncEvery
	// GroupCommit fsyncs on a background interval (d <= 0 uses the
	// 50ms default). The recommended default.
	GroupCommit = wal.GroupCommit
	// NoSync never fsyncs; the OS flushes on its own schedule.
	NoSync = wal.NoSync
	// ParseSyncPolicy parses "always", "group[:dur]", "interval[:dur]"
	// or "none" (the -sync flag syntax of lhserve).
	ParseSyncPolicy = wal.ParsePolicy
)

// NewTelemetry creates a standalone telemetry collector to share across
// engines via WithTelemetry.
func NewTelemetry() *Telemetry { return obs.NewCollector() }

// ServeDebug starts the telemetry HTTP server on addr (host:port;
// port 0 picks a free one) exposing /metrics in Prometheus text format,
// /debug/queries, /debug/trace/<id>, and /debug/pprof. Close the
// returned server to stop it.
func ServeDebug(addr string, t *Telemetry) (*DebugServer, error) {
	return obs.Serve(addr, t)
}

// Engine is a LevelHeaded database instance.
type Engine struct {
	inner *core.Engine
}

// New creates an empty engine.
func New(opts ...Option) *Engine {
	return &Engine{inner: core.New(opts...)}
}

// CreateTable registers a base table; load rows with Table.Append,
// Table.SetColumnData, or Engine.LoadDelimitedContext. Appends keep
// working after the first query (they land in a delta store).
func (e *Engine) CreateTable(s Schema) (*Table, error) {
	return e.inner.CreateTable(s)
}

// Table returns a registered table by name, or nil.
func (e *Engine) Table(name string) *Table {
	return e.inner.Catalog().Table(name)
}

// LoadDelimitedContext bulk-loads delimiter-separated rows into a table
// ('|' for TPC-H .tbl files, ',' for CSV). The context is checked at
// chunk boundaries, so a cancelled load returns promptly. Works before
// and after the first query: post-freeze rows land in the table's delta
// store, exactly like Table.Append.
func (e *Engine) LoadDelimitedContext(ctx context.Context, table string, r io.Reader, delim byte) error {
	t := e.inner.Catalog().Table(table)
	if t == nil {
		return &UnknownTableError{Name: table}
	}
	return t.LoadDelimitedContext(ctx, r, delim)
}

// Compact folds rows appended since the last compaction into base
// storage, without copying it, and drops cached tries of superseded
// generations. Appended rows are queryable WITHOUT calling Compact (the
// first query after an append folds them into an epoch snapshot
// incrementally); compaction reclaims the delta logs, writes a snapshot
// on a durable engine, and is also kicked automatically when
// configured with WithAutoCompact. Results are byte-identical before
// and after a compaction. It is single-flight, cancellable and
// panic-contained.
// On a never-queried engine it performs the initial freeze.
func (e *Engine) Compact(ctx context.Context) error { return e.inner.Compact(ctx) }

// QueryOption configures one query (see Query). Options compose left
// to right.
type QueryOption func(*queryConfig)

type queryConfig struct {
	qo       core.QueryOptions
	deadline time.Duration
}

// WithDeadline bounds the query's wall-clock time: the query is
// cancelled (returning an *ExecError wrapping context.DeadlineExceeded)
// once d elapses. 0 means no deadline beyond the caller's context.
func WithDeadline(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.deadline = d }
}

// WithMemBudget overrides the engine-level per-query memory budget for
// this query; over-budget queries abort with *ResourceExhaustedError.
func WithMemBudget(n int64) QueryOption {
	return func(c *queryConfig) { c.qo.MemoryBudget = n }
}

// WithApproxOK declares the caller tolerates approximate answers: the
// engine may route eligible single-table aggregates to the
// sketch/sample tier when the cost model prices exact execution high
// enough, and a query shed by admission control degrades to the
// approximate tier instead of failing with *OverloadedError.
// Result.Stats.Approx reports whether the answer is approximate, with
// Result.Stats.ErrorBound / Confidence carrying the accuracy contract.
// Without the opt-in every result stays exact and bit-identical.
func WithApproxOK() QueryOption {
	return func(c *queryConfig) { c.qo.ApproxOK = true }
}

// WithThreadCap overrides the engine thread setting for this query.
func WithThreadCap(n int) QueryOption {
	return func(c *queryConfig) { c.qo.Threads = n }
}

// WithOrder pins the root GHD node's attribute order (the paper's
// Fig. 5b/5c experiments).
func WithOrder(attrs ...string) QueryOption {
	return func(c *queryConfig) { c.qo.ForcedOrder = attrs }
}

// WithRelaxedOrder pins the root order and marks it as a §V-A2 relaxed
// order (last materialized attribute resolved by union).
func WithRelaxedOrder(attrs ...string) QueryOption {
	return func(c *queryConfig) { c.qo.ForcedOrder, c.qo.ForcedRelaxed = attrs, true }
}

// WithWorstCaseOrder selects the highest-cost attribute order for this
// query (the "-Attr. Ord." ablation).
func WithWorstCaseOrder() QueryOption {
	return func(c *queryConfig) { c.qo.WorstOrder = true }
}

// WithOptions applies a full QueryOptions struct at once.
func WithOptions(qo QueryOptions) QueryOption {
	return func(c *queryConfig) { c.qo = qo }
}

// Query parses, plans, optimizes and executes one SQL query (the
// supported subset is described in the README). It is the canonical
// entry point: cancellation and deadline from ctx are honored between
// lifecycle phases and at parfor chunk boundaries (a cancelled query
// returns an *ExecError wrapping ctx.Err()), and per-query behavior is
// set with functional options:
//
//	res, err := eng.Query(ctx, sql, levelheaded.WithDeadline(2*time.Second))
//
// The first query freezes cold tables automatically; rows appended
// after that (Table.Append) are visible to the next query through an
// epoch snapshot, with no explicit Compact required.
func (e *Engine) Query(ctx context.Context, sql string, opts ...QueryOption) (*Result, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
		defer cancel()
	}
	return e.inner.QueryWithContext(ctx, sql, cfg.qo)
}

// IngestRows appends a batch of rows to the named table under governor
// admission (an overloaded engine sheds the batch with
// *OverloadedError). Rows are visible to the next query.
func (e *Engine) IngestRows(ctx context.Context, table string, rows [][]interface{}) (int, error) {
	return e.inner.IngestRows(ctx, table, rows)
}

// IngestBatch is IngestRows with an idempotency key: if batchID was
// already ingested (on this engine, or before a crash — ids are logged
// in the WAL and carried by snapshots), the batch is skipped and dup
// is true. An empty batchID degrades to plain IngestRows. Requires
// WithDurability for dedup to survive restarts.
func (e *Engine) IngestBatch(ctx context.Context, table, batchID string, rows [][]interface{}) (n int, dup bool, err error) {
	return e.inner.IngestBatch(ctx, table, batchID, rows)
}

// Recovered reports whether startup recovery (WithDurability) restored
// any persisted state — a snapshot or at least one WAL record.
func (e *Engine) Recovered() bool { return e.inner.Recovered() }

// RecoveryError reports a non-corruption failure during startup
// recovery (corrupt WAL tails are truncated and counted, never
// errors). The engine still serves; callers decide whether degraded
// durability is acceptable.
func (e *Engine) RecoveryError() error { return e.inner.RecoveryError() }

// TablesStatus reports per-table live-data state: visible rows, delta
// rows awaiting compaction, generation, and last-compaction epoch.
func (e *Engine) TablesStatus() []TableStatus { return e.inner.TablesStatus() }

// Explain renders the plan: hypergraph, GHD, attribute orders and their
// §V cost terms.
func (e *Engine) Explain(sql string) (string, error) { return e.inner.Explain(sql) }

// ExplainAnalyze executes the query and renders the plan followed by
// measured per-phase timings, per-kernel intersection counts, and the
// dispatch decision taken.
func (e *Engine) ExplainAnalyze(sql string) (string, error) {
	return e.inner.ExplainAnalyze(sql)
}

// ExplainAnalyzeContext is ExplainAnalyze under a context.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, sql string) (string, error) {
	return e.inner.ExplainAnalyzeContext(ctx, sql)
}

// Metrics exposes the engine's cumulative counters (queries, errors,
// per-phase nanoseconds, per-kernel intersection counts, cache
// behavior). Safe to read concurrently with running queries; use
// Metrics().Snapshot() for an expvar-style map.
func (e *Engine) Metrics() *EngineMetrics { return e.inner.Metrics() }

// CacheSize reports how many tries and base orders the trie cache
// holds: whole tries of unfiltered relations and the filter-free sort
// orders filtered relations derive from.
func (e *Engine) CacheSize() int { return e.inner.CacheSize() }

// Telemetry exposes the engine's telemetry collector (latency
// histograms, live query registry, retained traces) — pass it to
// ServeDebug to monitor the engine over HTTP.
func (e *Engine) Telemetry() *Telemetry { return e.inner.Telemetry() }

// Statements exports per-fingerprint statement statistics sorted
// descending by the given key ("" or "time" = total latency; see
// obs.StatementSortKeys for the rest); limit <= 0 returns all.
func (e *Engine) Statements(by string, limit int) []StatementSnapshot {
	return e.inner.Statements(by, limit)
}

// BeginShutdown stops admitting queries: queued and subsequent queries
// fail with *OverloadedError while in-flight queries run to completion.
func (e *Engine) BeginShutdown() { e.inner.BeginShutdown() }

// Drain blocks until every in-flight query finishes or ctx expires;
// stragglers are then cancelled through the live query registry. It
// returns the number of force-cancelled queries. Call BeginShutdown
// first so the drain converges.
func (e *Engine) Drain(ctx context.Context) int { return e.inner.Drain(ctx) }
