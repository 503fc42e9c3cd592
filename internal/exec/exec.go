// Package exec is LevelHeaded's execution engine: it compiles a logical
// plan plus chosen attribute orders into per-query tries and runs the
// generic worst-case optimal join (Algorithm 1) over them, with
// Yannakakis-style communication between GHD nodes, semiring
// aggregation, GROUP BY materialization, the §V-A2 one-attribute union,
// and parfor parallelization of the outermost loop (paper §III-C/D).
package exec

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"time"

	"repro/internal/costopt"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/storage"
	"repro/internal/trie"
)

// stTrace extracts the span trace threaded through Options.Stats.
// Both layers are nil-safe, so executors record spans unconditionally.
func stTrace(st *obs.QueryStats) *obs.Trace {
	if st == nil {
		return nil
	}
	return st.Trace
}

// Options configures one execution.
type Options struct {
	// Threads bounds the parfor worker count; 0 means GOMAXPROCS.
	Threads int
	// NoAttrElim disables attribute elimination (Table III ablation):
	// every annotation column of every table is loaded into the query
	// tries, and the dense BLAS dispatch is disabled.
	NoAttrElim bool
	// NoBLAS disables only the dense-kernel dispatch (§III-D), forcing
	// dense LA to run as a pure aggregate-join in the WCOJ engine.
	NoBLAS bool
	// Cache holds reusable unfiltered tries and the base orders filtered
	// tries derive from (the "index creation" the paper's measurements
	// exclude). Nil disables caching.
	Cache *TrieCache
	// NoFastPath disables the specialized kernels and forces the generic
	// WCOJ interpreter (used with forced/worst attribute orders so
	// ablations measure the interpreter).
	NoFastPath bool
	// ForcePath overrides the per-node access-path classification:
	// costopt.PathWCOJ or costopt.PathBinary. Either value also skips
	// the dense/SpMV fast paths so A/B runs compare the two generic
	// navigators symmetrically. Empty means cost-based selection.
	ForcePath string
	// Ctx, when non-nil, cancels the execution: it is checked between
	// phases and at parfor chunk boundaries, and its Err is returned.
	Ctx context.Context
	// Stats, when non-nil, receives phase timings, kernel counters and
	// dispatch decisions for this execution. Counters are owned
	// per-worker and merged at parfor joins — no hot-path allocation.
	Stats *obs.QueryStats
	// Mem, when non-nil, is the query's memory accountant: the large
	// allocation sites (query-trie builds, worker output buffers,
	// aggregation tables, result assembly) charge it and abort with
	// qerr.ResourceExhaustedError when the query is over budget.
	Mem *governor.Accountant
	// Snap pins the epoch snapshot this execution reads. Nil is the
	// static-catalog fast path (no post-freeze appends anywhere): table
	// handles are used directly, costing one nil-pointer branch.
	Snap *storage.Snapshot
}

// table resolves a plan's table handle through the pinned snapshot.
func (o *Options) table(t *storage.Table) *storage.Table { return o.Snap.Resolve(t) }

// ctxErr reports the options context's cancellation state (nil-safe).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// Kind is the type of a result column.
type Kind uint8

const (
	KindInt Kind = iota
	KindFloat
	KindString
)

// Column is one typed result column.
type Column struct {
	Name string
	Kind Kind
	I64  []int64
	F64  []float64
	Str  []string
}

// Result is a query result in columnar form. Stats, when the engine
// collects them, describes how the query ran.
type Result struct {
	Cols    []*Column
	NumRows int
	Stats   *obs.QueryStats
}

// Col returns the named column or nil.
func (r *Result) Col(name string) *Column {
	for _, c := range r.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Float returns the float64 value at (col, row), converting ints.
func (c *Column) Float(row int) float64 {
	switch c.Kind {
	case KindFloat:
		return c.F64[row]
	case KindInt:
		return float64(c.I64[row])
	}
	return 0
}

// TrieCache holds the query-trie pieces reusable across queries: the
// whole trie of an unfiltered relation, keyed on its table generation,
// the filter-free base sort order a filtered relation's trie is derived
// from, which stays valid while its table only grows, and the token
// columns of GroupMeta items (the metadata container M), keyed on their
// table generation like the tries.
type TrieCache struct {
	mu sync.RWMutex
	// m and metas hold entries of at most one generation per table:
	// caching a newer generation's entry drops the table's older ones.
	m     map[trieKey]*trie.Lazy
	metas map[metaKey][]uint64
	bases map[baseKey]*cachedBase
	// missed records base keys that missed once: the next miss builds
	// the base. Bounded by maxMissed (cleared when full, which at worst
	// delays an admission by one miss).
	missed map[baseKey]struct{}
}

// baseKey identifies one base order: its table and its key columns in
// level order (joined on NUL). It carries no generation, leaves or
// filter, so one base serves every later generation of the table, every
// leaf set, both paths and every alias of the table.
type baseKey struct {
	table string
	cols  string
}

// trieKey identifies one cached trie: its table, key columns and
// generation, and its leaf annotations (joined on NUL). One entry
// serves both access paths and every alias of the table.
type trieKey struct {
	baseKey
	gen    uint64
	leaves string
}

// metaKey identifies one GroupMeta token column: the metadata table's
// generation, the primary-key column its codes index, and the item's
// expression rendered without alias qualifiers, so every alias of the
// table shares it.
type metaKey struct {
	table string
	gen   uint64
	pk    string
	expr  string
}

func (k trieKey) tableGen() (string, uint64) { return k.table, k.gen }
func (k metaKey) tableGen() (string, uint64) { return k.table, k.gen }

// genKey is a cache key that names a table generation.
type genKey interface {
	comparable
	tableGen() (string, uint64)
}

// putNewest stores v under key and drops the table's entries of older
// generations; a value of a generation older than one already held is
// not kept.
func putNewest[K genKey, V any](m map[K]V, key K, v V) {
	table, gen := key.tableGen()
	for k := range m {
		switch t, g := k.tableGen(); {
		case t != table:
		case g > gen:
			return
		case g < gen:
			delete(m, k)
		}
	}
	m[key] = v
}

// dropOtherGens drops the table's entries of every generation but keep.
func dropOtherGens[K genKey, V any](m map[K]V, table string, keep uint64) {
	maps.DeleteFunc(m, func(k K, _ V) bool {
		t, g := k.tableGen()
		return t == table && g != keep
	})
}

// cachedBase is a base order with the table generation and the number
// of leading rows it was built over. Rows only ever append (compaction
// keeps their order) and key codes of stable columns never change, so
// it orders rows [0, rows) of every later generation too; the rows past
// it are the tail Derive sorts and merges in.
type cachedBase struct {
	*trie.Lazy
	gen  uint64
	rows int
}

const maxMissed = 256

// rebaseFrac bounds a base's tail: once it passes 1/rebaseFrac of the
// base's rows (or rebaseFrac rows, for a base under rebaseFrac² rows),
// lookups count as misses and the key's next admitted miss rebuilds the
// base over the current generation.
const rebaseFrac = 64

// NewTrieCache returns an empty cache.
func NewTrieCache() *TrieCache {
	return &TrieCache{m: map[trieKey]*trie.Lazy{}, metas: map[metaKey][]uint64{},
		bases: map[baseKey]*cachedBase{}, missed: map[baseKey]struct{}{}}
}

func (c *TrieCache) get(key trieKey) (*trie.Lazy, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.m[key]
	return ix, ok
}

// put caches ix and drops the table's tries of older generations; a
// trie of a generation older than one already cached is not kept.
func (c *TrieCache) put(key trieKey, ix *trie.Lazy) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	putNewest(c.m, key, ix)
}

// meta returns the cached token column under key.
func (c *TrieCache) meta(key metaKey) ([]uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	toks, ok := c.metas[key]
	return toks, ok
}

// putMeta caches a token column under the rules put keeps for tries.
func (c *TrieCache) putMeta(key metaKey, toks []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	putNewest(c.metas, key, toks)
}

// base returns the cached base under key when it orders a prefix of
// generation gen's rows rows with a tail within the rebaseFrac bound:
// any earlier generation's base when stable (the columns' codes survive
// appends), only gen's own otherwise. Else it returns nil and whether
// this miss admits building one (the key's second miss). A snapshot
// older than the cached base neither derives nor counts a miss.
func (c *TrieCache) base(key baseKey, gen uint64, rows int, stable bool) (b *cachedBase, admit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.bases[key]; b != nil {
		switch tail := rows - b.rows; {
		case b.gen == gen || stable && tail >= 0 && tail <= max(b.rows/rebaseFrac, rebaseFrac):
			return b, false
		case tail < 0:
			return nil, false
		}
	}
	if _, ok := c.missed[key]; ok {
		delete(c.missed, key)
		return nil, true
	}
	if len(c.missed) >= maxMissed {
		clear(c.missed)
	}
	c.missed[key] = struct{}{}
	return nil, false
}

// putBase caches b under key unless a base of a later generation is
// already there.
func (c *TrieCache) putBase(key baseKey, b *cachedBase) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.bases[key]; old == nil || old.gen < b.gen {
		c.bases[key] = b
	}
}

// PurgeTable drops every cached trie and token column of the named
// table from a generation other than keep. Bases stay: a compacted
// generation keeps its rows' order and codes.
func (c *TrieCache) PurgeTable(table string, keep uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropOtherGens(c.m, table, keep)
	dropOtherGens(c.metas, table, keep)
}

// Len reports the number of cached tries and bases. GroupMeta token
// columns do not count: they are small beside the tries, at most one
// per item expression and primary-key column of a table generation.
func (c *TrieCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m) + len(c.bases)
}

// collectPaths lists the compiled tree's access paths in pre-order.
func collectPaths(n *cNode, out []string) []string {
	out = append(out, n.path)
	for _, ch := range n.children {
		out = collectPaths(ch, out)
	}
	return out
}

// Run executes the plan with the chosen attribute orders.
func Run(p *planner.Plan, ch *costopt.Choice, cat *storage.Catalog, opts Options) (*Result, error) {
	if !cat.Frozen() {
		return nil, fmt.Errorf("exec: catalog must be frozen before querying")
	}
	if fp := opts.ForcePath; fp != "" && fp != costopt.PathWCOJ && fp != costopt.PathBinary {
		return nil, fmt.Errorf("exec: unknown forced access path %q", fp)
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, err
	}
	st := opts.Stats
	if st != nil {
		st.Threads = opts.threads()
	}
	if p.ScalarScan {
		return RunScan(p, cat, opts, nil)
	}
	tr := stTrace(st)
	t0 := time.Now()
	cs := tr.Begin(tr.Root(), obs.SpanPhase, "compile")
	c, err := compile(p, ch, cat, opts)
	tr.End(cs)
	if st != nil {
		st.Phases.Compile = time.Since(t0)
	}
	if err != nil {
		return nil, err
	}
	// One execute span covers whichever dispatch commits (its kernel
	// span identifies the strategy; an unmatched fast-path probe costs
	// microseconds and stays inside the same interval).
	es := tr.Begin(tr.Root(), obs.SpanPhase, "execute")
	c.execSpan = es
	// Dense LA dispatch (§III-D): attribute elimination leaves dense
	// annotation buffers BLAS-compatible; call the kernel opaquely.
	// A forced access path bypasses the specialized kernels so both
	// forced modes exercise (and can be compared on) the generic engine.
	if !opts.NoAttrElim && !opts.NoBLAS && opts.ForcePath == "" {
		t1 := time.Now()
		if res, ok, err := tryDenseDispatch(c); err != nil {
			tr.End(es)
			return nil, err
		} else if ok {
			tr.End(es)
			if st != nil {
				st.Phases.Execute = time.Since(t1)
			}
			return res, nil
		}
	}
	// Specialized sparse matrix–vector kernel (the interpreter's
	// code-generation stand-in); falls back to the generic engine when
	// the plan shape does not match exactly.
	if !opts.NoFastPath && opts.ForcePath == "" {
		t1 := time.Now()
		if res, ok, err := trySpMVFastPath(c, opts); err != nil {
			tr.End(es)
			return nil, err
		} else if ok {
			tr.End(es)
			if st != nil {
				st.Phases.Execute = time.Since(t1)
			}
			return res, nil
		}
	}
	if st != nil {
		st.Dispatch = obs.DispatchWCOJ
		st.AccessPaths = collectPaths(c.root, nil)
		for _, p := range st.AccessPaths {
			if p == costopt.PathBinary {
				st.Dispatch = obs.DispatchHybrid
				break
			}
		}
	}
	t1 := time.Now()
	rows, hacc, err := runNode(c.root, opts, es)
	tr.End(es)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.Phases.Execute = time.Since(t1)
	}
	return c.output(rows, hacc)
}

// output assembles the root's rows (or hash-emit table) into the Result
// under the output phase, then recycles the row buffer.
func (c *compiled) output(rows *rowsBuf, hacc *hashAcc) (*Result, error) {
	st := c.opts.Stats
	tr := stTrace(st)
	t0 := time.Now()
	os := tr.Begin(tr.Root(), obs.SpanPhase, "output")
	var res *Result
	var err error
	if hacc != nil {
		res, err = assembleHash(c, hacc)
	} else {
		res, err = assemble(c, rows)
	}
	releaseRows(rows) // assemble copies into the Result; recycle the buffer
	tr.End(os)
	if st != nil && err == nil {
		st.Phases.Output = time.Since(t0)
	}
	return res, err
}
