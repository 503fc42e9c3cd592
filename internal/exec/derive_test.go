package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/costopt"
	"repro/internal/governor"
	"repro/internal/lagen"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/trie"
)

func tpchCatalog(t *testing.T, sf float64) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	if _, err := tpch.Populate(cat, sf, 5); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// filteredShapes are the TPC-H join queries whose relations are
// filtered, a second binding of q3 and q10 that selects other rows out
// of the same base orders, and a join that keeps a handful of lineitem
// rows.
func filteredShapes() map[string]string {
	return map[string]string{
		"oneday": `SELECT o_shippriority, sum(l_extendedprice) AS r FROM orders, lineitem
			WHERE l_orderkey = o_orderkey AND l_shipdate = date '1995-03-15' GROUP BY o_shippriority`,
		"q3":  tpch.Queries["q3"],
		"q5":  tpch.Queries["q5"],
		"q8":  tpch.Queries["q8"],
		"q10": tpch.Queries["q10"],
		"q3b": strings.ReplaceAll(strings.ReplaceAll(tpch.Queries["q3"], "1995-03-15", "1995-05-02"), "BUILDING", "MACHINERY"),
		"q10b": strings.ReplaceAll(strings.ReplaceAll(tpch.Queries["q10"], "1993-10-01", "1994-06-11"),
			"l_returnflag = 'R'", "l_returnflag = 'A'"),
	}
}

// TestFilteredTriesColdWarmAgree runs the filtered TPC-H join shapes on
// an empty trie cache (every filtered relation built directly over its
// survivors), then again (the second miss builds the base orders and
// derives from them) and again (derived from cached bases, nothing
// built), under forced WCOJ and forced binary: every run is
// bit-identical to a cache-less run, and the counters say which path
// each run took.
func TestFilteredTriesColdWarmAgree(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	for name, sql := range filteredShapes() {
		for _, path := range []string{costopt.PathWCOJ, costopt.PathBinary} {
			ref := run(t, cat, sql, Options{ForcePath: path, Threads: 2}, costopt.Options{})
			cache := NewTrieCache()
			for round := 0; round < 4; round++ {
				st := &obs.QueryStats{}
				res := run(t, cat, sql, Options{ForcePath: path, Threads: 2, Cache: cache, Stats: st}, costopt.Options{})
				assertResultsEqual(t, name+"/"+path, ref, res)
				switch {
				case round == 0 && st.TriesDerived != 0:
					t.Fatalf("%s/%s cold run derived %d tries", name, path, st.TriesDerived)
				case round > 0 && st.TriesDerived == 0:
					t.Fatalf("%s/%s run %d derived nothing", name, path, round)
				case round > 1 && st.TriesBuilt != 0:
					t.Fatalf("%s/%s warm run %d built %d tries", name, path, round, st.TriesBuilt)
				}
			}
		}
	}
}

// TestConcurrentDerive runs the filtered shapes from many goroutines
// over one warm cache, so several queries derive from the same cached
// base orders at once (run under -race by make hybrid-race).
func TestConcurrentDerive(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	shapes := filteredShapes()
	cache := NewTrieCache()
	refs := map[string]*Result{}
	for name, sql := range shapes {
		refs[name] = run(t, cat, sql, Options{Threads: 2}, costopt.Options{})
		for i := 0; i < 2; i++ { // admit the bases
			run(t, cat, sql, Options{Threads: 2, Cache: cache}, costopt.Options{})
		}
	}
	type out struct {
		name string
		res  *Result
		err  error
	}
	outs := make(chan out, 4*len(shapes))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for name, sql := range shapes {
			wg.Add(1)
			go func(name, sql string) {
				defer wg.Done()
				st := &obs.QueryStats{}
				res, err := runErr(cat, sql, Options{Threads: 2, Cache: cache, Stats: st}, costopt.Options{})
				if err == nil && st.TriesDerived == 0 {
					err = errNoDerive
				}
				outs <- out{name, res, err}
			}(name, sql)
		}
	}
	wg.Wait()
	close(outs)
	for o := range outs {
		if o.err != nil {
			t.Fatalf("%s: %v", o.name, o.err)
		}
		assertResultsEqual(t, o.name, refs[o.name], o.res)
	}
}

var errNoDerive = errors.New("warm run derived no trie")

// TestBaseAdmission: the first filtered miss builds directly and caches
// nothing; the second builds the base. A base then serves its own
// generation, and later ones while its columns' codes are stable and the
// tail stays within 1/rebaseFrac of its rows; past that, lookups miss
// again and the second such miss admits a rebuild. A snapshot older than
// the base neither derives nor counts a miss, and purging the table
// keeps the base.
func TestBaseAdmission(t *testing.T) {
	c := NewTrieCache()
	k := baseKey{table: "t", cols: "a"}
	if b, admit := c.base(k, 1, 6400, true); b != nil || admit {
		t.Fatal("first miss admitted a base")
	}
	if b, admit := c.base(k, 1, 6400, true); b != nil || !admit {
		t.Fatal("second miss did not admit a base")
	}
	c.putBase(k, &cachedBase{Lazy: new(trie.Lazy), gen: 1, rows: 6400})
	c.base(baseKey{table: "t", cols: "b"}, 1, 6400, true)
	for _, tc := range []struct {
		gen        uint64
		rows       int
		stable     bool
		hit, admit bool
	}{
		{1, 6400, false, true, false},
		{2, 6400, true, true, false},   // compacted: same rows
		{3, 6500, true, true, false},   // a tail of 100 = 6400/rebaseFrac
		{3, 6500, false, false, false}, // a re-ranked column never extends
		{4, 6501, true, false, true},   // tail past 6400/rebaseFrac: second miss
	} {
		if b, admit := c.base(k, tc.gen, tc.rows, tc.stable); (b != nil) != tc.hit || admit != tc.admit {
			t.Fatalf("gen %d rows %d stable %v: hit %v admit %v, want %v %v",
				tc.gen, tc.rows, tc.stable, b != nil, admit, tc.hit, tc.admit)
		}
	}
	// The rebuilt base replaces the old one; an older snapshot's base
	// does not replace it, nor does that snapshot derive or miss.
	c.putBase(k, &cachedBase{Lazy: new(trie.Lazy), gen: 4, rows: 6501})
	c.putBase(k, &cachedBase{Lazy: new(trie.Lazy), gen: 3, rows: 6500})
	if b, admit := c.base(k, 3, 6500, true); b != nil || admit || c.bases[k].gen != 4 {
		t.Fatal("a snapshot older than the base derived, was admitted, or replaced it")
	}
	// A small base admits a tail of rebaseFrac rows.
	small := baseKey{table: "t", cols: "c"}
	c.putBase(small, &cachedBase{Lazy: new(trie.Lazy), gen: 4, rows: 10})
	if b, _ := c.base(small, 5, 10+rebaseFrac, true); b == nil {
		t.Fatal("a small base did not take a tail of rebaseFrac rows")
	}
	c.put(trieKey{baseKey: k, gen: 4}, new(trie.Lazy))
	c.PurgeTable("t", 5)
	if len(c.m) != 0 || len(c.bases) != 2 {
		t.Fatalf("purge left %d tries and %d bases, want 0 and 2", len(c.m), len(c.bases))
	}
	for i := 0; i < 2*maxMissed; i++ {
		c.base(baseKey{table: "u", cols: fmt.Sprint(i)}, 1, 1, true)
	}
	if len(c.missed) > maxMissed {
		t.Fatalf("miss record holds %d keys, bound %d", len(c.missed), maxMissed)
	}
}

// TestTrieCacheKeepsNewestGeneration: caching a table's trie of a newer
// generation drops its older ones, and an older one is not cached over a
// newer one, so an appended table holds one generation's tries.
func TestTrieCacheKeepsNewestGeneration(t *testing.T) {
	c := NewTrieCache()
	for gen := uint64(1); gen <= 5; gen++ {
		for _, cols := range []string{"a", "b"} {
			c.put(trieKey{baseKey: baseKey{table: "t", cols: cols}, gen: gen}, new(trie.Lazy))
		}
		c.put(trieKey{baseKey: baseKey{table: "u", cols: "a"}, gen: 1}, new(trie.Lazy))
	}
	c.put(trieKey{baseKey: baseKey{table: "t", cols: "c"}, gen: 2}, new(trie.Lazy))
	if c.Len() != 3 {
		t.Fatalf("cache holds %d tries, want 3", c.Len())
	}
	for k := range c.m {
		if k.table == "t" && k.gen != 5 {
			t.Fatalf("stale trie %+v kept", k)
		}
	}
}

// TestSwappedSelfJoinBases: self-joins that bind the two key columns
// of one table in opposite level orders. Both relations name their
// levels after the one shared domain, so only the columns tell their
// cached tries and base orders apart; every warm run must still match a
// cache-less run.
func TestSwappedSelfJoinBases(t *testing.T) {
	cat := storage.NewCatalog()
	if _, err := lagen.LoadSparse(cat, lagen.SparseSpec{N: 300, NNZPerRow: 6, Bandwidth: 30}, 3); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql     string
		derived int // tries derived by a warm run
	}{
		{`SELECT a.i, sum(a.v * b.v) AS s, count(*) AS c FROM matrix a, matrix b
			WHERE a.i = b.j AND a.j = b.i AND a.v > 0.1 AND b.v > -0.3 GROUP BY a.i`, 2},
		{`SELECT count(*) AS c FROM matrix a, matrix b WHERE a.i = b.j AND a.j = b.i`, 0},
	} {
		for _, path := range []string{costopt.PathWCOJ, costopt.PathBinary} {
			ref := run(t, cat, tc.sql, Options{ForcePath: path, Threads: 2}, costopt.Options{})
			if ref.NumRows == 0 {
				t.Fatal("empty reference result")
			}
			cache := NewTrieCache()
			for round := 0; round < 3; round++ {
				st := &obs.QueryStats{}
				res := run(t, cat, tc.sql, Options{ForcePath: path, Threads: 2, Cache: cache, Stats: st}, costopt.Options{})
				assertResultsEqual(t, fmt.Sprintf("%s/%s run %d", tc.sql, path, round), ref, res)
				if round == 2 && st.TriesDerived != tc.derived {
					t.Fatalf("%s/%s: warm run derived %d tries, want %d", tc.sql, path, st.TriesDerived, tc.derived)
				}
			}
		}
	}
}

// TestBudgetAdmitsWarmRuns: a memory budget that admits a filtered
// query's cold run admits its later runs too, whether or not they build
// a base or derive from one (the base is never charged to the query,
// and a derived build never charges more than the direct one).
func TestBudgetAdmitsWarmRuns(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	for name, sql := range filteredShapes() {
		for _, path := range []string{costopt.PathWCOJ, costopt.PathBinary} {
			ref := run(t, cat, sql, Options{ForcePath: path, Threads: 1}, costopt.Options{})
			var cold int64
			for i := 0; i < 3; i++ {
				probe := governor.New(governor.Config{MemoryBudget: 1 << 40}).NewAccountant(sql, 0)
				run(t, cat, sql, Options{ForcePath: path, Threads: 1, Cache: NewTrieCache(), Mem: probe}, costopt.Options{})
				cold = max(cold, probe.Used())
			}
			// A query's charge does not depend on the worker pool, so
			// the cold charge itself is the tightest budget.
			for _, budget := range []int64{cold, cold + cold/2, 1 << 40} {
				cache := NewTrieCache()
				derived := 0
				for round := 0; round < 3; round++ {
					st := &obs.QueryStats{}
					mem := governor.New(governor.Config{MemoryBudget: budget}).NewAccountant(sql, 0)
					res, err := runErr(cat, sql, Options{ForcePath: path, Threads: 1, Cache: cache, Stats: st, Mem: mem}, costopt.Options{})
					if err != nil {
						t.Fatalf("%s/%s budget %d (cold run used %d) run %d: %v", name, path, budget, cold, round, err)
					}
					assertResultsEqual(t, name+"/"+path, ref, res)
					derived += st.TriesDerived
				}
				// Under any budget, oneday's few survivors build directly.
				if budget == 1<<40 && (derived == 0) != (name == "oneday") {
					t.Fatalf("%s/%s: %d tries derived under an unbounded budget", name, path, derived)
				}
			}
		}
	}
}

// TestChargeIndependentOfPool: a query's accountant charge is one number
// over 20 runs, whatever the worker pool holds: emptied before some
// runs, holding workers grown by a query with a large output before
// others, and left as the previous run left it before the rest.
func TestChargeIndependentOfPool(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	const big = `SELECT l_orderkey, l_partkey, l_suppkey, sum(l_quantity) AS q FROM orders, lineitem
		WHERE l_orderkey = o_orderkey GROUP BY l_orderkey, l_partkey, l_suppkey`
	for name, sql := range filteredShapes() {
		for _, path := range []string{costopt.PathWCOJ, costopt.PathBinary} {
			var want int64
			for i := 0; i < 20; i++ {
				switch i % 3 {
				case 0: // two collections empty a sync.Pool
					runtime.GC()
					runtime.GC()
				case 1:
					run(t, cat, big, Options{ForcePath: path, Threads: 2}, costopt.Options{})
				}
				mem := governor.New(governor.Config{MemoryBudget: 1 << 40}).NewAccountant(sql, 0)
				run(t, cat, sql, Options{ForcePath: path, Threads: 2, Mem: mem}, costopt.Options{})
				if i == 0 {
					want = mem.Used()
				} else if got := mem.Used(); got != want {
					t.Fatalf("%s/%s run %d: charged %d bytes, first run %d", name, path, i, got, want)
				}
			}
		}
	}
}

// appendCopies appends n rows to the named table, each a copy of a
// random row of its current generation; when fresh, each Int64 key of
// a copy moves to a value the table lacks with probability 1/3, so the
// tail holds repeats of base key tuples, tuples new at an inner level
// and tuples new at level 0.
func appendCopies(t *testing.T, cat *storage.Catalog, rng *rand.Rand, name string, n int, fresh bool) {
	t.Helper()
	h := cat.Table(name)
	tb := cat.Snapshot().Resolve(h)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = copyRow(tb, rng.Intn(tb.NumRows))
		for c, col := range tb.Cols {
			if fresh && col.Def.Role == storage.Key && col.Def.Kind == storage.Int64 && rng.Intn(3) == 0 {
				rows[i][c] = int64(1_000_000 + rng.Intn(1_000_000))
			}
		}
	}
	if err := h.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
}

// copyRow returns row i of a table generation as Append values.
func copyRow(tb *storage.Table, i int) []any {
	row := make([]any, len(tb.Cols))
	for c, col := range tb.Cols {
		switch col.Def.Kind {
		case storage.Int64, storage.Date:
			row[c] = col.Ints[i]
		case storage.Float64:
			row[c] = col.Floats[i]
		case storage.String:
			row[c] = col.Str(i)
		}
	}
	return row
}

// warmBases runs every filtered shape until its bases are cached and
// returns how many tries each shape's warm run derives.
func warmBases(t *testing.T, cat *storage.Catalog, cache *TrieCache, shapes map[string]string) map[string]int {
	t.Helper()
	warm := map[string]int{}
	for name, sql := range shapes {
		for round := 0; round < 3; round++ {
			st := &obs.QueryStats{}
			run(t, cat, sql, Options{Threads: 2, Cache: cache, Stats: st, Snap: cat.Snapshot()}, costopt.Options{})
			warm[name] = st.TriesDerived
		}
	}
	return warm
}

// TestDeriveAcrossAppends: bases cached before appends to lineitem and
// orders keep serving every filtered shape after each append and after
// Compact, never rebuilt: each relation that derived before still
// derives (base plus a tail of the appended rows), a second run builds
// nothing, and every result is bit-identical to a cache-less run on the
// same snapshot. Once the tail outgrows the base the second miss
// rebuilds it, and a query pinned to a snapshot older than the rebuilt
// base builds that relation directly and still reads its own snapshot.
func TestDeriveAcrossAppends(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	rng := rand.New(rand.NewSource(33))
	shapes := filteredShapes()
	cache := NewTrieCache()
	warm := warmBases(t, cat, cache, shapes)
	bases := maps.Clone(cache.bases)
	check := func(stage string, snap *storage.Snapshot) {
		t.Helper()
		for name, sql := range shapes {
			ref := run(t, cat, sql, Options{Threads: 2, Snap: snap}, costopt.Options{})
			for round := 0; round < 2; round++ {
				st := &obs.QueryStats{}
				res := run(t, cat, sql, Options{Threads: 2, Snap: snap, Cache: cache, Stats: st}, costopt.Options{})
				assertResultsEqual(t, stage+"/"+name, ref, res)
				if st.TriesDerived != warm[name] || round == 1 && st.TriesBuilt != 0 {
					t.Fatalf("%s/%s run %d: derived %d (warm %d), built %d", stage, name, round, st.TriesDerived, warm[name], st.TriesBuilt)
				}
			}
		}
		for k, b := range bases {
			if cache.bases[k] != b {
				t.Fatalf("%s: base %q rebuilt", stage, k)
			}
		}
	}
	var pinned *storage.Snapshot
	for i := 0; i < 3; i++ {
		appendCopies(t, cat, rng, "lineitem", 20, i > 0)
		appendCopies(t, cat, rng, "orders", 8, true)
		snap := cat.Snapshot()
		if pinned == nil {
			pinned = snap
		}
		check(fmt.Sprintf("append %d", i), snap)
	}
	if _, _, err := cat.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("compacted", cat.Snapshot())

	// Outgrow lineitem's base: the first miss builds directly, the
	// second rebuilds the base over the current generation.
	appendCopies(t, cat, rng, "lineitem", cat.Table("lineitem").LiveRows()/rebaseFrac+rebaseFrac, true)
	snap := cat.Snapshot()
	for round := 0; round < 2; round++ {
		run(t, cat, shapes["q3"], Options{Threads: 2, Snap: snap, Cache: cache}, costopt.Options{})
	}
	rebuilt := false
	for k, b := range cache.bases {
		if k.table == "lineitem" && b.gen == snap.Resolve(cat.Table("lineitem")).Generation() {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Fatal("a tail past the bound did not rebuild lineitem's base")
	}
	ref := run(t, cat, shapes["q3"], Options{Threads: 2, Snap: pinned}, costopt.Options{})
	st := &obs.QueryStats{}
	res := run(t, cat, shapes["q3"], Options{Threads: 2, Snap: pinned, Cache: cache, Stats: st}, costopt.Options{})
	assertResultsEqual(t, "pinned q3", ref, res)
	if st.TriesBuilt == 0 || st.TriesDerived >= warm["q3"] {
		t.Fatalf("pinned q3 built %d and derived %d of %d: want lineitem built directly", st.TriesBuilt, st.TriesDerived, warm["q3"])
	}
}

// TestPseudoLevelsNeverExtend: a numeric column on a trie level is
// re-ranked over the whole column per build, so its base serves only
// its own generation: after an append the relation builds directly
// until its base is rebuilt, and the result matches a cache-less run.
func TestPseudoLevelsNeverExtend(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	const sql = `SELECT l_quantity, sum(o_totalprice) AS s FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_shipdate > date '1995-03-15' AND o_orderdate < date '1995-03-15'
		GROUP BY l_quantity`
	shapes := map[string]string{"pseudo": sql}
	cache := NewTrieCache()
	warm := warmBases(t, cat, cache, shapes)
	pseudo := false
	for k := range cache.bases {
		pseudo = pseudo || strings.Contains(k.cols, "l_quantity")
	}
	if !pseudo || warm["pseudo"] != 2 {
		t.Fatalf("no base over the pseudo level l_quantity (warm run derived %d)", warm["pseudo"])
	}
	appendCopies(t, cat, rand.New(rand.NewSource(4)), "lineitem", 5, false)
	snap := cat.Snapshot()
	ref := run(t, cat, sql, Options{Threads: 2, Snap: snap}, costopt.Options{})
	st := &obs.QueryStats{}
	res := run(t, cat, sql, Options{Threads: 2, Snap: snap, Cache: cache, Stats: st}, costopt.Options{})
	assertResultsEqual(t, "pseudo after append", ref, res)
	if st.TriesDerived != 1 {
		t.Fatalf("after an append derived %d tries, want 1 (orders only)", st.TriesDerived)
	}
}

// TestConcurrentAppendDerive runs the filtered shapes from several
// goroutines, each on the snapshot current when it starts, while
// another goroutine appends to lineitem and orders: queries derive from
// shared bases with different tails at once, and every result matches a
// cache-less run on its snapshot (run under -race by make hybrid-race).
func TestConcurrentAppendDerive(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	shapes := filteredShapes()
	cache := NewTrieCache()
	warmBases(t, cat, cache, shapes)
	// The appender's rows are copied up front, so it calls nothing but
	// AppendBatch (appendCopies would t.Fatal off the test goroutine).
	tb := cat.Snapshot().Resolve(cat.Table("lineitem"))
	lineRows := make([][]any, 24)
	for i := range lineRows {
		lineRows[i] = copyRow(tb, i*7)
	}
	done := make(chan struct{})
	var appendErr error
	go func() {
		defer close(done)
		for i := 0; i < len(lineRows) && appendErr == nil; i += 4 {
			appendErr = cat.Table("lineitem").AppendBatch(lineRows[i : i+4])
		}
	}()
	type out struct {
		name string
		err  error
	}
	outs := make(chan out, 3*len(shapes))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, sql := range shapes {
				snap := cat.Snapshot()
				ref, err := runErr(cat, sql, Options{Threads: 2, Snap: snap}, costopt.Options{})
				if err != nil {
					outs <- out{name, err}
					continue
				}
				st := &obs.QueryStats{}
				res, err := runErr(cat, sql, Options{Threads: 2, Snap: snap, Cache: cache, Stats: st}, costopt.Options{})
				if err == nil && st.TriesDerived == 0 {
					err = errNoDerive
				}
				if err == nil {
					err = sameResult(ref, res)
				}
				outs <- out{name, err}
			}
		}()
	}
	wg.Wait()
	<-done
	close(outs)
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	for o := range outs {
		if o.err != nil {
			t.Fatalf("%s: %v", o.name, o.err)
		}
	}
}
