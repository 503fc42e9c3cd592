package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/costopt"
	"repro/internal/dict"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/storage"
)

// perRowMeta is the per-row reference for a token column: a primary-key
// code → row map over the whole key column, then the item's kernel over
// a one-row selection per code.
func perRowMeta(toks []uint64, keys []uint32, num *expr.Num, ann []uint32) {
	rows := make([]int32, len(toks))
	for i := range rows {
		rows[i] = -1
	}
	for row, code := range keys {
		rows[code] = int32(row)
	}
	var vec expr.Vec
	if num != nil {
		vec = num.Bind()
	}
	var sel [1]int32
	var val [1]float64
	for code, row := range rows {
		switch {
		case row < 0:
			toks[code] = absentTok
		case ann != nil:
			toks[code] = uint64(ann[row])
		default:
			sel[0] = row
			vec(sel[:], val[:])
			toks[code] = dict.CanonFloatBits(val[0])
		}
	}
}

// runPerRowMeta runs a query with its token columns filled by the
// per-row reference (and no cache, so every column is filled anew).
func runPerRowMeta(t *testing.T, cat *storage.Catalog, sql string, opts Options) *Result {
	t.Helper()
	fillMeta = perRowMeta
	defer func() { fillMeta = fillMetaBlocks }()
	opts.Cache = nil
	return run(t, cat, sql, opts, costopt.Options{})
}

// metaShapes are GroupMeta items over metaCatalog's dim: EXTRACT,
// arithmetic and a CASE indicator (both with literals), a string item, a
// date item and a float item holding NaNs and -0.0; each alone (a
// hash-emit plan) and beside fact's key (the output hash-merge).
func metaShapes() []string {
	items := []string{
		"extract(year from d)",
		"w * 2 + 1",
		"CASE WHEN w > 2 THEN 1 ELSE 0 END",
		"tag",
		"d",
		"z",
		"z * -1",
	}
	var sqls []string
	for _, it := range items {
		for _, groups := range []string{it, "fact.a, " + it} {
			sqls = append(sqls, "SELECT "+groups+", sum(x) AS s, count(*) AS c FROM fact, dim WHERE fact.a = dim.a1 GROUP BY "+groups)
		}
	}
	return append(sqls, "SELECT w, extract(month from d), tag, z, sum(x) AS s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY w, extract(month from d), tag, z")
}

// appendFreshKeys appends n copies of random rows of the named table,
// each with a primary key the table lacks, minting a new generation.
func appendFreshKeys(t *testing.T, cat *storage.Catalog, rng *rand.Rand, name, pk string, n int) {
	t.Helper()
	h := cat.Table(name)
	tb := cat.Snapshot().Resolve(h)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = copyRow(tb, rng.Intn(tb.NumRows))
		for c, col := range tb.Cols {
			if col.Def.Name == pk {
				rows[i][c] = int64(tb.NumRows + 1_000_000 + i)
			}
		}
	}
	if err := h.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
}

// metaCells are the execution settings every token-column check runs
// under: threads 1, 2 and 7 on every access path.
func metaCells() []Options {
	var cells []Options
	for _, threads := range []int{1, 2, 7} {
		for _, path := range []string{"", costopt.PathBinary, costopt.PathWCOJ} {
			cells = append(cells, Options{Threads: threads, ForcePath: path})
		}
	}
	return cells
}

// checkMetaColumns runs each query in every cell with no cache, a cold
// cache and a warm one, then mints a new generation of each pk table and
// runs it again over a cache holding the older generation's columns:
// every result must be bit-identical to the per-row reference at the
// same snapshot.
func checkMetaColumns(t *testing.T, cat *storage.Catalog, sqls []string, newGen func()) {
	t.Helper()
	shared := NewTrieCache()
	rows := 0
	for _, sql := range sqls {
		for _, cell := range metaCells() {
			cell.Snap = cat.Snapshot()
			name := fmt.Sprintf("%s threads=%d path=%q", sql, cell.Threads, cell.ForcePath)
			ref := runPerRowMeta(t, cat, sql, cell)
			rows += ref.NumRows
			assertResultsEqual(t, name+" no cache", ref, run(t, cat, sql, cell, costopt.Options{}))
			cell.Cache = NewTrieCache()
			assertResultsEqual(t, name+" cold", ref, run(t, cat, sql, cell, costopt.Options{}))
			assertResultsEqual(t, name+" warm", ref, run(t, cat, sql, cell, costopt.Options{}))
			cell.Cache = shared
			assertResultsEqual(t, name+" shared", ref, run(t, cat, sql, cell, costopt.Options{}))
		}
	}
	if rows == 0 {
		t.Fatal("every query came back empty")
	}
	newGen()
	for _, sql := range sqls {
		for _, cell := range metaCells() {
			cell.Snap = cat.Snapshot()
			name := fmt.Sprintf("%s threads=%d path=%q", sql, cell.Threads, cell.ForcePath)
			ref := runPerRowMeta(t, cat, sql, cell)
			cell.Cache = shared
			assertResultsEqual(t, name+" new generation", ref, run(t, cat, sql, cell, costopt.Options{}))
			assertResultsEqual(t, name+" new generation warm", ref, run(t, cat, sql, cell, costopt.Options{}))
		}
	}
}

// TestMetaColumnBitIdentical runs TPC-H q3, q8, q9 and q10 with redrawn
// literals and the metaShapes items through checkMetaColumns: token
// columns filled by one block-kernel pass, cached or not, across a new
// generation of the primary-key table, give the same bits as the per-row
// reference at 1, 2 and 7 threads on every access path.
func TestMetaColumnBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tpc := tpchCatalog(t, 0.005)
	var tq []string
	for _, q := range []string{"q3", "q8", "q9", "q10"} {
		for draw := 0; draw < 2; draw++ {
			tq = append(tq, redrawTPCH(q, rng))
		}
	}
	checkMetaColumns(t, tpc, tq, func() {
		appendFreshKeys(t, tpc, rng, "orders", "o_orderkey", 20)
		appendFreshKeys(t, tpc, rng, "customer", "c_custkey", 20)
	})

	// dim lacks a few of fact's keys; the new generation adds them.
	const nDim = 60
	mc := metaCatalog(t, nDim, 900)
	checkMetaColumns(t, mc, metaShapes(), func() {
		var rows [][]any
		for a := nDim; a < nDim+3; a++ {
			rows = append(rows, []any{int64(a), float64(a % 6), int64(9000 + a), "v", float64(a % 4)})
		}
		if err := mc.Table("dim").AppendBatch(rows); err != nil {
			t.Fatal(err)
		}
	})
}

// metaGens lists the generations of the cached token columns of a table.
func metaGens(c *TrieCache, table string) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var gens []uint64
	for k := range c.metas {
		if k.table == table {
			gens = append(gens, k.gen)
		}
	}
	return gens
}

// TestMetaColumnLifecycle: a token column is cached per table
// generation and shared by every alias; a newer generation's column
// drops the older one, PurgeTable drops every generation but the one it
// keeps, and the columns never count in Len.
func TestMetaColumnLifecycle(t *testing.T) {
	cat := metaCatalog(t, 40, 600)
	cache := NewTrieCache()
	dim := cat.Table("dim")
	const sql = `SELECT extract(year from d) AS y, tag, sum(x) AS s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY y, tag`
	query := func(sql string) {
		t.Helper()
		run(t, cat, sql, Options{Threads: 2, Cache: cache, Snap: cat.Snapshot()}, costopt.Options{})
	}
	expect := func(when string, want ...uint64) {
		t.Helper()
		if got := metaGens(cache, "dim"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: cached dim columns of generations %v, want %v", when, got, want)
		}
	}
	query(sql)
	gen0 := cat.Snapshot().Resolve(dim).Generation()
	expect("first run", gen0, gen0)
	tries := cache.Len()
	query(`SELECT extract(year from dd.d) AS y, dd.tag, sum(x) AS s FROM fact, dim AS dd WHERE fact.a = dd.a1 GROUP BY y, dd.tag`)
	expect("an alias of the table", gen0, gen0)

	if err := dim.AppendBatch([][]any{{int64(40), 1.0, int64(9000), "u", 0.0}}); err != nil {
		t.Fatal(err)
	}
	gen1 := cat.Snapshot().Resolve(dim).Generation()
	query(`SELECT tag, sum(x) AS s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY tag`)
	expect("a newer generation", gen1)
	if cache.Len() != tries {
		t.Fatalf("Len %d after the newer generation, want %d (tries only)", cache.Len(), tries)
	}
	cache.PurgeTable("dim", gen1+1)
	expect("PurgeTable")

	query(sql)
	if err := dim.AppendBatch([][]any{{int64(41), 1.0, int64(9000), "u", 0.0}}); err != nil {
		t.Fatal(err)
	}
	cache.PurgeTable("dim", cat.Snapshot().Resolve(dim).Generation())
	expect("PurgeTable after an append")
}

// TestMetaColumnLiteralsNotCached: an item expression holding a literal
// is built per query, so redrawing its literal 25 times adds no cached
// column, while the literal-free item beside it stays cached once.
func TestMetaColumnLiteralsNotCached(t *testing.T) {
	cat := metaCatalog(t, 40, 600)
	cache := NewTrieCache()
	for i := 0; i < 25; i++ {
		sql := fmt.Sprintf(`SELECT tag, CASE WHEN w > %d THEN 1 ELSE 0 END AS hi, w * %d AS v, sum(x) AS s
			FROM fact, dim WHERE fact.a = dim.a1 GROUP BY tag, hi, v`, i%6, i)
		opts := Options{Threads: 2, Cache: cache}
		assertResultsEqual(t, sql, runPerRowMeta(t, cat, sql, opts), run(t, cat, sql, opts, costopt.Options{}))
		if n := len(metaGens(cache, "dim")); n != 1 {
			t.Fatalf("draw %d: %d cached dim columns, want 1 (tag's)", i, n)
		}
	}
}

// TestMetaColumnConcurrent builds and reads the same token columns from
// four goroutines over one cache: every answer matches the per-row
// reference.
func TestMetaColumnConcurrent(t *testing.T) {
	cat := metaCatalog(t, 200, 4000)
	var sqls []string
	var refs []*Result
	for _, sql := range metaShapes() {
		if strings.Contains(sql, "fact.a") {
			continue
		}
		sqls = append(sqls, sql)
		refs = append(refs, runPerRowMeta(t, cat, sql, Options{Threads: 2}))
	}
	cache := NewTrieCache()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, sql := range sqls {
					res, err := runErr(cat, sql, Options{Threads: 1 + g%2, Cache: cache}, costopt.Options{})
					if err == nil {
						err = sameResult(refs[i], res)
					}
					if err != nil {
						t.Errorf("goroutine %d round %d %s: %v", g, round, sql, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMetaColumnPastEnd: a code at or past a token column's end (minted
// after the column was built, through an append to another table of the
// join domain) counts as absent: the hash-emit path skips its tuples and
// the output merge reports the missing metadata row.
func TestMetaColumnPastEnd(t *testing.T) {
	cat := metaCatalog(t, 40, 600)
	for _, tc := range []struct {
		sql      string
		hashEmit bool
	}{
		{`SELECT extract(year from d) AS y, sum(x) AS s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY y`, true},
		{`SELECT fact.a, tag, sum(x) AS s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY fact.a, tag`, false},
	} {
		p, ch := planFor(t, cat, tc.sql)
		if p.HashEmit != tc.hashEmit {
			t.Fatalf("%s: HashEmit = %v, want %v", tc.sql, p.HashEmit, tc.hashEmit)
		}
		full := run(t, cat, tc.sql, Options{Threads: 2}, costopt.Options{})
		c, err := compile(p, ch, cat, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Cut every column to its first half, as if built before the
		// upper codes existed.
		for gi := range c.groups {
			c.groups[gi].toks = c.groups[gi].toks[:len(c.groups[gi].toks)/2]
		}
		for gi := range c.root.hgroups {
			c.root.hgroups[gi].toks = c.root.hgroups[gi].toks[:len(c.root.hgroups[gi].toks)/2]
		}
		rows, hacc, err := runNode(c.root, c.opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.output(rows, hacc)
		if !tc.hashEmit {
			if err == nil || !strings.Contains(err.Error(), "no metadata row") {
				t.Fatalf("%s: err = %v, want a missing metadata row", tc.sql, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var got, want float64
		for r := 0; r < res.NumRows; r++ {
			got += res.Col("s").F64[r]
		}
		for r := 0; r < full.NumRows; r++ {
			want += full.Col("s").F64[r]
		}
		if !(got < want) {
			t.Fatalf("%s: sum %v over the cut columns, want below the full %v", tc.sql, got, want)
		}
	}
}

// TestMetaColumnCharged: building a token column charges its bytes to
// the building query, and a cached column charges nothing.
func TestMetaColumnCharged(t *testing.T) {
	cat := metaCatalog(t, 40, 600)
	const sql = `SELECT extract(year from d) AS y, tag, sum(x) AS s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY y, tag`
	charge := func(cache *TrieCache) int64 {
		mem := governor.New(governor.Config{MemoryBudget: 1 << 40}).NewAccountant(sql, 0)
		run(t, cat, sql, Options{Threads: 2, Cache: cache, Mem: mem}, costopt.Options{})
		return mem.Used()
	}
	cache := NewTrieCache()
	charge(cache)
	// Keep only the token columns, so the next run builds every trie
	// as a cache-less run does.
	clear(cache.m)
	clear(cache.bases)
	clear(cache.missed)
	var colBytes int64
	for _, toks := range cache.metas {
		colBytes += int64(8 * len(toks))
	}
	if len(cache.metas) != 2 || colBytes == 0 {
		t.Fatalf("%d cached columns of %d bytes, want 2", len(cache.metas), colBytes)
	}
	if cold, warm := charge(nil), charge(cache); cold-warm != colBytes {
		t.Fatalf("charged %d bytes building the columns and %d reading them cached: the difference should be their %d bytes",
			cold, warm, colBytes)
	}
}
