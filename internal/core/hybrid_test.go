package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costopt"
	"repro/internal/exec"
	"repro/internal/storage"
)

// hybridEngine builds a joinable fact/dim pair whose key sets are
// initially disjoint, so the first binary-path query's level-0 join is
// empty and the cached lazy tries stay partially materialized (level 0
// only — the COLT laziness this file exercises).
func hybridEngine(t *testing.T) (*Engine, *storage.Table, *storage.Table) {
	t.Helper()
	eng := New()
	fact, err := eng.CreateTable(storage.Schema{Name: "fact", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "b", Kind: storage.Int64, Role: storage.Key, Domain: "db"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := eng.CreateTable(storage.Schema{Name: "dim", Cols: []storage.ColumnDef{
		{Name: "a1", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "b1", Kind: storage.Int64, Role: storage.Key, Domain: "db"},
		{Name: "w", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if err := fact.Append(i, i%16, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := dim.Append(i+1000, i%16, float64(i)/2); err != nil {
			t.Fatal(err)
		}
	}
	return eng, fact, dim
}

const hybridJoin = `SELECT sum(x * w) AS v, count(*) AS c FROM fact, dim WHERE fact.a = dim.a1 AND fact.b = dim.b1`

// disjointFirst pins the join order with the initially disjoint key a at
// level 0: the orders [a b] and [b a] cost the same, and only with a
// first does an empty join leave every lazy trie at level 0.
var disjointFirst = []string{"da", "db"}

// queryBinary runs the query forced onto the binary path, in the
// disjointFirst order, and returns the result plus its stats.
func queryBinary(t *testing.T, eng *Engine) *exec.Result {
	t.Helper()
	res, err := eng.QueryWithContext(context.Background(), hybridJoin,
		QueryOptions{ForcePath: costopt.PathBinary, ForcedOrder: disjointFirst})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLazyTrieCacheInvalidationAcrossCompact drives the level-granular
// trie cache through the lazy lifecycle: an empty join leaves cached
// lazy tries built to level 0 only; appends plus Compact swap the table
// generation, which must purge the partially-built entries; the
// post-compact query must then agree bitwise with the WCOJ path on the
// fresh generation.
func TestLazyTrieCacheInvalidationAcrossCompact(t *testing.T) {
	eng, fact, dim := hybridEngine(t)

	// Disjoint keys: empty join, lazy tries cached at level 0 only.
	res := queryBinary(t, eng)
	if res.Stats == nil || len(res.Stats.NodeCosts) != 1 {
		t.Fatalf("want 1 node cost, got %+v", res.Stats)
	}
	if got := res.Stats.NodeCosts[0].LazyLevels; got != 0 {
		t.Fatalf("empty join materialized %d deeper lazy levels, want 0", got)
	}
	if res.Col("c").F64[0] != 0 {
		t.Fatalf("disjoint join counted %v rows", res.Col("c").F64[0])
	}
	if eng.CacheSize() == 0 {
		t.Fatal("no lazy tries cached")
	}

	// Overlap the key sets through the delta store, then compact: the
	// generation bump must purge the level-0-only entries.
	for i := int64(0); i < 32; i++ {
		if err := fact.Append(i+1000, i%16, 2.0); err != nil {
			t.Fatal(err)
		}
		if err := dim.Append(i+2000, i%16, 3.0); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Non-empty now: the first probe must materialize deeper levels of
	// the freshly cached (new-generation) lazy tries...
	res = queryBinary(t, eng)
	if got := res.Stats.NodeCosts[0].LazyLevels; got == 0 {
		t.Fatal("post-compact query materialized no lazy levels; stale tries survived the purge?")
	}
	if res.Col("c").F64[0] == 0 {
		t.Fatal("post-compact join is empty; appends lost")
	}
	// ...and a re-run finds them already built (level-granular reuse).
	res2 := queryBinary(t, eng)
	if got := res2.Stats.NodeCosts[0].LazyLevels; got != 0 {
		t.Fatalf("re-run rebuilt %d lazy levels; cache reuse broken", got)
	}

	// Bit-identical to the WCOJ path on the same generation.
	rw, err := eng.QueryWithContext(context.Background(), hybridJoin,
		QueryOptions{ForcePath: costopt.PathWCOJ, ForcedOrder: disjointFirst})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rw.Col("v").F64[0]) != math.Float64bits(res2.Col("v").F64[0]) ||
		rw.Col("c").F64[0] != res2.Col("c").F64[0] {
		t.Fatalf("wcoj %v/%v vs binary %v/%v", rw.Col("v").F64[0], rw.Col("c").F64[0],
			res2.Col("v").F64[0], res2.Col("c").F64[0])
	}
}

// TestChaosLazySingleFlight hammers the lazy-build single-flight: many
// concurrent binary-path queries share one cached lazy trie mid-build
// while writers append and compactions swap generations under them
// (epoch snapshots pin what each query reads). Run with -race; the
// final answers must agree bitwise with the WCOJ path.
func TestChaosLazySingleFlight(t *testing.T) {
	eng, fact, dim := hybridEngine(t)
	// Overlapping keys from the start so lazy builds go deep.
	for i := int64(0); i < 64; i++ {
		if err := fact.Append(i+1000, i%16, 1.5); err != nil {
			t.Fatal(err)
		}
	}

	const duration = 300 * time.Millisecond
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		queries atomic.Int64
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fp := costopt.PathBinary
			if r%2 == 1 {
				fp = "" // cost-based: mixes classifier decisions into the pot
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.QueryWithContext(context.Background(), hybridJoin, QueryOptions{ForcePath: fp}); err != nil {
					t.Error(err)
					return
				}
				queries.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := int64(5000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := dim.Append(k, k%16, 0.25); err != nil {
				t.Error(err)
				return
			}
			k++
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed")
	}

	if err := eng.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	rb := queryBinary(t, eng)
	rw, err := eng.QueryWithContext(context.Background(), hybridJoin, QueryOptions{ForcePath: costopt.PathWCOJ})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rb.Col("v").F64[0]) != math.Float64bits(rw.Col("v").F64[0]) ||
		rb.Col("c").F64[0] != rw.Col("c").F64[0] {
		t.Fatalf("post-chaos mismatch: binary %v/%v vs wcoj %v/%v",
			rb.Col("v").F64[0], rb.Col("c").F64[0], rw.Col("v").F64[0], rw.Col("c").F64[0])
	}
}
