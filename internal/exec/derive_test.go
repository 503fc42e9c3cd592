package exec

import (
	"errors"
	"fmt"
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
// nothing; the second builds the base; purging the table drops both the
// base and a pending miss record.
func TestBaseAdmission(t *testing.T) {
	c := NewTrieCache()
	k := baseKey{table: "t", gen: 1, cols: "a"}
	if b, admit := c.base(k); b != nil || admit {
		t.Fatal("first miss admitted a base")
	}
	if b, admit := c.base(k); b != nil || !admit {
		t.Fatal("second miss did not admit a base")
	}
	c.putBase(k, new(trie.Lazy))
	c.base(baseKey{table: "t", gen: 1, cols: "b"})
	if b, _ := c.base(k); b == nil {
		t.Fatal("cached base not returned")
	}
	c.PurgeTable("t", 2)
	if len(c.missed) != 0 || len(c.bases) != 0 || c.Len() != 0 {
		t.Fatalf("purge left %d miss records and %d bases", len(c.missed), len(c.bases))
	}
	for i := 0; i < 2*maxMissed; i++ {
		c.base(baseKey{table: "u", gen: uint64(i)})
	}
	if len(c.missed) > maxMissed {
		t.Fatalf("miss record holds %d keys, bound %d", len(c.missed), maxMissed)
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
			// 1% over the cold charge absorbs the workers' pooled
			// buffers, whose reuse varies the charge from run to run.
			for _, budget := range []int64{cold + cold/100, cold + cold/2, 1 << 40} {
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
