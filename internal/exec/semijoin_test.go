package exec

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/costopt"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// runNoSemijoin runs a query with the semijoin reduction off.
func runNoSemijoin(t *testing.T, cat *storage.Catalog, sql string, opts Options) *Result {
	t.Helper()
	semijoinOff = true
	defer func() { semijoinOff = false }()
	return run(t, cat, sql, opts, costopt.Options{})
}

// redrawTPCH renders a TPC-H join query with its substitution literals
// drawn from r, out of the values the generator populates.
func redrawTPCH(name string, r *rand.Rand) string {
	pick := func(pool ...string) string { return pool[r.Intn(len(pool))] }
	day := func(from string, span int) string {
		d, err := sqlparse.ParseDate(from)
		if err != nil {
			panic(err)
		}
		return sqlparse.DaysToDate(d + int32(r.Intn(span)))
	}
	sql := tpch.Queries[name]
	switch name {
	case "q3":
		return strings.NewReplacer("BUILDING", pick("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"),
			"1995-03-15", day("1995-01-01", 181)).Replace(sql)
	case "q5":
		return strings.NewReplacer("ASIA", pick("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"),
			"1994-01-01", day("1993-01-01", 1461)).Replace(sql)
	case "q8":
		n := r.Intn(4)
		return strings.NewReplacer("BRAZIL", []string{"BRAZIL", "FRANCE", "JAPAN", "KENYA"}[n],
			"AMERICA", []string{"AMERICA", "EUROPE", "ASIA", "AFRICA"}[n],
			"ECONOMY ANODIZED STEEL", pick("ECONOMY", "STANDARD", "PROMO")+" "+pick("ANODIZED", "PLATED")+" "+pick("STEEL", "TIN", "BRASS")).Replace(sql)
	case "q9":
		return strings.ReplaceAll(sql, "green", pick("green", "blue", "ivory", "lace", "red"))
	case "q10":
		return strings.ReplaceAll(sql, "1993-10-01", day("1993-02-01", 700))
	}
	panic("redrawTPCH: unknown query " + name)
}

// TestSemijoinBitIdentical runs the TPC-H join queries with redrawn
// literals at 1, 2 and 7 threads on every access path, each with and
// without the semijoin reduction, over one trie cache (so later runs
// derive from cached bases): every result must be bit-identical, and
// q3's and q10's selections must actually shrink.
func TestSemijoinBitIdentical(t *testing.T) {
	cat := tpchCatalog(t, 0.005)
	rng := rand.New(rand.NewSource(41))
	cache := NewTrieCache()
	reduced := map[string]bool{}
	for _, q := range []string{"q3", "q5", "q8", "q9", "q10"} {
		for draw := 0; draw < 2; draw++ {
			sql := redrawTPCH(q, rng)
			for _, threads := range []int{1, 2, 7} {
				for _, path := range []string{"", costopt.PathBinary, costopt.PathWCOJ} {
					name := fmt.Sprintf("%s draw %d threads=%d path=%q", q, draw, threads, path)
					st := &obs.QueryStats{}
					on := run(t, cat, sql, Options{Threads: threads, ForcePath: path, Cache: cache, Stats: st}, costopt.Options{})
					off := runNoSemijoin(t, cat, sql, Options{Threads: threads, ForcePath: path, Cache: cache})
					assertResultsEqual(t, name, off, on)
					for _, sj := range st.Semijoins {
						reduced[q] = reduced[q] || sj.Reduced < sj.Selected
					}
				}
			}
		}
	}
	for _, q := range []string{"q3", "q10"} {
		if !reduced[q] {
			t.Errorf("%s: no selection was reduced", q)
		}
	}
}

// TestSemijoinConcurrent runs reduced queries from several goroutines at
// once over one shared trie cache: each answer matches the one a lone
// cache-less run gave.
func TestSemijoinConcurrent(t *testing.T) {
	cat := tpchCatalog(t, 0.005)
	rng := rand.New(rand.NewSource(7))
	var sqls []string
	var refs []*Result
	for i := 0; i < 6; i++ {
		sql := redrawTPCH([]string{"q3", "q10", "q5"}[i%3], rng)
		sqls = append(sqls, sql)
		refs = append(refs, run(t, cat, sql, Options{Threads: 2}, costopt.Options{}))
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
						t.Errorf("goroutine %d round %d query %d: %v", g, round, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// semijoinOf returns the reduction record of the named relation.
func semijoinOf(t *testing.T, st *obs.QueryStats, rel string) obs.Semijoin {
	t.Helper()
	for _, sj := range st.Semijoins {
		if sj.Rel == rel {
			return sj
		}
	}
	t.Fatalf("no semijoin record for %s in %+v", rel, st.Semijoins)
	return obs.Semijoin{}
}

// TestSemijoinEdgeCases: an empty reducer empties its partners (and a
// grand aggregate still yields its one zero row); q8's two nation
// aliases are separate vertices and leave each other alone; a numeric
// GROUP BY pseudo-vertex is never a reduction key. Each answer is
// bit-identical to the unreduced one.
func TestSemijoinEdgeCases(t *testing.T) {
	cat := tpchCatalog(t, 0.005)
	q8 := strings.Replace(tpch.Queries["q8"], "GROUP BY", "AND n1.n_name <> 'PERU' AND n2.n_name <> 'FRANCE'\n\t\tGROUP BY", 1)
	pseudo := `SELECT l_quantity, count(*) AS c FROM orders, lineitem
		WHERE l_orderkey = o_orderkey AND o_orderdate < date '1995-03-15'
		AND l_shipdate > date '1995-03-15' GROUP BY l_quantity`
	for _, tc := range []struct {
		name, sql string
		check     func(t *testing.T, st *obs.QueryStats, res *Result)
	}{
		{"empty grand aggregate", `SELECT count(*) AS c, sum(l_extendedprice) AS r FROM orders, lineitem
			WHERE l_orderkey = o_orderkey AND o_orderdate < date '1900-01-01' AND l_shipdate > date '1995-03-15'`,
			func(t *testing.T, st *obs.QueryStats, res *Result) {
				if li := semijoinOf(t, st, "lineitem"); li.Selected == 0 || li.Reduced != 0 {
					t.Fatalf("lineitem %+v: want a non-empty selection reduced to nothing", li)
				}
				if res.NumRows != 1 || res.Col("c").F64[0] != 0 {
					t.Fatalf("grand aggregate over an empty join: %d rows", res.NumRows)
				}
			}},
		{"empty join", strings.ReplaceAll(tpch.Queries["q3"], "o_orderdate < date '1995-03-15'", "o_orderdate < date '1900-01-01'"),
			func(t *testing.T, st *obs.QueryStats, res *Result) {
				if li := semijoinOf(t, st, "lineitem"); li.Reduced != 0 || res.NumRows != 0 {
					t.Fatalf("lineitem %+v, %d rows: want an empty join", li, res.NumRows)
				}
			}},
		{"nation aliases", q8, func(t *testing.T, st *obs.QueryStats, res *Result) {
			// n1 shares regionkey with the filtered region; n2 shares no
			// vertex with a filtered relation (n1's nationkey is another
			// vertex), so nothing reduces it.
			n1, n2 := semijoinOf(t, st, "n1"), semijoinOf(t, st, "n2")
			if n1.Reduced >= n1.Selected || n2.Reduced != n2.Selected {
				t.Fatalf("n1 %+v n2 %+v: want n1 reduced by region and n2 untouched", n1, n2)
			}
		}},
		{"pseudo-vertex", pseudo, func(t *testing.T, st *obs.QueryStats, res *Result) {
			if li := semijoinOf(t, st, "lineitem"); li.Reduced >= li.Selected {
				t.Fatalf("lineitem %+v: want the orderkey reduction", li)
			}
			p, _ := planFor(t, cat, pseudo)
			c := &compiled{p: p, cat: cat}
			seen := 0
			for i := range p.Rels {
				for _, v := range p.Rels[i].PseudoVertices {
					seen++
					if codes, _ := c.joinKeyCodes(&p.Rels[i], v); codes != nil {
						t.Fatalf("pseudo-vertex %s of %s is a reduction key", v, p.Rels[i].Alias)
					}
				}
			}
			if seen == 0 {
				t.Fatal("no pseudo-vertex in the plan")
			}
		}},
	} {
		for _, threads := range []int{1, 2, 7} {
			st := &obs.QueryStats{}
			on := run(t, cat, tc.sql, Options{Threads: threads, Stats: st}, costopt.Options{})
			assertResultsEqual(t, tc.name, runNoSemijoin(t, cat, tc.sql, Options{Threads: threads}), on)
			tc.check(t, st, on)
		}
	}
}

// TestSemijoinTail: after appends past cached bases (Derive's tail
// path), with new key values that extend the orderkey domain, so
// lineitem's and orders' generations hold different dictionaries,
// reduced selections still derive bit-identically to unreduced ones.
func TestSemijoinTail(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	rng := rand.New(rand.NewSource(3))
	cache := NewTrieCache()
	shapes := filteredShapes()
	warmBases(t, cat, cache, shapes)
	appendCopies(t, cat, rng, "orders", 8, true)
	appendCopies(t, cat, rng, "lineitem", 20, true)
	snap := cat.Snapshot()
	for _, name := range []string{"q3", "q10", "q3b"} {
		for _, threads := range []int{1, 2, 7} {
			st := &obs.QueryStats{}
			opts := Options{Threads: threads, Snap: snap, Cache: cache, Stats: st}
			on := run(t, cat, shapes[name], opts, costopt.Options{})
			opts.Stats = nil
			assertResultsEqual(t, name, runNoSemijoin(t, cat, shapes[name], opts), on)
			if li := semijoinOf(t, st, "lineitem"); st.TriesDerived == 0 || li.Reduced >= li.Selected {
				t.Fatalf("%s threads=%d: derived %d, lineitem %+v", name, threads, st.TriesDerived, li)
			}
		}
	}
}

// TestExplainAnalyzeSemijoin: q3's EXPLAIN ANALYZE block reports each
// filtered relation's selected and reduced row counts.
func TestExplainAnalyzeSemijoin(t *testing.T) {
	cat := tpchCatalog(t, 0.005)
	st := &obs.QueryStats{}
	run(t, cat, tpch.Queries["q3"], Options{Stats: st}, costopt.Options{})
	m := regexp.MustCompile(`(?m)^semijoin: lineitem sel=(\d+) reduced=(\d+)$`).FindStringSubmatch(st.String())
	if m == nil {
		t.Fatalf("no lineitem semijoin line in:\n%s", st.String())
	}
	sel, _ := strconv.Atoi(m[1])
	red, _ := strconv.Atoi(m[2])
	if red == 0 || red >= sel {
		t.Fatalf("lineitem sel=%d reduced=%d: want a non-empty strict reduction", sel, red)
	}
}
