// Command lhbench regenerates every table and figure of the paper's
// evaluation (§VI–§VII) and prints them in the paper's format: the best
// engine's absolute time as the "Baseline" column and every engine's
// runtime relative to it.
//
//	lhbench -table 2          # Table II  (TPC-H + LA, all engines)
//	lhbench -table 3          # Table III (optimization ablations)
//	lhbench -table 4          # Table IV  (COO→CSR conversion vs SMV)
//	lhbench -fig 5a           # Figure 5a (set intersection layouts)
//	lhbench -fig 5b           # Figure 5b (SpGEMM attribute orders)
//	lhbench -fig 5c           # Figure 5c (TPC-H Q5 attribute orders)
//	lhbench -fig 6            # Figure 6  (voter classification app)
//	lhbench -all              # everything
//
// Scale knobs (-sf, -la, -dense, -voters) trade fidelity for runtime;
// the defaults fit a laptop in a few minutes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/lagen"
	"repro/internal/obs"
	"repro/internal/pairwise"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/voter"
)

var (
	flagTable  = flag.String("table", "", "paper table to regenerate: 2, 3, 4")
	flagFig    = flag.String("fig", "", "paper figure to regenerate: 5a, 5b, 5c, 6")
	flagAll    = flag.Bool("all", false, "regenerate everything")
	flagSF     = flag.String("sf", "0.01,0.05", "TPC-H scale factors (comma separated)")
	flagLA     = flag.Float64("la", 0.25, "sparse matrix scale (1.0 = generator defaults)")
	flagDense  = flag.String("dense", "128,192,256", "dense matrix orders (stand-ins for 8192/12288/16384)")
	flagVoters = flag.Int("voters", 200000, "voter application rows")
	flagRuns   = flag.Int("runs", 3, "timed runs per measurement (best reported)")
	flagWarmup = flag.Int("warmup", 1, "untimed warmup runs before each measurement")

	flagStats   = flag.Bool("stats", false, "print a per-query observability line (first run of each query) and cumulative engine metrics at exit")
	flagCPUProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
	flagMemProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

// scaleFactors and denseOrders are -sf and -dense, parsed and sorted.
// allEngines tracks every engine built, for the cumulative -stats dump.
var (
	scaleFactors []float64
	denseOrders  []int
	allEngines   []*core.Engine
)

// statsSeen dedups the -stats lines: best() reruns each query, but one
// observability line per distinct query is what's readable.
var statsSeen = map[string]bool{}

func main() {
	flag.Parse()
	var err error
	if scaleFactors, err = parseSF(*flagSF); err != nil {
		log.Fatalf("-sf: %v", err)
	}
	if denseOrders, err = parseDense(*flagDense); err != nil {
		log.Fatalf("-dense: %v", err)
	}
	if *flagCPUProf != "" {
		f, err := os.Create(*flagCPUProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *flagMemProf != "" {
		defer func() {
			f, err := os.Create(*flagMemProf)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}
	if *flagAll {
		*flagTable, *flagFig = "all", "all"
	}
	if *flagTable == "" && *flagFig == "" {
		*flagTable, *flagFig = "all", "all"
	}
	if has(*flagTable, "2") {
		tableII()
	}
	if has(*flagTable, "3") {
		tableIII()
	}
	if has(*flagTable, "4") {
		tableIV()
	}
	if has(*flagFig, "5a") {
		fig5a()
	}
	if has(*flagFig, "5b") {
		fig5b()
	}
	if has(*flagFig, "5c") {
		fig5c()
	}
	if has(*flagFig, "6") {
		fig6()
	}
	if *flagStats {
		printCumulativeMetrics()
	}
}

// printCumulativeMetrics sums the raw counters of every engine the run
// built (latency quantiles are per-collector, not summable, so only
// SnapshotCounters feeds the fleet total).
func printCumulativeMetrics() {
	if len(allEngines) == 0 {
		return
	}
	total := map[string]int64{}
	for _, e := range allEngines {
		for k, v := range e.Metrics().SnapshotCounters() {
			total[k] += v
		}
	}
	keys := make([]string, 0, len(total))
	for k := range total {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("\n=== cumulative engine metrics (%d engines)\n", len(allEngines))
	for _, k := range keys {
		fmt.Printf("%-26s %d\n", k, total[k])
	}
}

func has(sel, key string) bool {
	return sel == "all" || sel == key || strings.Contains(sel, key)
}

// best times f over -runs timed runs (after -warmup untimed runs) and
// reports the minimum.
func best(f func()) time.Duration {
	for i := 0; i < *flagWarmup; i++ {
		f()
	}
	bestD := time.Duration(1<<62 - 1)
	for i := 0; i < *flagRuns; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	return bestD
}

// benchQ times one levelheaded query with best; under -stats the first
// run of each query prints its observability line.
func benchQ(eng *core.Engine, sql string) time.Duration {
	return best(func() { mustQ(eng, sql) })
}

// row prints one paper-style row: baseline absolute, others relative.
func row(query, data string, times map[string]time.Duration, order []string) {
	bestD := time.Duration(1<<62 - 1)
	for _, d := range times {
		if d > 0 && d < bestD {
			bestD = d
		}
	}
	fmt.Printf("%-6s %-10s %10s", query, data, bestD.Round(time.Microsecond))
	for _, name := range order {
		d, ok := times[name]
		switch {
		case !ok:
			fmt.Printf(" %9s", "-")
		case d < 0:
			fmt.Printf(" %9s", "oom/t-o")
		default:
			fmt.Printf(" %8.2fx", float64(d)/float64(bestD))
		}
	}
	fmt.Println()
}

func header(title string, engines []string) {
	fmt.Printf("\n=== %s\n", title)
	fmt.Printf("%-6s %-10s %10s", "query", "data", "baseline")
	for _, e := range engines {
		fmt.Printf(" %9s", e)
	}
	fmt.Println()
}

// parseSF parses a comma-separated list of positive, finite scale
// factors and sorts it. Any malformed entry is an error.
func parseSF(list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad scale factor %q", s)
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out, nil
}

// parseDense parses a comma-separated list of positive matrix orders
// and sorts it. Any malformed entry is an error.
func parseDense(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad matrix order %q", s)
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

// newEngine builds an engine and tracks it for the cumulative -stats
// dump.
func newEngine(opts ...core.Option) *core.Engine {
	e := core.New(opts...)
	allEngines = append(allEngines, e)
	return e
}

// tpchEngine builds a populated, cache-warmed engine.
func tpchEngine(sf float64, opts ...core.Option) *core.Engine {
	eng := newEngine(opts...)
	if _, err := tpch.Populate(eng.Catalog(), sf, 2026); err != nil {
		log.Fatal(err)
	}
	for _, name := range tpch.QueryNames {
		if _, err := eng.Query(tpch.Queries[name]); err != nil {
			log.Fatal(err)
		}
	}
	return eng
}

// ---- Table II ---------------------------------------------------------

func tableII() {
	// "lb-sim" is the LogicBlox stand-in: the same WCOJ engine with the
	// cost-based optimizer disabled (EmptyHeaded-style orders).
	engines := []string{"levlhd", "mkl-sim", "hyper-sim", "monet-sim", "lb-sim"}
	header("Table II — TPC-H (business intelligence)", engines)
	for _, sf := range scaleFactors {
		eng := tpchEngine(sf)
		lb := tpchEngine(sf, core.WithCostOptimizer(false))
		pw := pairwise.New(eng.Catalog())
		cs := colstore.New(eng.Catalog())
		for _, name := range tpch.QueryNames {
			times := map[string]time.Duration{}
			times["levlhd"] = benchQ(eng, tpch.Queries[name])
			times["hyper-sim"] = best(func() { mustRows(pw.RunTPCH(name)) })
			times["monet-sim"] = best(func() { mustRows2(cs.RunTPCH(name)) })
			times["lb-sim"] = best(func() { mustQ(lb, tpch.Queries[name]) })
			row(name, fmt.Sprintf("SF %g", sf), times, engines)
		}
	}

	header("Table II — linear algebra (sparse)", engines)
	for _, prof := range []string{"harbor", "hv15r", "nlp240"} {
		spec, err := lagen.Profile(prof, *flagLA)
		if err != nil {
			log.Fatal(err)
		}
		eng := newEngine()
		if _, err := lagen.LoadSparse(eng.Catalog(), spec, 7); err != nil {
			log.Fatal(err)
		}
		mustQ(eng, lagen.SMVQuery) // warm tries
		m := eng.Catalog().Table("matrix")
		csr := toCSR(m, spec.N)
		x := eng.Catalog().Table("vec").Col("x").Floats
		pw := pairwise.New(eng.Catalog())
		cs := colstore.New(eng.Catalog())

		lb := newEngine(core.WithCostOptimizer(false))
		if _, err := lagen.LoadSparse(lb.Catalog(), spec, 7); err != nil {
			log.Fatal(err)
		}
		mustQ(lb, lagen.SMVQuery)

		times := map[string]time.Duration{}
		times["levlhd"] = benchQ(eng, lagen.SMVQuery)
		y := make([]float64, spec.N)
		times["mkl-sim"] = best(func() { blas.SpMV(csr, x, y) })
		times["hyper-sim"] = best(func() { mustSpMV(pw.SpMV("matrix", "vec")) })
		times["monet-sim"] = best(func() { mustSpMV(cs.SpMV("matrix", "vec")) })
		times["lb-sim"] = best(func() { mustQ(lb, lagen.SMVQuery) })
		row("SMV", prof, times, engines)

		// SMM with an intermediate-pair budget for the RDBMS engines
		// (the paper's oom column).
		budget := 400_000_000
		times = map[string]time.Duration{}
		times["levlhd"] = benchQ(eng, lagen.SMMQuery)
		times["mkl-sim"] = best(func() { blas.SpGEMM(csr, csr) })
		times["hyper-sim"] = timedOrOOM(func() error { _, _, err := pw.SpMM("matrix", "matrix", budget); return err })
		times["monet-sim"] = timedOrOOM(func() error { _, _, err := cs.SpMM("matrix", "matrix", budget); return err })
		row("SMM", prof, times, engines)
	}

	header("Table II — linear algebra (dense)", engines)
	for _, n := range denseOrders {
		eng := newEngine()
		if err := lagen.LoadDense(eng.Catalog(), n, 9); err != nil {
			log.Fatal(err)
		}
		mustQ(eng, lagen.SMVQuery)
		a, x, err := lagen.DenseBuffer(eng.Catalog(), n)
		if err != nil {
			log.Fatal(err)
		}
		pw := pairwise.New(eng.Catalog())

		times := map[string]time.Duration{}
		times["levlhd"] = benchQ(eng, lagen.SMVQuery)
		y := make([]float64, n)
		times["mkl-sim"] = best(func() { blas.Gemv(n, n, a, x, y) })
		times["hyper-sim"] = best(func() { mustSpMV(pw.SpMV("matrix", "vec")) })
		row("DMV", fmt.Sprint(n), times, engines)

		times = map[string]time.Duration{}
		times["levlhd"] = benchQ(eng, lagen.SMMQuery)
		c := make([]float64, n*n)
		times["mkl-sim"] = best(func() {
			for i := range c {
				c[i] = 0
			}
			blas.GemmNT(n, n, n, a, a, c)
		})
		times["hyper-sim"] = timedOrOOM(func() error { _, _, err := pw.SpMM("matrix", "matrix", 200_000_000); return err })
		row("DMM", fmt.Sprint(n), times, engines)
	}
}

// ---- Table III ---------------------------------------------------------

func tableIII() {
	sf := scaleFactors[0]
	fmt.Printf("\n=== Table III — optimization ablations (TPC-H SF %g, LA scale %g)\n", sf, *flagLA)
	fmt.Printf("%-8s %12s %14s %14s\n", "query", "levelheaded", "-attr.elim", "-attr.ord")

	full := tpchEngine(sf)
	noElim := tpchEngine(sf, core.WithAttributeElimination(false))
	for _, name := range tpch.QueryNames {
		res, err := full.Query(tpch.Queries[name])
		if err != nil {
			log.Fatal(err)
		}
		base := best(func() { mustQ(full, tpch.Queries[name]) })
		ne := best(func() { mustQ(noElim, tpch.Queries[name]) })
		var worst time.Duration
		if res.Stats.Dispatch != obs.DispatchScalarScan {
			worst = best(func() {
				if _, err := full.QueryWithContext(context.Background(), tpch.Queries[name], core.QueryOptions{WorstOrder: true}); err != nil {
					log.Fatal(err)
				}
			})
		}
		fmt.Printf("%-8s %12s %13.2fx %14s\n", name,
			base.Round(time.Microsecond), rel(ne, base), ordCell(res.Stats.Dispatch, worst, base))
	}

	// LA rows: DMM with vs without the BLAS dispatch; SMM best vs worst
	// order.
	for _, n := range denseOrders[:1] {
		eng := newEngine()
		if err := lagen.LoadDense(eng.Catalog(), n, 9); err != nil {
			log.Fatal(err)
		}
		mustQ(eng, lagen.SMMQuery)
		noBlas := newEngine(core.WithBLAS(false))
		if err := lagen.LoadDense(noBlas.Catalog(), n, 9); err != nil {
			log.Fatal(err)
		}
		mustQ(noBlas, lagen.SMMQuery)
		base := best(func() { mustQ(eng, lagen.SMMQuery) })
		ne := best(func() { mustQ(noBlas, lagen.SMMQuery) })
		fmt.Printf("%-8s %12s %13.2fx %13s\n", fmt.Sprintf("DMM %d", n),
			base.Round(time.Microsecond), rel(ne, base), "-")
	}
	spec, err := lagen.Profile("harbor", *flagLA)
	if err != nil {
		log.Fatal(err)
	}
	eng := newEngine()
	if _, err := lagen.LoadSparse(eng.Catalog(), spec, 7); err != nil {
		log.Fatal(err)
	}
	mustQ(eng, lagen.SMMQuery)
	base := best(func() { mustQ(eng, lagen.SMMQuery) })
	worst := best(func() {
		if _, err := eng.QueryWithContext(context.Background(), lagen.SMMQuery, core.QueryOptions{WorstOrder: true}); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("%-8s %12s %13s %13.2fx\n", "SMM", base.Round(time.Microsecond), "-", rel(worst, base))
}

// ordCell is Table III's -attr.ord cell: the worst attribute order's
// time relative to the chosen order's, or "-" for a scalar scan, which
// has no attribute order (no GHD) for WorstOrder to change.
func ordCell(dispatch string, worst, base time.Duration) string {
	if dispatch == obs.DispatchScalarScan {
		return "-"
	}
	return fmt.Sprintf("%.2fx", rel(worst, base))
}

// ---- Table IV ------------------------------------------------------------

func tableIV() {
	fmt.Printf("\n=== Table IV — column store → CSR conversion vs LevelHeaded SMV (LA scale %g)\n", *flagLA)
	fmt.Printf("%-8s %12s %12s %8s\n", "dataset", "conversion", "smv", "ratio")
	for _, prof := range []string{"harbor", "hv15r", "nlp240"} {
		spec, err := lagen.Profile(prof, *flagLA)
		if err != nil {
			log.Fatal(err)
		}
		eng := newEngine()
		if _, err := lagen.LoadSparse(eng.Catalog(), spec, 7); err != nil {
			log.Fatal(err)
		}
		mustQ(eng, lagen.SMVQuery)
		cs := colstore.New(eng.Catalog())
		conv := best(func() {
			if _, err := cs.ConvertToCSR("matrix", spec.N, spec.N); err != nil {
				log.Fatal(err)
			}
		})
		smv := best(func() { mustQ(eng, lagen.SMVQuery) })
		fmt.Printf("%-8s %12s %12s %7.2fx\n", prof,
			conv.Round(time.Microsecond), smv.Round(time.Microsecond),
			float64(conv)/float64(smv))
	}
}

// ---- Figure 5a -------------------------------------------------------------

func fig5a() {
	fmt.Println("\n=== Figure 5a — set intersection layouts (time per intersection)")
	fmt.Printf("%-10s %12s %12s %12s\n", "card", "uint∩uint", "bs∩uint", "bs∩bs")
	for _, card := range []int{1_000_000, 10_000_000} {
		span := uint32(card * 4)
		mk := func(offset uint32) []uint32 {
			vals := make([]uint32, 0, card)
			for v := offset; len(vals) < card; v += span / uint32(card) {
				vals = append(vals, v)
			}
			return vals
		}
		a, b := mk(0), mk(1)
		ua, ub := set.FromSortedSparse(a), set.FromSortedSparse(b)
		ba, bb := set.BitsetFromSorted(a), set.BitsetFromSorted(b)
		var buf set.Buffer
		uu := best(func() { set.IntersectInto(&buf, &ua, &ub) })
		bu := best(func() { set.IntersectInto(&buf, &ba, &ub) })
		bsbs := best(func() { set.IntersectInto(&buf, &ba, &bb) })
		fmt.Printf("%-10s %12s %12s %12s   (uint/bs = %.1fx)\n", fmt.Sprintf("1e%d", digits(card)),
			uu.Round(time.Microsecond), bu.Round(time.Microsecond), bsbs.Round(time.Microsecond),
			float64(uu)/float64(bsbs))
	}
}

func digits(n int) int {
	d := 0
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

// ---- Figure 5b ----------------------------------------------------------------

func fig5b() {
	// The cost-50 [i,j,k] order enumerates |i|×|j| pairs — the quadratic
	// blowup that makes the paper's run exhaust 1 TB of RAM. Cap this
	// experiment's scale so the bad order terminates at all.
	scale := *flagLA
	if scale > 0.06 {
		scale = 0.06
	}
	fmt.Printf("\n=== Figure 5b — SpGEMM attribute orders (nlp240-sim, LA scale %g)\n", scale)
	spec, err := lagen.Profile("nlp240", scale)
	if err != nil {
		log.Fatal(err)
	}
	eng := newEngine()
	if _, err := lagen.LoadSparse(eng.Catalog(), spec, 7); err != nil {
		log.Fatal(err)
	}
	mustQ(eng, lagen.SMMQuery)
	p, _, err := eng.Prepare(lagen.SMMQuery, core.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	bag := p.GHD.Root.Bag // [k, i, j] per the planner's vertex naming
	kV, iV, jV := bag[0], bag[1], bag[2]
	ikj := best(func() {
		if _, err := eng.QueryWithContext(context.Background(), lagen.SMMQuery, core.QueryOptions{
			ForcedOrder: []string{iV, kV, jV}, ForcedRelaxed: true,
		}); err != nil {
			log.Fatal(err)
		}
	})
	// One run of the bad order is plenty.
	t0 := time.Now()
	if _, err := eng.QueryWithContext(context.Background(), lagen.SMMQuery, core.QueryOptions{ForcedOrder: []string{iV, jV, kV}}); err != nil {
		log.Fatal(err)
	}
	ijk := time.Since(t0)
	fmt.Printf("order [i,k,j] (cost 10, relaxed union): %v\n", ikj.Round(time.Millisecond))
	fmt.Printf("order [i,j,k] (cost 50):                %v (%.1fx slower)\n",
		ijk.Round(time.Millisecond), float64(ijk)/float64(ikj))
}

// ---- Figure 5c ------------------------------------------------------------------

func fig5c() {
	sf := scaleFactors[len(scaleFactors)-1]
	fmt.Printf("\n=== Figure 5c — TPC-H Q5 attribute orders (SF %g)\n", sf)
	eng := tpchEngine(sf)
	p, _, err := eng.Prepare(tpch.Queries["q5"], core.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	bag := p.GHD.Root.Bag
	label := map[string]string{"orderkey": "o", "custkey": "c", "suppkey": "s", "nationkey": "n"}
	orders := [][]string{
		{"orderkey", "custkey", "nationkey", "suppkey"},
		{"orderkey", "nationkey", "suppkey", "custkey"},
		{"custkey", "orderkey", "nationkey", "suppkey"},
		{"nationkey", "suppkey", "custkey", "orderkey"},
		{"nationkey", "custkey", "orderkey", "suppkey"},
	}
	fmt.Printf("%-12s %6s %8s %12s\n", "order", "cost", "est", "runtime")
	for _, ord := range orders {
		if len(ord) != len(bag) {
			continue
		}
		fp, ch, err := eng.Prepare(tpch.Queries["q5"], core.QueryOptions{ForcedOrder: ord})
		if err != nil {
			log.Fatal(err)
		}
		root := ch.Orders[fp.GHD.Root]
		d := best(func() {
			if _, err := eng.QueryWithContext(context.Background(), tpch.Queries["q5"], core.QueryOptions{ForcedOrder: ord}); err != nil {
				log.Fatal(err)
			}
		})
		short := make([]string, len(ord))
		for i, v := range ord {
			short[i] = label[v]
		}
		fmt.Printf("%-12s %6.0f %8.0f %12s\n", strings.Join(short, ","), root.Cost, root.Est, d.Round(time.Microsecond))
	}
}

// ---- Figure 6 ----------------------------------------------------------------------

func fig6() {
	fmt.Printf("\n=== Figure 6 — voter classification (%d voters)\n", *flagVoters)
	cat := storage.NewCatalog()
	if err := voter.Generate(cat, *flagVoters, 500, 2026); err != nil {
		log.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		log.Fatal(err)
	}
	pipelines := []struct {
		run func(*storage.Catalog, int) (voter.Phases, error)
	}{
		{voter.RunUnified}, {voter.RunMonetSklearn}, {voter.RunPandasSklearn}, {voter.RunSpark},
	}
	fmt.Printf("%-18s %10s %10s %10s %10s\n", "system", "sql", "encode", "train", "total")
	var baseTotal time.Duration
	for i, pl := range pipelines {
		var bestPh voter.Phases
		bestTotal := time.Duration(1<<62 - 1)
		for r := 0; r < *flagRuns; r++ {
			ph, err := pl.run(cat, 0)
			if err != nil {
				log.Fatal(err)
			}
			if ph.Total() < bestTotal {
				bestTotal = ph.Total()
				bestPh = ph
			}
		}
		if i == 0 {
			baseTotal = bestPh.Total()
		}
		fmt.Printf("%-18s %10s %10s %10s %10s (%.1fx)\n", bestPh.System,
			bestPh.SQL.Round(time.Microsecond), bestPh.Encode.Round(time.Microsecond),
			bestPh.Train.Round(time.Microsecond), bestPh.Total().Round(time.Microsecond),
			float64(bestPh.Total())/float64(baseTotal))
	}
}

// ---- helpers --------------------------------------------------------------------------

func rel(d, base time.Duration) float64 { return float64(d) / float64(base) }

func mustQ(eng *core.Engine, sql string) {
	res, err := eng.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	if *flagStats && res.Stats != nil && !statsSeen[sql] {
		statsSeen[sql] = true
		fmt.Printf("  stats: %s\n", res.Stats.Line())
	}
}

func mustRows(r *pairwise.Rows, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustRows2(r *colstore.Rows, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustSpMV(y map[int64]float64, err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// timedOrOOM returns -1 when the engine exceeds its memory budget.
func timedOrOOM(f func() error) time.Duration {
	t0 := time.Now()
	if err := f(); err != nil {
		return -1
	}
	return time.Since(t0)
}

func toCSR(m *storage.Table, n int) *blas.CSR {
	i32 := make([]int32, m.NumRows)
	j32 := make([]int32, m.NumRows)
	for k := 0; k < m.NumRows; k++ {
		i32[k] = int32(m.Col("i").Ints[k])
		j32[k] = int32(m.Col("j").Ints[k])
	}
	coo, err := blas.NewCOO(n, n, i32, j32, m.Col("v").Floats)
	if err != nil {
		log.Fatal(err)
	}
	return blas.CompressCOO(coo)
}
