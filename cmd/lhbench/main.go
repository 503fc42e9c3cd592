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
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/blas"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lagen"
	"repro/internal/obs"
	"repro/internal/pairwise"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/voter"
	"repro/internal/wal"
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
	flagCount  = flag.Int("count", 0, "timed runs per measurement, benchstat-style (overrides -runs when > 0)")
	flagWarmup = flag.Int("warmup", 1, "untimed warmup runs before each measurement")
	flagSuite  = flag.String("suite", "", "run only a named measurement suite and exit (tpch: levelheaded TPC-H queries, no rival engines — the bench-save/bench-compare baseline; ingest-ab: durability sync-policy A/B on TPC-H lineitem ingest; approx-ab: approximate tier vs exact on count-distinct/filtered-aggregate queries)")
	flagSync   = flag.String("sync", "", "run every engine with durability enabled in a temp dir under this WAL sync policy (always, group[:interval], none; empty = in-memory). Lets bench-compare measure the read-path cost of a durable engine")

	flagStats   = flag.Bool("stats", false, "print a per-query observability line (first run of each query) and cumulative engine metrics at exit")
	flagJSON    = flag.String("json", "", "write per-query levelheaded measurements (name, min/mean ns, rows, dispatch) as JSON to this file")
	flagHTTP    = flag.String("http", "", "serve /metrics and /debug endpoints on this address while the benchmark runs (all engines share one collector)")
	flagCPUProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
	flagMemProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

// sharedTel, when -http is set, is the collector every engine reports
// into so the debug server sees the whole benchmark fleet. allEngines
// tracks every engine built, for the cumulative -stats dump.
var (
	sharedTel  *obs.Collector
	allEngines []*core.Engine
)

// benchRec is one -json output row: the levelheaded measurement of one
// (query, dataset) cell.
type benchRec struct {
	Name     string `json:"name"`
	Runs     int    `json:"runs"`
	MinNs    int64  `json:"min_ns"`
	MeanNs   int64  `json:"mean_ns"`
	Rows     int    `json:"rows"`
	Dispatch string `json:"dispatch"`
	// Paths is the hybrid executor's chosen access path per GHD node
	// (pre-order) — the per-node refinement of the Dispatch class.
	Paths []string `json:"paths,omitempty"`
	// AllocPerOp is the mean heap bytes allocated per run (the
	// QueryStats runtime/metrics delta).
	AllocPerOp int64 `json:"alloc_bytes_per_op"`
	// Note carries freeform context for pseudo-records (names starting
	// with "_", e.g. the ingest-ab sync-policy measurements) that
	// benchdiff excludes from the regression gate.
	Note string `json:"note,omitempty"`
}

var benchRecs []benchRec

// statsSeen dedups the -stats lines: best() reruns each query, but one
// observability line per distinct query is what's readable.
var statsSeen = map[string]bool{}

func main() {
	flag.Parse()
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
	if *flagHTTP != "" {
		sharedTel = obs.NewCollector()
		srv, err := obs.Serve(*flagHTTP, sharedTel)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", srv.Addr())
	}
	defer cleanupTempDirs()
	switch *flagSuite {
	case "tpch":
		suiteTPCH()
		finishSuite()
		return
	case "ingest-ab":
		suiteIngestAB()
		finishSuite()
		return
	case "approx-ab":
		suiteApproxAB()
		finishSuite()
		return
	case "":
	default:
		log.Fatalf("unknown -suite %q (have: tpch, ingest-ab, approx-ab)", *flagSuite)
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
	if *flagJSON != "" {
		writeJSON(*flagJSON)
	}
	if *flagStats {
		printCumulativeMetrics()
	}
}

// writeJSON dumps the levelheaded measurements collected by benchQ.
func writeJSON(path string) {
	data, err := json.MarshalIndent(benchRecs, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d measurements to %s\n", len(benchRecs), path)
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

// timedRuns resolves the timed-run count: -count (benchstat-style)
// wins over the legacy -runs.
func timedRuns() int {
	if *flagCount > 0 {
		return *flagCount
	}
	return *flagRuns
}

// best times f over the timed runs (after -warmup untimed runs) and
// reports the minimum.
func best(f func()) time.Duration {
	for i := 0; i < *flagWarmup; i++ {
		f()
	}
	bestD := time.Duration(1<<62 - 1)
	for i := 0; i < timedRuns(); i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	return bestD
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

func sfList() []float64 {
	var out []float64
	for _, s := range strings.Split(*flagSF, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err == nil {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

func denseList() []int {
	var out []int
	for _, s := range strings.Split(*flagDense, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err == nil {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// finishSuite is the shared tail of every -suite run: JSON dump and
// the cumulative -stats metrics.
func finishSuite() {
	if *flagJSON != "" {
		writeJSON(*flagJSON)
	}
	if *flagStats {
		printCumulativeMetrics()
	}
}

// tempDirs tracks the durability scratch directories created for
// -sync and the ingest-ab suite; cleanupTempDirs removes them on a
// normal exit (log.Fatal leaks them — they live under os.TempDir).
var tempDirs []string

func durTempDir(pattern string) string {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		log.Fatal(err)
	}
	tempDirs = append(tempDirs, dir)
	return dir
}

func cleanupTempDirs() {
	for _, d := range tempDirs {
		if err := os.RemoveAll(d); err != nil {
			fmt.Fprintf(os.Stderr, "cleanup %s: %v\n", d, err)
		}
	}
}

// newEngine builds an engine wired into the shared telemetry collector
// (when -http is on) and tracks it for the cumulative -stats dump.
// With -sync set, every engine is durable in its own temp dir, so the
// suites measure read paths with the WAL machinery live.
func newEngine(opts ...core.Option) *core.Engine {
	if sharedTel != nil {
		opts = append(opts, core.WithTelemetry(sharedTel))
	}
	if *flagSync != "" {
		pol, err := wal.ParsePolicy(*flagSync)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, core.WithDurability(durTempDir("lhbench-dur-*"), pol))
	}
	e := core.New(opts...)
	allEngines = append(allEngines, e)
	return e
}

// benchQ times one levelheaded query over the timed runs (after
// -warmup untimed runs), recording min/mean latency, mean heap bytes
// allocated per run, row count and dispatch class for -json, and
// returns the minimum (the number every table reports).
func benchQ(eng *core.Engine, name, sql string) time.Duration {
	for i := 0; i < *flagWarmup; i++ {
		if _, err := eng.Query(sql); err != nil {
			log.Fatal(err)
		}
	}
	n := timedRuns()
	rec := benchRec{Name: name, Runs: n}
	minD := time.Duration(1<<62 - 1)
	var sum time.Duration
	var allocSum uint64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res, err := eng.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(t0)
		sum += d
		if d < minD {
			minD = d
		}
		rec.Rows = res.NumRows
		if res.Stats != nil {
			rec.Dispatch = res.Stats.Dispatch
			rec.Paths = res.Stats.AccessPaths
			allocSum += res.Stats.AllocBytes
		}
		if *flagStats && res.Stats != nil && !statsSeen[sql] {
			statsSeen[sql] = true
			fmt.Printf("  stats: %s\n", res.Stats.Line())
		}
	}
	rec.MinNs = int64(minD)
	rec.MeanNs = int64(sum) / int64(n)
	rec.AllocPerOp = int64(allocSum) / int64(n)
	benchRecs = append(benchRecs, rec)
	return minD
}

// suiteTPCH runs only the levelheaded TPC-H measurements — the stable,
// rival-free suite that bench-save snapshots and bench-compare diffs.
func suiteTPCH() {
	for _, sf := range sfList() {
		eng := tpchEngine(sf)
		fmt.Printf("\n=== TPC-H suite (SF %g, %d runs after %d warmup)\n", sf, timedRuns(), *flagWarmup)
		for _, name := range tpch.QueryNames {
			d := benchQ(eng, fmt.Sprintf("%s/sf%g", name, sf), tpch.Queries[name])
			r := benchRecs[len(benchRecs)-1]
			fmt.Printf("%-8s %12s  %10s/op\n", name, d.Round(time.Microsecond), fmtAlloc(r.AllocPerOp))
		}
	}
}

func fmtAlloc(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// ---- ingest-ab suite --------------------------------------------------

// suiteIngestAB A/Bs the WAL sync policies on TPC-H ingest: the same
// stream of generated lineitem rows is appended batch-by-batch into a
// fresh engine per policy — in-memory (no durability), WAL without
// fsync, group commit (the lhserve default), and fsync-per-batch. Each
// policy's runs land in the -json output as a "_ingest/<policy>"
// pseudo-record (benchdiff skips "_" names, so these annotate
// BENCH_tpch.json without entering the regression gate).
func suiteIngestAB() {
	const totalRows, batch = 20000, 250
	rows := genLineitemRows(totalRows)
	policies := []struct {
		name string
		desc string
		opts []core.Option
	}{
		{"mem", "no durability (baseline)", nil},
		{"none", "WAL write per batch, no fsync", durOpts(wal.NoSync())},
		{"group", "WAL write per batch, fsync on the group-commit interval", durOpts(wal.GroupCommit(wal.DefaultInterval))},
		{"always", "WAL write + fsync per batch", durOpts(wal.SyncEvery())},
	}
	fmt.Printf("\n=== ingest A/B — sync policies (%d lineitem rows per run, batches of %d, %d runs after %d warmup)\n",
		totalRows, batch, timedRuns(), *flagWarmup)
	fmt.Printf("%-8s %12s %12s %10s\n", "policy", "min", "mean", "rows/s")
	var memMin time.Duration
	ctx := context.Background()
	for _, pol := range policies {
		eng := core.New(pol.opts...)
		allEngines = append(allEngines, eng)
		if _, err := eng.CreateTable(lineitemSchema()); err != nil {
			log.Fatal(err)
		}
		ingestAll := func() {
			for lo := 0; lo < len(rows); lo += batch {
				hi := lo + batch
				if hi > len(rows) {
					hi = len(rows)
				}
				if _, err := eng.IngestRows(ctx, "lineitem", rows[lo:hi]); err != nil {
					log.Fatal(err)
				}
			}
		}
		for i := 0; i < *flagWarmup; i++ {
			ingestAll()
		}
		n := timedRuns()
		minD := time.Duration(1<<62 - 1)
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			ingestAll()
			d := time.Since(t0)
			sum += d
			if d < minD {
				minD = d
			}
		}
		eng.BeginShutdown()
		eng.Drain(ctx)
		if pol.name == "mem" {
			memMin = minD
		}
		ratio := ""
		if memMin > 0 && pol.name != "mem" {
			ratio = fmt.Sprintf("  (%.2fx vs mem)", float64(minD)/float64(memMin))
		}
		rate := float64(totalRows) / minD.Seconds()
		fmt.Printf("%-8s %12s %12s %10.0f%s\n", pol.name,
			minD.Round(time.Microsecond), (sum / time.Duration(n)).Round(time.Microsecond), rate, ratio)
		benchRecs = append(benchRecs, benchRec{
			Name:   "_ingest/" + pol.name,
			Runs:   n,
			MinNs:  int64(minD),
			MeanNs: int64(sum) / int64(n),
			Rows:   totalRows,
			Note:   fmt.Sprintf("sync A/B: %d lineitem rows per run in batches of %d; %s", totalRows, batch, pol.desc),
		})
	}
}

// ---- approx-ab suite --------------------------------------------------

// suiteApproxAB A/Bs the approximate query tier against exact execution
// on TPC-H-style count-distinct and filtered-aggregate queries over
// lineitem: the same engine answers each query twice — a
// plain exact run, then an ApproxOK run that the cost model routes onto
// a sketch or sample — reporting the speedup, the chosen route, and the
// observed error against the advertised bound. Each query lands in the
// -json output as an "_approx/<name>" pseudo-record (benchdiff skips
// "_" names, so these annotate BENCH_tpch.json without entering the
// regression gate).
func suiteApproxAB() {
	sf := sfList()[0]
	eng := newEngine()
	if _, err := tpch.Populate(eng.Catalog(), sf, 2026); err != nil {
		log.Fatal(err)
	}
	queries := []struct{ name, sql string }{
		{"distinct_part", "SELECT count(distinct l_partkey) FROM lineitem"},
		{"distinct_supp", "SELECT count(distinct l_suppkey) FROM lineitem"},
		{"filter_price", "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity < 25"},
	}
	fmt.Printf("\n=== approx A/B — exact vs approximate tier (TPC-H SF %g, %d runs after %d warmup)\n",
		sf, timedRuns(), *flagWarmup)
	fmt.Printf("%-14s %12s %12s %9s  %-13s %12s %12s\n",
		"query", "exact", "approx", "speedup", "route", "max err", "bound")
	for _, q := range queries {
		exactMin, _, exactRes := bestQueryWith(eng, q.sql, core.QueryOptions{})
		approxMin, approxMean, approxRes := bestQueryWith(eng, q.sql, core.QueryOptions{ApproxOK: true})
		route, bound := "exact", 0.0
		if st := approxRes.Stats; st != nil {
			route = st.Dispatch
			bound = st.ErrorBound
		}
		obsErr := maxAbsError(exactRes, approxRes)
		speedup := float64(exactMin) / float64(approxMin)
		fmt.Printf("%-14s %12s %12s %8.2fx  %-13s %12.4g %12.4g\n",
			q.name, exactMin.Round(time.Microsecond), approxMin.Round(time.Microsecond),
			speedup, route, obsErr, bound)
		if obsErr > bound && bound > 0 {
			log.Fatalf("approx-ab %s: observed error %g exceeds advertised bound %g", q.name, obsErr, bound)
		}
		benchRecs = append(benchRecs, benchRec{
			Name:     "_approx/" + q.name,
			Runs:     timedRuns(),
			MinNs:    int64(approxMin),
			MeanNs:   int64(approxMean),
			Rows:     approxRes.NumRows,
			Dispatch: route,
			Note: fmt.Sprintf("approx A/B vs exact: exact min %s, speedup %.2fx, observed error %.4g within advertised bound %.4g",
				exactMin.Round(time.Microsecond), speedup, obsErr, bound),
		})
	}
}

// bestQueryWith times one query under explicit options over the timed
// runs (after -warmup untimed runs, which also absorb the first-use
// summary build on the ApproxOK side).
func bestQueryWith(eng *core.Engine, sql string, qo core.QueryOptions) (time.Duration, time.Duration, *exec.Result) {
	var res *exec.Result
	var err error
	for i := 0; i < *flagWarmup; i++ {
		if res, err = eng.QueryWithContext(context.Background(), sql, qo); err != nil {
			log.Fatal(err)
		}
	}
	n := timedRuns()
	minD := time.Duration(1<<62 - 1)
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if res, err = eng.QueryWithContext(context.Background(), sql, qo); err != nil {
			log.Fatal(err)
		}
		d := time.Since(t0)
		sum += d
		if d < minD {
			minD = d
		}
	}
	return minD, sum / time.Duration(n), res
}

// maxAbsError reports the largest absolute aggregate-cell difference
// between an exact and an approximate result: rows align by the string
// group column when present (groups absent from the approximate answer
// are covered by MissBound, not this number), scalars align row 0.
func maxAbsError(exact, approx *exec.Result) float64 {
	if len(exact.Cols) == 0 || len(approx.Cols) == 0 || exact.NumRows == 0 || approx.NumRows == 0 {
		return 0
	}
	worst := 0.0
	if exact.Cols[0].Kind == exec.KindString {
		byKey := map[string][]float64{}
		for r := 0; r < exact.NumRows; r++ {
			vals := make([]float64, 0, len(exact.Cols)-1)
			for _, c := range exact.Cols[1:] {
				vals = append(vals, aggCell(c, r))
			}
			byKey[exact.Cols[0].Str[r]] = vals
		}
		for r := 0; r < approx.NumRows; r++ {
			vals := byKey[approx.Cols[0].Str[r]]
			for ci, c := range approx.Cols[1:] {
				if ci < len(vals) {
					if d := mathAbs(aggCell(c, r) - vals[ci]); d > worst {
						worst = d
					}
				}
			}
		}
		return worst
	}
	for ci := range exact.Cols {
		if d := mathAbs(aggCell(approx.Cols[ci], 0) - aggCell(exact.Cols[ci], 0)); d > worst {
			worst = d
		}
	}
	return worst
}

func aggCell(c *exec.Column, r int) float64 {
	if c.Kind == exec.KindFloat {
		return c.F64[r]
	}
	return float64(c.I64[r])
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// durOpts wires a durability option with a scratch directory for one
// ingest-ab engine.
func durOpts(pol wal.Policy) []core.Option {
	return []core.Option{core.WithDurability(durTempDir("lhbench-ingest-*"), pol)}
}

// lineitemSchema pulls the TPC-H lineitem schema out of the shared
// schema list, so the ingest A/B exercises the real 14-column table
// (three dictionary-encoded key domains, dates, strings).
func lineitemSchema() storage.Schema {
	for _, s := range tpch.Schemas() {
		if s.Name == "lineitem" {
			return s
		}
	}
	log.Fatal("tpch schemas: no lineitem")
	return storage.Schema{}
}

// genLineitemRows synthesizes n lineitem rows with TPC-H-shaped value
// distributions (a small deterministic LCG keeps runs comparable).
func genLineitemRows(n int) [][]interface{} {
	flags := []string{"A", "N", "R"}
	status := []string{"O", "F"}
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "FOB", "REG AIR"}
	rows := make([][]interface{}, n)
	seed := uint64(2026)
	next := func(mod int) int64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int64((seed >> 33) % uint64(mod))
	}
	for i := range rows {
		qty := float64(next(50) + 1)
		price := float64(next(90000)+1000) / 100 * qty
		ship := int64(9100 + next(2500))
		rows[i] = []interface{}{
			int64(i/4 + 1),          // l_orderkey: ~4 lines per order
			next(20000) + 1,         // l_partkey
			next(1000) + 1,          // l_suppkey
			int64(i%4 + 1),          // l_linenumber
			qty,                     // l_quantity
			price,                   // l_extendedprice
			float64(next(11)) / 100, // l_discount
			float64(next(9)) / 100,  // l_tax
			flags[next(3)],          // l_returnflag
			status[next(2)],         // l_linestatus
			ship,                    // l_shipdate (days)
			ship + next(30),         // l_commitdate
			ship + next(30),         // l_receiptdate
			modes[next(7)],          // l_shipmode
		}
	}
	return rows
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
	for _, sf := range sfList() {
		eng := tpchEngine(sf)
		lb := tpchEngine(sf, core.WithCostOptimizer(false))
		pw := pairwise.New(eng.Catalog())
		cs := colstore.New(eng.Catalog())
		for _, name := range tpch.QueryNames {
			times := map[string]time.Duration{}
			times["levlhd"] = benchQ(eng, fmt.Sprintf("%s/sf%g", name, sf), tpch.Queries[name])
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
		times["levlhd"] = benchQ(eng, "SMV/"+prof, lagen.SMVQuery)
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
		times["levlhd"] = benchQ(eng, "SMM/"+prof, lagen.SMMQuery)
		times["mkl-sim"] = best(func() { blas.SpGEMM(csr, csr) })
		times["hyper-sim"] = timedOrOOM(func() error { _, _, err := pw.SpMM("matrix", "matrix", budget); return err })
		times["monet-sim"] = timedOrOOM(func() error { _, _, err := cs.SpMM("matrix", "matrix", budget); return err })
		row("SMM", prof, times, engines)
	}

	header("Table II — linear algebra (dense)", engines)
	for _, n := range denseList() {
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
		times["levlhd"] = benchQ(eng, fmt.Sprintf("DMV/%d", n), lagen.SMVQuery)
		y := make([]float64, n)
		times["mkl-sim"] = best(func() { blas.Gemv(n, n, a, x, y) })
		times["hyper-sim"] = best(func() { mustSpMV(pw.SpMV("matrix", "vec")) })
		row("DMV", fmt.Sprint(n), times, engines)

		times = map[string]time.Duration{}
		times["levlhd"] = benchQ(eng, fmt.Sprintf("DMM/%d", n), lagen.SMMQuery)
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
	sf := sfList()[0]
	fmt.Printf("\n=== Table III — optimization ablations (TPC-H SF %g, LA scale %g)\n", sf, *flagLA)
	fmt.Printf("%-8s %12s %14s %14s\n", "query", "levelheaded", "-attr.elim", "-attr.ord")

	full := tpchEngine(sf)
	noElim := tpchEngine(sf, core.WithAttributeElimination(false))
	for _, name := range tpch.QueryNames {
		base := best(func() { mustQ(full, tpch.Queries[name]) })
		ne := best(func() { mustQ(noElim, tpch.Queries[name]) })
		worst := best(func() {
			if _, err := full.QueryWithContext(context.Background(), tpch.Queries[name], core.QueryOptions{WorstOrder: true}); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-8s %12s %13.2fx %13.2fx\n", name,
			base.Round(time.Microsecond), rel(ne, base), rel(worst, base))
	}

	// LA rows: DMM with vs without the BLAS dispatch; SMM best vs worst
	// order.
	for _, n := range denseList()[:1] {
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
	sf := sfList()[len(sfList())-1]
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
		for r := 0; r < timedRuns(); r++ {
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
