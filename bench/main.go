// Command bench is the repository's benchmark: four seeded workloads
// (bi_join, bi_scan, la, ingest_mixed) driven through core.Engine from
// one closed-loop client in one foreground process. It prints every
// metric by name and unit, checks results, and ends with one JSON line.
// See README.md in this directory; BENCHMARK.json at the repository root
// names the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: bi_join, bi_scan, la, ingest_mixed")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "length of the timed section")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans as JSON to this file")
	maxSeconds := flag.Int("max-seconds", 150, "watchdog: a run still going after this long dumps goroutines and exits 2")
	repeat := flag.String("repeat", "", "SETSxRUNS (e.g. 2x5): repeatability check over every workload instead of one run")
	flag.Parse()

	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		threads: min(runtime.NumCPU(), 4), size: fullSizes, tmpRoot: ".bench_build",
	}
	if *repeat != "" {
		os.Exit(repeatCheck(cfg, *repeat, *maxSeconds))
	}
	rep, err := guardedRun(cfg, *maxSeconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *traceOut != "" && cfg.trace {
		if err := writeSpans(*traceOut, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printReport(cfg, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// guardedRun is run under a watchdog. The watchdog only fires on a hang;
// the process then dies without unwinding, so it removes the run's
// directories itself.
func guardedRun(cfg config, maxSeconds int) (*report, error) {
	watchdog := time.AfterFunc(time.Duration(maxSeconds)*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: still running after %ds; goroutines:\n", maxSeconds)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		removeTemps()
		os.Exit(2)
	})
	defer watchdog.Stop()
	return run(cfg)
}

// printReport writes the human-readable lines, then the contract's JSON
// object as the last line of standard output.
func printReport(cfg config, rep *report) {
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v threads=%d flush=group:50ms(ingest_mixed)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.threads)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-36s %14.6g ratio (%d failed of %d)\n", "error_rate", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", e)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
