package main

import (
	"fmt"
	"sort"
)

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// does (its default "exclusive" method), which is how the benchmark's
// acceptance rule measures spread.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// repeatCheck runs SETS sets of RUNS runs of every workload, each run
// with its own seed, and checks every end-to-end metric the way the
// benchmark's acceptance does: the interquartile spread of each set, as
// a share of its median, must stay within the metric's bound (setup_s
// exempt), and a later set's median may not be worse than the first's
// by more than the bound. It returns the process exit code.
func repeatCheck(cfg config, spec string, maxSeconds int) int {
	var sets, runs int
	if n, err := fmt.Sscanf(spec, "%dx%d", &sets, &runs); n != 2 || err != nil || sets < 2 || runs < 2 {
		fmt.Println("bench: -repeat wants SETSxRUNS with both at least 2, e.g. 2x5")
		return 2
	}
	fmt.Printf("repeatability: %d sets of %d runs per workload, %g s timed each, threads=%d\n", sets, runs, cfg.seconds, cfg.threads)
	fmt.Printf("%-13s %-16s %3s %12s %8s %9s %6s  %s\n", "workload", "metric", "set", "median", "iqr/med", "vs set 1", "bound", "")
	fails := 0
	vals := map[string][][]float64{} // workload/metric → set → values
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			for k := 0; k < runs; k++ {
				c := cfg
				c.workload, c.seed = w.name, cfg.seed+int64(s*runs+k)
				rep, err := guardedRun(c, maxSeconds)
				if err == nil && !rep.Correct {
					err = fmt.Errorf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.errs)
				}
				if err != nil {
					fmt.Printf("%-13s seed %d: run failed: %v\n", w.name, c.seed, err)
					return 1
				}
				for _, m := range endToEnd {
					key := w.name + "/" + m.name
					if len(vals[key]) <= s {
						vals[key] = append(vals[key], nil)
					}
					vals[key][s] = append(vals[key][s], rep.Metrics[m.name].Value)
				}
			}
			for _, m := range endToEnd {
				all := vals[w.name+"/"+m.name]
				q := quartiles(all[s])
				spread := ratio(q[2]-q[0], q[1])
				first := quartiles(all[0])[1]
				worse := ratio(q[1]-first, first)
				if m.better == "higher" {
					worse = -worse
				}
				verdict := "PASS"
				if (m.name != "setup_s" && spread > m.bound) || worse > m.bound {
					verdict = "FAIL"
					fails++
				}
				fmt.Printf("%-13s %-16s %3d %12.5g %7.2f%% %+8.2f%% %5.0f%%  %s\n", w.name, m.name, s+1, q[1], 100*spread, 100*worse, 100*m.bound, verdict)
			}
		}
	}
	if fails > 0 {
		fmt.Printf("repeatability: %d FAIL\n", fails)
		return 1
	}
	fmt.Println("repeatability: all PASS")
	return 0
}
