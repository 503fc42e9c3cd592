// Command lhshell is an interactive SQL shell over the LevelHeaded
// engine. It starts with an empty catalog or a generated dataset:
//
//	lhshell -gen tpch -sf 0.01        # TPC-H tables
//	lhshell -gen matrix -la 0.2       # harbor-sim matrix + vec
//	lhshell -gen voter                # voters + precincts
//
// Meta commands:
//
//	\d               list tables
//	\d <table>       describe one table
//	\explain <sql>   show hypergraph / GHD / attribute order
//	\stats           show cumulative engine metrics
//	\metrics         same as \stats (counters plus latency quantiles)
//	\queries         show in-flight queries and recent trace IDs
//	\statements [by] per-fingerprint statement statistics, sorted by
//	                 time (default), calls, mean, rows, errors, alloc,
//	                 drift or ratio
//	\timing          toggle per-query timing
//	\q               quit
//
// EXPLAIN ANALYZE <sql> executes the query and prints the plan plus
// measured phase timings and per-kernel intersection counts.
// Everything else is parsed as SQL.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	lh "repro"
	"repro/internal/core"
	"repro/internal/lagen"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/voter"
)

const maxPrintRows = 40

const explainAnalyze = "EXPLAIN ANALYZE "

func main() {
	gen := flag.String("gen", "", "dataset to generate: tpch, matrix, voter")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	la := flag.Float64("la", 0.1, "matrix scale")
	flag.Parse()

	eng := core.New()
	switch *gen {
	case "tpch":
		sz, err := tpch.Populate(eng.Catalog(), *sf, 2026)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated TPC-H SF %g (%d lineitems)\n", *sf, sz.Lineitem)
	case "matrix":
		spec, err := lagen.Profile("harbor", *la)
		if err != nil {
			log.Fatal(err)
		}
		nnz, err := lagen.LoadSparse(eng.Catalog(), spec, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated %s-sim matrix: n=%d nnz=%d (tables: matrix, vec)\n", spec.Name, spec.N, nnz)
	case "voter":
		if err := voter.Generate(eng.Catalog(), 100000, 500, 2026); err != nil {
			log.Fatal(err)
		}
		fmt.Println("generated voter dataset (tables: voters, precincts)")
	case "":
	default:
		log.Fatalf("unknown dataset %q", *gen)
	}

	fmt.Println("LevelHeaded shell — \\q to quit, \\d to list tables, \\explain <sql> for plans, \\metrics, \\queries and \\statements for telemetry")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	timing := true
	for {
		fmt.Print("lh> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return
		case line == `\timing`:
			timing = !timing
			fmt.Printf("timing %v\n", timing)
		case line == `\d`:
			for _, name := range eng.Catalog().Tables() {
				t := eng.Catalog().Table(name)
				fmt.Printf("%-12s %8d rows\n", name, t.NumRows)
			}
		case strings.HasPrefix(line, `\d `):
			name := strings.TrimSpace(strings.TrimPrefix(line, `\d `))
			t := eng.Catalog().Table(name)
			if t == nil {
				fmt.Printf("no table %q\n", name)
				continue
			}
			for _, cd := range t.Schema.Cols {
				role := "annotation"
				if cd.Role == storage.Key {
					role = "key(" + cd.DomainName() + ")"
					if cd.PK {
						role += " pk"
					}
				}
				fmt.Printf("  %-20s %-8s %s\n", cd.Name, cd.Kind, role)
			}
		case strings.HasPrefix(line, `\explain `):
			sql := strings.TrimPrefix(line, `\explain `)
			s, err := eng.Explain(sql)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(s)
		case line == `\stats` || line == `\metrics`:
			fmt.Print(eng.Metrics().SnapshotString())
		case line == `\statements` || strings.HasPrefix(line, `\statements `):
			by := strings.TrimSpace(strings.TrimPrefix(line, `\statements`))
			snaps := eng.Statements(by, 0)
			if len(snaps) == 0 {
				fmt.Println("no statements tracked (unknown sort key?)")
				continue
			}
			fmt.Printf("%-16s %6s %4s %10s %10s %10s %6s %5s %6s  %s\n",
				"fingerprint", "calls", "errs", "mean", "p95", "total", "rows", "drift", "ratio", "query")
			for _, s := range snaps {
				fmt.Printf("%-16s %6d %4d %10v %10v %10v %6d %5d %6.2f  %s\n",
					s.FingerprintHex, s.Calls, s.Errors,
					time.Duration(s.MeanNs).Round(time.Microsecond),
					time.Duration(s.P95Ns).Round(time.Microsecond),
					time.Duration(s.TotalNs).Round(time.Microsecond),
					s.Rows, s.PlanChanges, s.CostRatio, s.Text)
			}
		case line == `\queries`:
			reg := eng.Telemetry().Registry
			infos := reg.List()
			if len(infos) == 0 {
				fmt.Println("no queries in flight")
			}
			for _, qi := range infos {
				fmt.Printf("#%-4d %-10v %-10s %s\n", qi.ID, qi.Elapsed.Round(time.Millisecond), qi.Phase, qi.SQL)
			}
			if ids := reg.TraceIDs(); len(ids) > 0 {
				fmt.Printf("retained traces: %v (run EXPLAIN ANALYZE <sql> to see spans)\n", ids)
			}
		case len(line) >= len(explainAnalyze) && strings.EqualFold(line[:len(explainAnalyze)], explainAnalyze):
			sql := strings.TrimSpace(line[len(explainAnalyze):])
			s, err := eng.ExplainAnalyze(sql)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(s)
		default:
			t0 := time.Now()
			res, err := eng.Query(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printResult(res)
			if timing {
				fmt.Printf("(%d rows, %v)\n", res.NumRows, time.Since(t0).Round(time.Microsecond))
				if res.Stats != nil {
					fmt.Println(res.Stats.Line())
				}
			}
		}
	}
}

func printResult(res *lh.Result) {
	for _, c := range res.Cols {
		fmt.Printf("%-16s", c.Name)
	}
	fmt.Println()
	n := res.NumRows
	if n > maxPrintRows {
		n = maxPrintRows
	}
	for r := 0; r < n; r++ {
		for _, c := range res.Cols {
			switch c.Kind {
			case lh.KindInt:
				fmt.Printf("%-16d", c.I64[r])
			case lh.KindString:
				fmt.Printf("%-16s", c.Str[r])
			default:
				fmt.Printf("%-16.6g", c.F64[r])
			}
		}
		fmt.Println()
	}
	if res.NumRows > maxPrintRows {
		fmt.Printf("... (%d more rows)\n", res.NumRows-maxPrintRows)
	}
}
