// Command lhexplain prints the compiled plan (hypergraph, GHD,
// attribute orders with §V cost terms) of the paper's TPC-H benchmark
// queries against a small generated database.
//
// Usage: lhexplain [-analyze] [query ...]   (defaults to all seven)
//
// With -analyze the query is also executed and the plan is followed by
// measured phase timings and per-kernel intersection counts (the
// EXPLAIN ANALYZE block).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/tpch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses the command line in args and writes each query's plan to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lhexplain", flag.ContinueOnError)
	analyze := fs.Bool("analyze", false, "execute the query and include measured stats")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = tpch.QueryNames
	}
	for _, q := range names {
		if _, ok := tpch.Queries[q]; !ok {
			return fmt.Errorf("unknown query %q", q)
		}
	}
	eng := core.New()
	if _, err := tpch.Populate(eng.Catalog(), 0.005, 2026); err != nil {
		return err
	}
	for _, q := range names {
		var s string
		var err error
		if *analyze {
			s, err = eng.ExplainAnalyze(tpch.Queries[q])
		} else {
			s, err = eng.Explain(tpch.Queries[q])
		}
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		fmt.Fprint(w, "=== "+q+"\n"+s)
	}
	return nil
}
