package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Handler builds the debug mux:
//
//	/metrics               Prometheus text exposition (counters + latency histograms)
//	/debug/statements      per-fingerprint statement statistics as JSON,
//	                       sorted by total time (?by=calls|mean|rows|errors|alloc|drift|ratio, ?limit=N)
//	/debug/queries         live query registry as JSON
//	/debug/queries/cancel  POST ?id=N — cancel an in-flight query
//	/debug/trace/          IDs with a retrievable trace, as JSON
//	/debug/trace/<id>      one query's spans as Chrome trace_event JSON
//	/debug/trace/<id>/tree the same trace as an indented text tree
//	/debug/pprof/...       the standard pprof handlers
func Handler(c *Collector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, c)
	})
	mux.HandleFunc("/debug/statements", func(w http.ResponseWriter, r *http.Request) {
		by := r.URL.Query().Get("by")
		if by != "" && !validSortKey(by) {
			http.Error(w, fmt.Sprintf("unknown sort key %q (want one of %s)",
				by, strings.Join(StatementSortKeys, "|")), http.StatusBadRequest)
			return
		}
		limit := 0
		if l := r.URL.Query().Get("limit"); l != "" {
			n, err := strconv.Atoi(l)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		snaps := c.Statements.Snapshots(by, limit)
		if snaps == nil {
			snaps = []StatementSnapshot{}
		}
		writeJSON(w, snaps)
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Registry.List())
	})
	mux.HandleFunc("/debug/queries/cancel", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		id, err := strconv.ParseUint(r.FormValue("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		if !c.Registry.Cancel(id) {
			http.Error(w, "no such in-flight query", http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "cancelled %d\n", id)
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		if rest == "" {
			writeJSON(w, c.Registry.TraceIDs())
			return
		}
		idStr, tree := rest, false
		if s, ok := strings.CutSuffix(rest, "/tree"); ok {
			idStr, tree = s, true
		}
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		tr := c.Registry.Trace(id)
		if tr == nil {
			http.Error(w, "unknown or evicted trace", http.StatusNotFound)
			return
		}
		if tree {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "query %d: %s\n%s", tr.ID(), tr.SQL(), tr.TreeString())
			return
		}
		b, err := tr.ChromeTraceJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// counterHelp documents the well-known counter keys; anything not
// listed gets a generic description (scrapers only need *a* HELP line
// to stop warning, and engines register free-form counter sources).
var counterHelp = map[string]string{
	"queries":          "Queries executed successfully.",
	"errors":           "Queries that returned an error.",
	"rows_out":         "Result rows returned across all queries.",
	"delta_rows":       "Appended rows not yet folded by compaction.",
	"snapshot_epoch":   "Latest published snapshot/compaction epoch.",
	"inflight_queries": "Queries currently executing or queued.",
	"tries_built":      "Query tries built by sorting rows: cold direct builds and the base orders filtered tries derive from.",
	"tries_derived":    "Filtered query tries derived from a cached base order without a sort.",
}

func helpFor(k string) string {
	if h, ok := counterHelp[k]; ok {
		return h
	}
	return "Cumulative engine counter " + k + " (summed across engines on this collector)."
}

// writePrometheus renders counters and latency histograms in the
// Prometheus text exposition format (each family with its # HELP and
// # TYPE header). Engine counters become levelheaded_<key>; histograms
// become levelheaded_query_latency_seconds{class=...} and
// levelheaded_phase_latency_seconds{phase=...} with cumulative buckets;
// the statement store exports per-fingerprint series labeled
// {fingerprint="..."}.
func writePrometheus(w http.ResponseWriter, c *Collector) {
	counters := c.Counters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "levelheaded_" + sanitizeMetricName(k)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, helpFor(k), name, name, counters[k])
	}
	fmt.Fprintf(w, "# HELP levelheaded_inflight_queries %s\n# TYPE levelheaded_inflight_queries gauge\nlevelheaded_inflight_queries %d\n",
		helpFor("inflight_queries"), c.Registry.NumActive())

	classes := c.ClassSnapshots()
	classNames := make([]string, 0, len(classes))
	for k := range classes {
		classNames = append(classNames, k)
	}
	sort.Strings(classNames)
	fmt.Fprintf(w, "# HELP levelheaded_query_latency_seconds Whole-query latency by dispatch class.\n")
	fmt.Fprintf(w, "# TYPE levelheaded_query_latency_seconds histogram\n")
	for _, class := range classNames {
		writePromHistogram(w, "levelheaded_query_latency_seconds",
			fmt.Sprintf("class=%q", class), classes[class])
	}
	fmt.Fprintf(w, "# HELP levelheaded_phase_latency_seconds Per-lifecycle-phase latency.\n")
	fmt.Fprintf(w, "# TYPE levelheaded_phase_latency_seconds histogram\n")
	for _, phase := range PhaseNames {
		s := c.PhaseSnapshot(phase)
		if s == nil || s.Count == 0 {
			continue
		}
		writePromHistogram(w, "levelheaded_phase_latency_seconds",
			fmt.Sprintf("phase=%q", phase), s)
	}
	writePromStatements(w, c.Statements)
}

// writePromStatements emits the per-fingerprint counter series. The
// store is LRU-bounded, so cardinality is capped by construction.
func writePromStatements(w http.ResponseWriter, st *StatementStore) {
	snaps := st.Snapshots("time", 0)
	if len(snaps) == 0 {
		return
	}
	families := []struct {
		name, help string
		val        func(*StatementSnapshot) string
	}{
		{"levelheaded_statement_calls_total", "Executions per statement fingerprint.",
			func(s *StatementSnapshot) string { return strconv.FormatUint(s.Calls, 10) }},
		{"levelheaded_statement_errors_total", "Failed executions per statement fingerprint.",
			func(s *StatementSnapshot) string { return strconv.FormatUint(s.Errors, 10) }},
		{"levelheaded_statement_rows_total", "Result rows per statement fingerprint.",
			func(s *StatementSnapshot) string { return strconv.FormatUint(s.Rows, 10) }},
		{"levelheaded_statement_seconds_total", "Total execution time per statement fingerprint.",
			func(s *StatementSnapshot) string { return strconv.FormatFloat(float64(s.TotalNs)/1e9, 'g', -1, 64) }},
		{"levelheaded_statement_plan_changes_total", "Optimizer attribute-order changes per statement fingerprint (plan drift).",
			func(s *StatementSnapshot) string { return strconv.FormatUint(s.PlanChanges, 10) }},
	}
	for _, f := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", f.name, f.help, f.name)
		for i := range snaps {
			s := &snaps[i]
			fmt.Fprintf(w, "%s{fingerprint=%q} %s\n", f.name, s.FingerprintHex, f.val(s))
		}
	}
	fmt.Fprintf(w, "# HELP levelheaded_statement_cost_ratio Observed/estimated §V cost ratio per statement fingerprint.\n")
	fmt.Fprintf(w, "# TYPE levelheaded_statement_cost_ratio gauge\n")
	for i := range snaps {
		s := &snaps[i]
		if s.EstCost <= 0 {
			continue
		}
		fmt.Fprintf(w, "levelheaded_statement_cost_ratio{fingerprint=%q} %s\n",
			s.FingerprintHex, strconv.FormatFloat(s.CostRatio, 'g', -1, 64))
	}
}

func validSortKey(by string) bool {
	for _, k := range StatementSortKeys {
		if by == k {
			return true
		}
	}
	return false
}

// writePromHistogram emits one labeled histogram series with cumulative
// buckets. Only boundaries of occupied buckets are emitted (plus +Inf),
// which stays a valid cumulative bucket list.
func writePromHistogram(w http.ResponseWriter, name, label string, s *HistSnapshot) {
	var cum uint64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		cum += n
		_, hi := BucketBounds(i)
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, label, float64(hi)/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, label, s.Count)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, label, float64(s.SumNs)/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, s.Count)
}

// Server is a running debug HTTP server.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the debug server on addr (host:port; port 0 picks a free
// one) and serves in a background goroutine until Close.
func Serve(addr string, c *Collector) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(c), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return &Server{srv: srv, ln: ln}, nil
}

// Addr reports the bound address (resolving a requested port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
