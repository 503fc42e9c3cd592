// Command lhserve runs a LevelHeaded engine behind an HTTP server: a
// SQL-over-HTTP endpoint plus the full telemetry surface (Prometheus
// /metrics, live query registry, trace dumps, pprof). It is the
// "monitoring a running engine" entry point:
//
//	lhserve -gen tpch -sf 0.05                 # serve on 127.0.0.1:8080
//	lhserve -gen matrix -la 0.1 -load 4        # plus 4 query-replay workers
//	lhserve -gen matrix -http 127.0.0.1:0 -smoke
//
//	curl localhost:8080/metrics                # Prometheus text format
//	curl localhost:8080/debug/statements       # per-fingerprint statement stats
//	curl localhost:8080/debug/queries          # in-flight queries (JSON)
//	curl localhost:8080/debug/trace/           # retained trace IDs
//	curl localhost:8080/debug/trace/3          # chrome://tracing JSON
//	curl localhost:8080/debug/trace/3/tree     # indented span tree
//	curl -d 'SELECT count(*) AS c FROM matrix' localhost:8080/query
//	curl -d '{"i": 7, "j": 9, "v": 0.5}' 'localhost:8080/ingest?table=matrix'
//	curl -d '7|9|0.5' 'localhost:8080/ingest?table=matrix&format=delim&delim=|'
//
// Ingested rows are visible to the next query without downtime; the
// engine folds them through delta stores and epoch snapshots, and
// -auto-compact N merges them into base storage in the background once
// a table's backlog reaches N rows. /debug/queries reports per-table
// delta backlog and last-compaction epoch alongside in-flight queries.
//
// -data-dir DIR makes ingestion durable: every acked append is
// write-ahead logged before it commits (fsync cadence set by -sync),
// compactions persist atomic snapshots, and a restarted lhserve
// pointed at the same dir recovers snapshot + WAL tails instead of
// regenerating -gen data. /readyz reports recovery state; an
// X-Batch-Id header on /ingest makes client retries idempotent across
// crashes. SIGTERM drains queries and fsyncs all WALs before exit.
//
// -slowlog FILE (with -slow THRESHOLD) appends one JSON line per query
// slower than the threshold. -smoke runs a self-test: execute queries,
// scrape /metrics through the real listener, and exit nonzero on any
// failure (the CI hook).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lagen"
	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/voter"
	"repro/internal/wal"
)

var (
	flagGen     = flag.String("gen", "matrix", "dataset to generate: tpch, matrix, voter")
	flagSF      = flag.Float64("sf", 0.01, "TPC-H scale factor")
	flagLA      = flag.Float64("la", 0.1, "matrix scale")
	flagHTTP    = flag.String("http", "127.0.0.1:8080", "serve address (port 0 picks a free one)")
	flagSlowLog = flag.String("slowlog", "", "append slow-query JSON lines to this file")
	flagSlow    = flag.Duration("slow", 100*time.Millisecond, "slow-query threshold (0 logs every query)")
	flagLoad    = flag.Int("load", 0, "background query-replay workers (keeps the debug endpoints lively)")
	flagSmoke   = flag.Bool("smoke", false, "self-test: run queries, scrape /metrics, exit")

	flagAutoCompact = flag.Int("auto-compact", 0, "background-compact when a table's delta backlog reaches this many rows (0 = manual)")

	flagDataDir = flag.String("data-dir", "", "durability directory: WAL + snapshots live here and are recovered on startup (empty = in-memory only)")
	flagSync    = flag.String("sync", "group", "WAL sync policy: always, group[:dur], interval[:dur], none (with -data-dir)")

	flagMaxConc   = flag.Int("max-concurrency", 0, "max concurrently executing queries (0 = unlimited)")
	flagQueue     = flag.Int("queue-depth", 0, "admission wait-queue depth (with -max-concurrency)")
	flagMemBudget = flag.Int64("mem-budget", 0, "per-query memory budget in bytes (0 = unlimited)")
	flagMemSoft   = flag.Int64("mem-soft-limit", 0, "engine-wide soft memory limit in bytes (0 = unlimited)")
	flagDrain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
)

func main() {
	flag.Parse()

	var opts []core.Option
	if *flagSlowLog != "" {
		f, err := os.OpenFile(*flagSlowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		opts = append(opts, core.WithSlowQueryLog(f, *flagSlow))
	}
	if *flagMaxConc > 0 {
		opts = append(opts, core.WithMaxConcurrency(*flagMaxConc), core.WithQueueDepth(*flagQueue))
	}
	if *flagMemBudget > 0 {
		opts = append(opts, core.WithMemoryBudget(*flagMemBudget))
	}
	if *flagMemSoft > 0 {
		opts = append(opts, core.WithMemorySoftLimit(*flagMemSoft))
	}
	if *flagAutoCompact > 0 {
		opts = append(opts, core.WithAutoCompact(*flagAutoCompact))
	}
	if *flagDataDir != "" {
		policy, err := wal.ParsePolicy(*flagSync)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, core.WithDurability(*flagDataDir, policy))
	}
	eng := core.New(opts...)
	if err := eng.RecoveryError(); err != nil {
		// Recovery problems degrade, never abort: the engine is up with
		// whatever state survived, and /readyz carries the error.
		log.Printf("lhserve: recovery degraded: %v", err)
	}

	// The listener comes up before populate so /readyz can answer "not
	// yet" (and /metrics is scrapable) during a long generate/recover.
	var ready atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		resp := map[string]interface{}{
			"ready":     ready.Load(),
			"durable":   *flagDataDir != "",
			"recovered": eng.Recovered(),
		}
		if err := eng.RecoveryError(); err != nil {
			resp["recovery_error"] = err.Error()
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.Handle("/", obs.Handler(eng.Telemetry()))
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(eng, w, r)
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		handleIngest(eng, w, r)
	})
	// Override the telemetry handler's /debug/queries so the payload
	// also carries per-table delta/compaction state.
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"queries": eng.Telemetry().Registry.List(),
			"tables":  eng.TablesStatus(),
		})
	})
	ln, err := net.Listen("tcp", *flagHTTP)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	mix := populate(eng)
	if *flagDataDir != "" && !eng.Recovered() {
		// A fresh populate goes through the bulk SetColumnData path,
		// which bypasses the WAL by design; snapshot it now so the
		// generated data survives a crash too.
		if err := eng.Compact(context.Background()); err != nil {
			log.Fatal("initial snapshot: ", err)
		}
		fmt.Printf("lhserve: initial snapshot written to %s\n", *flagDataDir)
	}
	ready.Store(true)
	fmt.Printf("lhserve: engine up — metrics at http://%s/metrics, queries via POST http://%s/query\n", addr, addr)

	if *flagSmoke {
		if err := smoke(eng, addr, mix); err != nil {
			log.Fatal("smoke: ", err)
		}
		fmt.Println("smoke: ok")
		return
	}

	stop := make(chan struct{})
	for w := 0; w < *flagLoad; w++ {
		go replay(eng, mix, w, stop)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)

	// Graceful shutdown: stop admitting (new queries shed with 429),
	// drain in-flight queries up to the deadline, cancel stragglers via
	// the live query registry, then stop the HTTP server.
	fmt.Printf("lhserve: shutting down (drain %v)\n", *flagDrain)
	eng.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), *flagDrain)
	if n := eng.Drain(ctx); n > 0 {
		fmt.Printf("lhserve: force-cancelled %d stragglers\n", n)
	}
	cancel()
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	srv.Shutdown(sctx)
	scancel()
	fmt.Println("lhserve: bye")
}

// populate generates the requested dataset and returns the query mix
// the replay workers cycle through. When startup recovery (-data-dir)
// restored persisted tables, generation is skipped — the recovered
// data IS the dataset — and only the query mix is returned.
func populate(eng *core.Engine) []string {
	if eng.Recovered() {
		fmt.Printf("lhserve: recovered persisted state from %s, skipping -gen %s populate\n", *flagDataDir, *flagGen)
		return queryMix()
	}
	switch *flagGen {
	case "tpch":
		sz, err := tpch.Populate(eng.Catalog(), *flagSF, 2026)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated TPC-H SF %g (%d lineitems)\n", *flagSF, sz.Lineitem)
		return queryMix()
	case "matrix":
		spec, err := lagen.Profile("harbor", *flagLA)
		if err != nil {
			log.Fatal(err)
		}
		nnz, err := lagen.LoadSparse(eng.Catalog(), spec, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated %s-sim matrix: n=%d nnz=%d\n", spec.Name, spec.N, nnz)
		return queryMix()
	case "voter":
		if err := voter.Generate(eng.Catalog(), 100000, 500, 2026); err != nil {
			log.Fatal(err)
		}
		fmt.Println("generated voter dataset (tables: voters, precincts)")
		return queryMix()
	default:
		log.Fatalf("unknown dataset %q", *flagGen)
		return nil
	}
}

// queryMix returns the replay mix for -gen without generating data
// (the recovered-startup path).
func queryMix() []string {
	switch *flagGen {
	case "tpch":
		mix := make([]string, 0, len(tpch.QueryNames))
		for _, name := range tpch.QueryNames {
			mix = append(mix, tpch.Queries[name])
		}
		return mix
	case "matrix":
		return []string{lagen.SMVQuery, lagen.SMMQuery}
	case "voter":
		return []string{`SELECT count(*) AS n FROM voters`}
	default:
		log.Fatalf("unknown dataset %q", *flagGen)
		return nil
	}
}

// replay loops over the query mix until stop closes; worker w starts at
// offset w so concurrent workers exercise different dispatch classes.
func replay(eng *core.Engine, mix []string, w int, stop chan struct{}) {
	for i := w; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if _, err := eng.Query(mix[i%len(mix)]); err != nil {
			// Shed or aborted queries are expected under governance; back
			// off briefly and keep replaying so the load stays realistic.
			var oe *qerr.OverloadedError
			if errors.As(err, &oe) {
				time.Sleep(oe.RetryAfter)
				continue
			}
			log.Printf("replay: %v", err)
			return
		}
	}
}

// queryResponse is the /query JSON payload: columns, row-major values,
// and the headline stats.
type queryResponse struct {
	Columns  []string        `json:"columns"`
	Rows     [][]interface{} `json:"rows"`
	NumRows  int             `json:"num_rows"`
	Dispatch string          `json:"dispatch,omitempty"`
	TotalNs  int64           `json:"total_ns"`
	// Approximate-tier contract (X-Approx-OK requests): Approx marks an
	// estimated answer, ErrorBound/Confidence its accuracy contract,
	// Degraded that the tier was entered because the engine was
	// overloaded (the request would otherwise have been a 429).
	Approx     bool    `json:"approx,omitempty"`
	ErrorBound float64 `json:"error_bound,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
}

// maxHTTPRows bounds the /query payload; the row count still reports
// the full result size.
const maxHTTPRows = 1000

func handleQuery(eng *core.Engine, w http.ResponseWriter, r *http.Request) {
	var sql string
	switch r.Method {
	case http.MethodGet:
		sql = r.URL.Query().Get("sql")
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sql = strings.TrimSpace(string(body))
		// Accept either raw SQL or a {"sql": "..."} JSON object.
		if strings.HasPrefix(sql, "{") {
			var req struct {
				SQL string `json:"sql"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
				return
			}
			sql = req.SQL
		}
	default:
		http.Error(w, "GET ?sql= or POST a query", http.StatusMethodNotAllowed)
		return
	}
	if sql == "" {
		http.Error(w, "empty query", http.StatusBadRequest)
		return
	}
	var qo core.QueryOptions
	// X-Approx-OK opts the request into the approximate tier: eligible
	// aggregates may be answered from sketches/samples with an error
	// bound, and under overload the query degrades to the tier instead
	// of shedding with 429 (exact-only requests keep the 429 contract).
	if v := r.Header.Get("X-Approx-OK"); v != "" && v != "0" && !strings.EqualFold(v, "false") {
		qo.ApproxOK = true
	}
	res, err := eng.QueryWithContext(r.Context(), sql, qo)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	resp := queryResponse{NumRows: res.NumRows}
	if res.Stats != nil {
		resp.Dispatch = res.Stats.Dispatch
		resp.TotalNs = int64(res.Stats.Phases.Total)
		resp.Approx = res.Stats.Approx
		resp.ErrorBound = res.Stats.ErrorBound
		resp.Confidence = res.Stats.Confidence
		resp.Degraded = res.Stats.Degraded
	}
	n := res.NumRows
	if n > maxHTTPRows {
		n = maxHTTPRows
	}
	for _, c := range res.Cols {
		resp.Columns = append(resp.Columns, c.Name)
	}
	resp.Rows = make([][]interface{}, n)
	for i := 0; i < n; i++ {
		row := make([]interface{}, len(res.Cols))
		for j, c := range res.Cols {
			switch {
			case c.I64 != nil:
				row[j] = c.I64[i]
			case c.Str != nil:
				row[j] = c.Str[i]
			default:
				row[j] = c.F64[i]
			}
		}
		resp.Rows[i] = row
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// maxIngestBody bounds one /ingest request body.
const maxIngestBody = 32 << 20

// ingestResponse is the /ingest JSON payload.
type ingestResponse struct {
	Table     string `json:"table"`
	Rows      int    `json:"rows"`
	Duplicate bool   `json:"duplicate,omitempty"`
}

// handleIngest appends rows to a table: POST /ingest?table=T with an
// NDJSON body (default: one JSON object keyed by column name, or one
// JSON array in schema order, per line) or &format=delim&delim=, with
// delimiter-separated text lines. Admission control applies — an
// overloaded engine sheds the batch with 429 + Retry-After. Appended
// rows are visible to the next query; compaction happens in the
// background (see -auto-compact) or via the engine API.
//
// An optional X-Batch-Id header makes the request idempotent: the id
// is logged in the WAL alongside the rows, so a client retrying after
// a 5xx/timeout gets {"duplicate": true} instead of double-ingesting —
// including retries that land after a crash and recovery (-data-dir).
func handleIngest(eng *core.Engine, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	table := r.URL.Query().Get("table")
	if table == "" {
		http.Error(w, "missing ?table=", http.StatusBadRequest)
		return
	}
	batchID := r.Header.Get("X-Batch-Id")
	body := io.LimitReader(r.Body, maxIngestBody)
	var n int
	var dup bool
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "", "ndjson":
		tab := eng.Catalog().Table(table)
		if tab == nil {
			http.Error(w, fmt.Sprintf("unknown table %q", table), http.StatusBadRequest)
			return
		}
		var rows [][]interface{}
		rows, err = decodeNDJSON(&tab.Schema, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, dup, err = eng.IngestBatch(r.Context(), table, batchID, rows)
	case "delim":
		if batchID != "" {
			http.Error(w, "X-Batch-Id requires the ndjson format", http.StatusBadRequest)
			return
		}
		delim := r.URL.Query().Get("delim")
		if delim == "" {
			delim = ","
		}
		if len(delim) != 1 {
			http.Error(w, "delim must be a single byte", http.StatusBadRequest)
			return
		}
		n, err = eng.IngestDelimited(r.Context(), table, body, delim[0])
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want ndjson or delim)", format), http.StatusBadRequest)
		return
	}
	if err != nil {
		writeQueryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ingestResponse{Table: table, Rows: n, Duplicate: dup})
}

// decodeNDJSON converts newline-delimited JSON values into rows for
// IngestRows. Objects are keyed by column name; arrays follow schema
// order. Numbers decode exactly (json.Number), so int64 keys survive
// beyond float53 precision.
func decodeNDJSON(schema *storage.Schema, r io.Reader) ([][]interface{}, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var rows [][]interface{}
	for line := 1; ; line++ {
		var raw interface{}
		if err := dec.Decode(&raw); err == io.EOF {
			return rows, nil
		} else if err != nil {
			return nil, fmt.Errorf("ingest row %d: %w", line, err)
		}
		row := make([]interface{}, len(schema.Cols))
		switch v := raw.(type) {
		case []interface{}:
			if len(v) != len(schema.Cols) {
				return nil, fmt.Errorf("ingest row %d: %d values for %d columns", line, len(v), len(schema.Cols))
			}
			for i := range v {
				cv, err := ingestValue(&schema.Cols[i], v[i])
				if err != nil {
					return nil, fmt.Errorf("ingest row %d: %w", line, err)
				}
				row[i] = cv
			}
		case map[string]interface{}:
			if len(v) != len(schema.Cols) {
				return nil, fmt.Errorf("ingest row %d: %d fields for %d columns", line, len(v), len(schema.Cols))
			}
			for i := range schema.Cols {
				def := &schema.Cols[i]
				fv, ok := v[def.Name]
				if !ok {
					return nil, fmt.Errorf("ingest row %d: missing column %q", line, def.Name)
				}
				cv, err := ingestValue(def, fv)
				if err != nil {
					return nil, fmt.Errorf("ingest row %d: %w", line, err)
				}
				row[i] = cv
			}
		default:
			return nil, fmt.Errorf("ingest row %d: want a JSON object or array, got %T", line, raw)
		}
		rows = append(rows, row)
	}
}

// ingestValue maps one decoded JSON value onto the column's kind.
func ingestValue(def *storage.ColumnDef, v interface{}) (interface{}, error) {
	switch def.Kind {
	case storage.Int64, storage.Date:
		if num, ok := v.(json.Number); ok {
			i, err := strconv.ParseInt(num.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %s: %q is not an integer", def.Name, num)
			}
			return i, nil
		}
		if s, ok := v.(string); ok && def.Kind == storage.Date {
			return s, nil // "YYYY-MM-DD", parsed by storage
		}
		return nil, fmt.Errorf("column %s: want integer, got %T", def.Name, v)
	case storage.Float64:
		if num, ok := v.(json.Number); ok {
			f, err := num.Float64()
			if err != nil {
				return nil, fmt.Errorf("column %s: %v", def.Name, err)
			}
			return f, nil
		}
		return nil, fmt.Errorf("column %s: want number, got %T", def.Name, v)
	case storage.String:
		if s, ok := v.(string); ok {
			return s, nil
		}
		return nil, fmt.Errorf("column %s: want string, got %T", def.Name, v)
	}
	return nil, fmt.Errorf("column %s: unsupported kind", def.Name)
}

// writeQueryError maps typed engine errors onto HTTP status codes:
// shed queries get 429 with a Retry-After backoff hint, resource
// exhaustion 503, contained panics 500, everything else (parse/plan/
// user errors) 400.
func writeQueryError(w http.ResponseWriter, err error) {
	var oe *qerr.OverloadedError
	var re *qerr.ResourceExhaustedError
	var ie *qerr.InternalError
	switch {
	case errors.As(err, &oe):
		secs := int(oe.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.As(err, &re):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.As(err, &ie):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// smoke executes the query mix, then validates the whole telemetry
// surface through the real listener.
func smoke(eng *core.Engine, addr string, mix []string) error {
	var rows atomic.Int64
	for _, sql := range mix {
		res, err := eng.Query(sql)
		if err != nil {
			return fmt.Errorf("query %q: %w", sql, err)
		}
		rows.Add(int64(res.NumRows))
	}
	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}
	readyz, err := get("/readyz")
	if err != nil {
		return err
	}
	if !strings.Contains(readyz, `"ready":true`) {
		return fmt.Errorf("/readyz not ready: %s", readyz)
	}
	metrics, err := get("/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"levelheaded_queries",
		"levelheaded_query_latency_seconds_bucket",
		`le="+Inf"`,
		"levelheaded_delta_rows",
		"levelheaded_compactions_total",
		"# HELP levelheaded_queries",
		"# HELP levelheaded_query_latency_seconds",
		"levelheaded_statement_calls_total{fingerprint=",
		"levelheaded_statements_tracked",
		"levelheaded_approx_queries_total",
		"levelheaded_approx_degraded_total",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}
	stmts, err := get("/debug/statements")
	if err != nil {
		return err
	}
	var snaps []map[string]interface{}
	if err := json.Unmarshal([]byte(stmts), &snaps); err != nil {
		return fmt.Errorf("/debug/statements is not JSON: %w", err)
	}
	if len(snaps) == 0 {
		return fmt.Errorf("/debug/statements empty after %d queries", len(mix))
	}
	for _, k := range []string{"fingerprint", "query", "calls", "total_ns"} {
		if _, ok := snaps[0][k]; !ok {
			return fmt.Errorf("/debug/statements row missing %q: %v", k, snaps[0])
		}
	}
	dbg, err := get("/debug/queries")
	if err != nil {
		return err
	}
	if !strings.Contains(dbg, `"tables"`) {
		return fmt.Errorf("/debug/queries missing per-table status: %s", dbg)
	}
	if err := smokeIngest(eng, addr); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if err := smokeApprox(eng, addr); err != nil {
		return fmt.Errorf("approx: %w", err)
	}
	ids := eng.Telemetry().Registry.TraceIDs()
	if len(ids) == 0 {
		return fmt.Errorf("no retained traces after %d queries", len(mix))
	}
	trace, err := get(fmt.Sprintf("/debug/trace/%d", ids[0]))
	if err != nil {
		return err
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(trace), &events); err != nil {
		return fmt.Errorf("trace %d is not chrome trace JSON: %w", ids[0], err)
	}
	if len(events) == 0 {
		return fmt.Errorf("trace %d has no events", ids[0])
	}
	fmt.Printf("smoke: %d queries, %d result rows, %d metric bytes, trace %d has %d spans\n",
		len(mix), rows.Load(), len(metrics), ids[0], len(events))
	return nil
}

// smokeIngest round-trips live rows through the real listener: count a
// table, POST /ingest in both formats, and check the next query sees
// the new rows without any compaction.
func smokeIngest(eng *core.Engine, addr string) error {
	names := eng.Catalog().Tables()
	if len(names) == 0 {
		return fmt.Errorf("no tables")
	}
	table := names[0]
	tab := eng.Catalog().Table(table)
	count := func() (int64, error) {
		res, err := eng.Query("SELECT count(*) AS n FROM " + table)
		if err != nil {
			return 0, err
		}
		return int64(res.Col("n").F64[0]), nil
	}
	before, err := count()
	if err != nil {
		return err
	}
	mkRow := func(seed int64) []string {
		fields := make([]string, len(tab.Schema.Cols))
		for i, c := range tab.Schema.Cols {
			switch c.Kind {
			case storage.Int64:
				fields[i] = strconv.FormatInt(1_000_000+seed, 10)
			case storage.Float64:
				fields[i] = "1.5"
			case storage.String:
				fields[i] = fmt.Sprintf("smoke-%d", seed)
			case storage.Date:
				fields[i] = "1997-01-01"
			}
		}
		return fields
	}
	post := func(path, body string) error {
		resp, err := http.Post("http://"+addr+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
		}
		return nil
	}
	// One row per format: NDJSON array, then delimited text.
	arr, _ := json.Marshal(toJSONRow(tab.Schema.Cols, mkRow(1)))
	if err := post("/ingest?table="+table, string(arr)+"\n"); err != nil {
		return err
	}
	if err := post("/ingest?table="+table+"&format=delim&delim=|", strings.Join(mkRow(2), "|")+"\n"); err != nil {
		return err
	}
	after, err := count()
	if err != nil {
		return err
	}
	if after != before+2 {
		return fmt.Errorf("count after ingest = %d, want %d", after, before+2)
	}
	if err := eng.Compact(context.Background()); err != nil {
		return err
	}
	final, err := count()
	if err != nil {
		return err
	}
	if final != after {
		return fmt.Errorf("count after compact = %d, want %d", final, after)
	}
	fmt.Printf("smoke: ingested 2 rows into %s (count %d -> %d), compacted clean\n", table, before, final)
	return nil
}

// smokeApprox round-trips a COUNT(DISTINCT) through the real listener
// with the X-Approx-OK opt-in header and checks the response carries
// the approximate-tier contract fields.
func smokeApprox(eng *core.Engine, addr string) error {
	names := eng.Catalog().Tables()
	if len(names) == 0 {
		return fmt.Errorf("no tables")
	}
	table := names[0]
	col := eng.Catalog().Table(table).Schema.Cols[0].Name
	sql := fmt.Sprintf("SELECT count(distinct %s) AS c FROM %s", col, table)
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/query", strings.NewReader(sql))
	if err != nil {
		return err
	}
	req.Header.Set("X-Approx-OK", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /query: status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return fmt.Errorf("/query response is not JSON: %w", err)
	}
	if qr.NumRows != 1 || qr.Dispatch == "" {
		return fmt.Errorf("distinct query response malformed: %s", body)
	}
	if qr.Approx && (qr.ErrorBound <= 0 || qr.Confidence <= 0) {
		return fmt.Errorf("approx answer without accuracy contract: %s", body)
	}
	fmt.Printf("smoke: approx %q dispatch=%s approx=%t bound=%g\n", sql, qr.Dispatch, qr.Approx, qr.ErrorBound)
	return nil
}

// toJSONRow converts delimited text fields into JSON-encodable values
// per the schema (NDJSON array form).
func toJSONRow(cols []storage.ColumnDef, fields []string) []interface{} {
	out := make([]interface{}, len(fields))
	for i, f := range fields {
		switch cols[i].Kind {
		case storage.Int64:
			n, _ := strconv.ParseInt(f, 10, 64)
			out[i] = n
		case storage.Float64:
			x, _ := strconv.ParseFloat(f, 64)
			out[i] = x
		default:
			out[i] = f
		}
	}
	return out
}
