package levelheaded_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	lh "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tpch"
)

// TestTraceSpanTree runs TPC-H Q5 — the paper's 2-node GHD plan — and
// checks the recorded span hierarchy: every span nests inside its
// parent, one node span per GHD node, and the node spans' kernel
// counters sum exactly to the query totals.
func TestTraceSpanTree(t *testing.T) {
	eng := core.New()
	if _, err := tpch.Populate(eng.Catalog(), 0.01, 2026); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(tpch.Queries["q5"])
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil || st.Trace == nil {
		t.Fatal("query stats carry no trace")
	}
	spans := st.Trace.Spans()
	if len(spans) < 4 {
		t.Fatalf("expected query+phases+nodes, got %d spans", len(spans))
	}

	byID := map[obs.SpanID]*obs.Span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}

	var root *obs.Span
	nodeSpans := 0
	var nodeTotal, nodeBytes uint64
	for i := range spans {
		sp := &spans[i]
		if sp.End < sp.Start {
			t.Fatalf("span %q still open after the query finished", sp.Name)
		}
		if sp.Parent == 0 {
			if root != nil {
				t.Fatalf("two roots: %q and %q", root.Name, sp.Name)
			}
			root = sp
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %q has unknown parent %d", sp.Name, sp.Parent)
		}
		// Children nest inside their parents on the monotonic clock.
		if sp.Start < parent.Start || sp.End > parent.End {
			t.Fatalf("span %q [%d,%d] escapes parent %q [%d,%d]",
				sp.Name, sp.Start, sp.End, parent.Name, parent.Start, parent.End)
		}
		if sp.Kind == obs.SpanNode {
			nodeSpans++
			nodeTotal += sp.Stats.Total()
			nodeBytes += sp.Stats.BytesOut
		}
	}
	if root == nil || root.Kind != obs.SpanQuery {
		t.Fatalf("no query root span (root=%+v)", root)
	}
	if st.GHDNodes < 2 {
		t.Fatalf("chain query should span multiple GHD nodes, got %d", st.GHDNodes)
	}
	if nodeSpans != st.GHDNodes {
		t.Fatalf("node spans = %d, GHD nodes = %d", nodeSpans, st.GHDNodes)
	}
	// Per-node kernel counters are attributed exactly once: their sum is
	// the query's total.
	if nodeTotal != st.Intersect.Total() || nodeBytes != st.Intersect.BytesOut {
		t.Fatalf("node span counters (isect=%d bytes=%d) != query totals (isect=%d bytes=%d)",
			nodeTotal, nodeBytes, st.Intersect.Total(), st.Intersect.BytesOut)
	}

	tree := st.Trace.TreeString()
	for _, want := range []string{"query", "execute", "node ["} {
		if !strings.Contains(tree, want) {
			t.Fatalf("TreeString missing %q:\n%s", want, tree)
		}
	}

	// The Chrome export is valid trace-event JSON with one event per span.
	data, err := st.Trace.ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(events) != len(spans) {
		t.Fatalf("chrome events = %d, spans = %d", len(events), len(spans))
	}
}

func TestExplainAnalyzeShowsSpans(t *testing.T) {
	eng := triangleEngine(t)
	out, err := eng.ExplainAnalyze(triangleSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spans:", "execute", "node ["} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsQuantilesAndRegistry(t *testing.T) {
	eng := triangleEngine(t)
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(context.Background(), triangleSQL); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Metrics().Snapshot()
	for _, key := range []string{"lat_total_p50_ns", "lat_total_p99_ns", "lat_generic_wcoj_p50_ns"} {
		if snap[key] <= 0 {
			t.Fatalf("snapshot missing latency quantile %s: %v", key, snap)
		}
	}
	// Quantiles are derived gauges: the summable counter form excludes
	// them so fleet aggregation cannot double-count.
	if _, ok := eng.Metrics().SnapshotCounters()["lat_total_p50_ns"]; ok {
		t.Fatal("SnapshotCounters leaked a derived gauge")
	}
	reg := eng.Telemetry().Registry
	if reg.NumActive() != 0 {
		t.Fatalf("queries still registered after completion: %d", reg.NumActive())
	}
	ids := reg.TraceIDs()
	if len(ids) != 3 {
		t.Fatalf("retained traces = %d", len(ids))
	}
	if tr := reg.Trace(ids[0]); tr == nil || tr.SQL() != triangleSQL {
		t.Fatalf("retained trace lookup failed: %v", tr)
	}
}

func TestServeDebugEndToEnd(t *testing.T) {
	eng := triangleEngine(t)
	if _, err := eng.Query(context.Background(), triangleSQL); err != nil {
		t.Fatal(err)
	}
	srv, err := lh.ServeDebug("127.0.0.1:0", eng.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"levelheaded_queries 1",
		`levelheaded_query_latency_seconds_bucket{class="generic-wcoj"`,
		`levelheaded_phase_latency_seconds_bucket{phase="total"`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	eng := lh.New(lh.WithSlowQueryLog(&buf, 0)) // threshold 0: log everything
	tab, err := eng.CreateTable(lh.Schema{Name: "edges", Cols: []lh.ColumnDef{
		{Name: "src", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
		{Name: "dst", Kind: lh.Int64, Role: lh.Key, Domain: "node"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {0, 2}} {
		if err := tab.Append(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Query(context.Background(), triangleSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(context.Background(), "SELEC nope"); err == nil {
		t.Fatal("bad SQL did not error")
	}

	type entry struct {
		TS       string `json:"ts"`
		QueryID  uint64 `json:"query_id"`
		SQL      string `json:"sql"`
		TotalNs  int64  `json:"total_ns"`
		Dispatch string `json:"dispatch"`
		Rows     int    `json:"rows"`
		Error    string `json:"error"`
	}
	var entries []entry
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("slow log line is not JSON: %v (%s)", err, sc.Text())
		}
		entries = append(entries, e)
	}
	if len(entries) != 2 {
		t.Fatalf("slow log entries = %d", len(entries))
	}
	ok := entries[0]
	if ok.SQL != triangleSQL || ok.TotalNs <= 0 || ok.Dispatch != "generic-wcoj" || ok.Rows != 1 || ok.Error != "" {
		t.Fatalf("good-query entry = %+v", ok)
	}
	if _, err := time.Parse(time.RFC3339Nano, ok.TS); err != nil {
		t.Fatalf("timestamp not RFC3339: %q", ok.TS)
	}
	bad := entries[1]
	if bad.Error == "" || bad.SQL != "SELEC nope" {
		t.Fatalf("failed-query entry = %+v", bad)
	}
}
