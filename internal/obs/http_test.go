package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func testCollector() *Collector {
	c := NewCollector()
	c.AddCounterSource(func() map[string]int64 {
		return map[string]int64{"queries": 3, "rows_out": 12}
	})
	c.ObservePhase("total", 2*time.Millisecond)
	c.ObservePhase("execute", time.Millisecond)
	c.ObserveClass("generic-wcoj", 2*time.Millisecond)
	c.ObserveClass("spmv-gather", 300*time.Microsecond)
	c.Statements.Record(&QueryStats{
		Fingerprint: 0xabc, FingerprintText: "select count(*) as c from t",
		Phases: Phases{Total: 1_000_000}, RowsOut: 1, RootOrder: []string{"a"},
		NodeCosts: []NodeCost{{Est: 4, Actual: 8}},
	}, nil)
	return c
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(testCollector()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"levelheaded_queries 3",
		"levelheaded_rows_out 12",
		"levelheaded_inflight_queries 0",
		`levelheaded_query_latency_seconds_bucket{class="generic-wcoj"`,
		`levelheaded_query_latency_seconds_bucket{class="spmv-gather"`,
		`levelheaded_query_latency_seconds_count{class="generic-wcoj"} 1`,
		`levelheaded_phase_latency_seconds_bucket{phase="execute"`,
		`le="+Inf"`,
		"# HELP levelheaded_queries Queries executed successfully.",
		"# HELP levelheaded_query_latency_seconds ",
		"# HELP levelheaded_statement_calls_total ",
		`levelheaded_statement_calls_total{fingerprint="0000000000000abc"} 1`,
		`levelheaded_statement_cost_ratio{fingerprint="0000000000000abc"} 2`,
		"levelheaded_statements_tracked 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The # HELP satellite: every # TYPE family is preceded by a # HELP
	// for the same metric name.
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Fatalf("# TYPE %s not preceded by its # HELP line (prev: %q)", name, lines[max(0, i-1)])
		}
	}
	checkPrometheusParsable(t, text)
}

func TestStatementsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(testCollector()))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/debug/statements")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var snaps []StatementSnapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if len(snaps) != 1 || snaps[0].FingerprintHex != "0000000000000abc" || snaps[0].Calls != 1 {
		t.Fatalf("snaps = %+v", snaps)
	}
	if code, _ := get("/debug/statements?by=calls&limit=5"); code != 200 {
		t.Fatalf("by=calls status %d", code)
	}
	if code, _ := get("/debug/statements?by=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad sort key status %d, want 400", code)
	}
	if code, _ := get("/debug/statements?limit=-1"); code != http.StatusBadRequest {
		t.Fatalf("bad limit status %d, want 400", code)
	}
	// An empty store serves [] rather than null.
	empty := httptest.NewServer(Handler(NewCollector()))
	defer empty.Close()
	resp, err := http.Get(empty.URL + "/debug/statements")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(b)) != "[]" {
		t.Fatalf("empty store body = %q, want []", b)
	}
}

// checkPrometheusParsable validates the exposition-format invariants a
// scraper relies on: every non-comment line is "name{labels} value",
// and histogram bucket counts are cumulative and end with +Inf == count.
func checkPrometheusParsable(t *testing.T, text string) {
	t.Helper()
	type series struct {
		buckets []float64 // cumulative counts in order
		count   float64
		hasInf  bool
	}
	hists := map[string]*series{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparsable line %q", line)
		}
		name, valStr := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated labels in %q", line)
			}
			base, labels := name[:i], name[i+1:len(name)-1]
			v, _ := strconv.ParseFloat(valStr, 64)
			switch {
			case strings.HasSuffix(base, "_bucket"):
				key := base + "|" + stripLabel(labels, "le")
				h := hists[key]
				if h == nil {
					h = &series{}
					hists[key] = h
				}
				h.buckets = append(h.buckets, v)
				if strings.Contains(labels, `le="+Inf"`) {
					h.hasInf = true
				}
			case strings.HasSuffix(base, "_count"):
				key := strings.TrimSuffix(base, "_count") + "_bucket|" + labels
				h := hists[key]
				if h == nil {
					h = &series{}
					hists[key] = h
				}
				h.count = v
			}
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series found")
	}
	for key, h := range hists {
		if !h.hasInf {
			t.Fatalf("%s: no +Inf bucket", key)
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i] < h.buckets[i-1] {
				t.Fatalf("%s: buckets not cumulative: %v", key, h.buckets)
			}
		}
		if n := len(h.buckets); n > 0 && h.buckets[n-1] != h.count {
			t.Fatalf("%s: +Inf bucket %g != count %g", key, h.buckets[n-1], h.count)
		}
	}
}

// stripLabel removes one label pair so bucket series of the same
// histogram share a map key regardless of their le value.
func stripLabel(labels, name string) string {
	var kept []string
	for _, part := range strings.Split(labels, ",") {
		if !strings.HasPrefix(part, name+"=") {
			kept = append(kept, part)
		}
	}
	return strings.Join(kept, ",")
}

func TestDebugQueriesAndTrace(t *testing.T) {
	c := testCollector()
	tr := NewTrace("SELECT count(*) FROM edges")
	sp := tr.Begin(tr.Root(), SpanPhase, "execute")
	a := c.Registry.Register(tr.SQL(), nil, tr)
	a.SetPhase("execute")

	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var infos []QueryInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Phase != "execute" || infos[0].Span != "execute" {
		t.Fatalf("queries = %+v", infos)
	}

	tr.End(sp)
	tr.Finish()
	c.Registry.Finish(a)

	resp, err = http.Get(fmt.Sprintf("%s/debug/trace/%d", srv.URL, a.ID()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var events []map[string]interface{}
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("trace not chrome JSON: %v\n%s", err, body)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}

	resp, err = http.Get(fmt.Sprintf("%s/debug/trace/%d/tree", srv.URL, a.ID()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "execute") {
		t.Fatalf("tree dump = %s", body)
	}

	resp, err = http.Get(srv.URL + "/debug/trace/99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", resp.StatusCode)
	}
}

func TestCancelEndpoint(t *testing.T) {
	c := NewCollector()
	cancelled := false
	a := c.Registry.Register("q", func() { cancelled = true }, nil)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("%s/debug/queries/cancel?id=%d", srv.URL, a.ID()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET cancel status = %d", resp.StatusCode)
	}
	resp, err = http.Post(fmt.Sprintf("%s/debug/queries/cancel?id=%d", srv.URL, a.ID()), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !cancelled {
		t.Fatalf("cancel: status=%d cancelled=%v", resp.StatusCode, cancelled)
	}
}

func TestServeRandomPort(t *testing.T) {
	s, err := Serve("127.0.0.1:0", testCollector())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
