package levelheaded_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	lh "repro"
)

// TestStatementsEndToEnd drives a mixed workload through a real engine
// and checks the per-fingerprint statement store: grouping by shape
// across literal changes, call counts, and the est-vs-actual cost audit
// for the generic WCOJ path.
func TestStatementsEndToEnd(t *testing.T) {
	eng := triangleEngine(t)
	ctx := context.Background()

	// Two runs of the join shape, plus two literal variants of a scan
	// shape (they must collapse into one fingerprint).
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(ctx, triangleSQL); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT count(*) AS c FROM edges WHERE src > 1",
		"SELECT count(*) AS c FROM edges WHERE src > 4",
	} {
		if _, err := eng.Query(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}

	snaps := eng.Statements("", 0)
	if len(snaps) != 2 {
		t.Fatalf("tracked fingerprints = %d, want 2 (join shape + scan shape): %+v", len(snaps), snaps)
	}
	byCalls := map[uint64]lh.StatementSnapshot{}
	for _, s := range snaps {
		byCalls[s.Calls] = s
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(s.FingerprintHex) {
			t.Errorf("fingerprint hex = %q, want 16 hex digits", s.FingerprintHex)
		}
		if s.Calls != 2 || s.Errors != 0 || s.TotalNs <= 0 || s.MeanNs <= 0 {
			t.Errorf("statement %q: calls=%d errors=%d total=%d mean=%d",
				s.Text, s.Calls, s.Errors, s.TotalNs, s.MeanNs)
		}
	}
	var join lh.StatementSnapshot
	found := false
	for _, s := range snaps {
		if strings.Contains(s.Text, "e1, edges") || strings.Contains(s.Text, "edges as e1") {
			join, found = s, true
		}
	}
	if !found {
		t.Fatalf("join shape not tracked: %+v", snaps)
	}
	if len(join.LastOrder) == 0 {
		t.Errorf("join statement has no attribute order: %+v", join)
	}
	if join.EstCost <= 0 || join.ActualCost <= 0 || join.CostRatio <= 0 {
		t.Errorf("join cost audit empty: est=%g actual=%g ratio=%g",
			join.EstCost, join.ActualCost, join.CostRatio)
	}
	if join.Rows != 2 { // one count row per run
		t.Errorf("join rows = %d, want 2", join.Rows)
	}
}

// TestStatementFingerprintOnStats checks the per-query surfaces: the
// fingerprint rides Result.Stats (cold and plan-cache-hit runs agree),
// the WCOJ path records per-node NodeCosts on both estimate scales,
// and EXPLAIN ANALYZE renders them.
func TestStatementFingerprintOnStats(t *testing.T) {
	eng := triangleEngine(t)
	ctx := context.Background()
	res1, err := eng.Query(ctx, triangleSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Fingerprint == 0 || res1.Stats.FingerprintText == "" {
		t.Fatalf("cold run has no fingerprint: %+v", res1.Stats.Fingerprint)
	}
	if len(res1.Stats.NodeCosts) == 0 {
		t.Fatal("generic WCOJ run recorded no NodeCosts")
	}
	for _, nc := range res1.Stats.NodeCosts {
		if len(nc.Order) == 0 || nc.Est <= 0 || nc.Actual <= 0 || nc.EstBindings <= 0 || nc.Bindings == 0 {
			t.Errorf("node cost audit incomplete: %+v", nc)
		}
		if nc.Ratio <= 0 {
			t.Errorf("node ratio = %g, want > 0 with est %g", nc.Ratio, nc.Est)
		}
	}
	res2, err := eng.Query(ctx, triangleSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.PlanCached {
		t.Fatal("second run should hit the plan cache")
	}
	if res2.Stats.Fingerprint != res1.Stats.Fingerprint {
		t.Fatalf("plan-cache hit changed the fingerprint: %x vs %x",
			res2.Stats.Fingerprint, res1.Stats.Fingerprint)
	}

	out, err := eng.ExplainAnalyze(triangleSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fingerprint: ", "cost audit [", "ratio=", "bindings est="} {
		if !strings.Contains(out, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
}

// TestSlowLogCarriesFingerprint checks the slow-log satellite: logged
// queries carry the statement fingerprint; statements that never parsed
// omit the field.
func TestSlowLogCarriesFingerprint(t *testing.T) {
	var buf bytes.Buffer
	eng := lh.New(lh.WithSlowQueryLog(&buf, 0))
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
	ctx := context.Background()
	if _, err := eng.Query(ctx, "SELECT count(*) AS c FROM edges"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(ctx, "SELEC nope"); err == nil {
		t.Fatal("bad SQL did not error")
	}
	type entry struct {
		SQL         string `json:"sql"`
		Fingerprint string `json:"fingerprint"`
		Error       string `json:"error"`
	}
	var entries []entry
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("slow log line not JSON: %v (%s)", err, sc.Text())
		}
		entries = append(entries, e)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(entries[0].Fingerprint) {
		t.Fatalf("good query fingerprint = %q, want 16 hex digits", entries[0].Fingerprint)
	}
	if entries[1].Fingerprint != "" {
		t.Fatalf("unparsed query carries fingerprint %q, want omitted", entries[1].Fingerprint)
	}
	// The statement store counted the good query but skipped the
	// unparseable one (fingerprint 0).
	snaps := eng.Statements("", 0)
	if len(snaps) != 1 || snaps[0].Errors != 0 {
		t.Fatalf("statement store after parse error: %+v", snaps)
	}
	if snaps[0].FingerprintHex != entries[0].Fingerprint {
		t.Fatalf("slow-log fingerprint %q != store fingerprint %q",
			entries[0].Fingerprint, snaps[0].FingerprintHex)
	}
}
