package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/set"
)

// TestQueryStatsStringOptionalSections checks that each optional
// EXPLAIN ANALYZE line appears exactly when its field is populated.
func TestQueryStatsStringOptionalSections(t *testing.T) {
	cases := []struct {
		name string
		set  func(q *QueryStats)
		want string
	}{
		{"node costs", func(q *QueryStats) {
			q.NodeCosts = []NodeCost{{Order: []string{"a", "b"}, Est: 10, Actual: 20, Ratio: 2, Path: "wcoj", LazyLevels: 1}}
		}, "cost audit [a b]: path=wcoj lazy-levels=1 est=10 actual=20 ratio=2.00"},
		{"mem high-water", func(q *QueryStats) { q.MemHighWater = 3 << 20 }, "mem high-water: 3.0 MiB"},
		{"snapshot epoch", func(q *QueryStats) { q.SnapshotEpoch, q.DeltaRowsFolded = 4, 7 }, "snapshot: epoch=4 delta rows folded=7"},
		{"approx exact", func(q *QueryStats) { q.ApproxRoute = "exact" }, "approx: route=exact (exact answer)\n"},
		{"approx no miss bound", func(q *QueryStats) {
			q.Approx, q.ApproxRoute, q.ErrorBound, q.Confidence = true, "sample", 1.5, 0.999
		}, "approx: route=sample error bound=1.5 confidence=0.999\n"},
		{"approx miss bound", func(q *QueryStats) {
			q.Approx, q.ApproxRoute, q.ErrorBound, q.Confidence, q.MissBound = true, "sample", 1.5, 0.999, 12
		}, "approx: route=sample error bound=1.5 confidence=0.999 miss bound=12\n"},
		{"degraded", func(q *QueryStats) {
			q.Approx, q.ApproxRoute, q.Degraded, q.Confidence = true, "sketch", true, 0.999
		}, "approx: route=sketch error bound=0 confidence=0.999 (degraded under overload)\n"},
	}
	optional := []string{"cost audit", "mem high-water", "snapshot:", "approx:", "miss bound", "degraded"}

	base := (&QueryStats{Dispatch: DispatchWCOJ, Threads: 2}).String()
	for _, o := range optional {
		if strings.Contains(base, o) {
			t.Fatalf("empty stats render %q:\n%s", o, base)
		}
	}
	for _, tc := range cases {
		q := &QueryStats{Dispatch: DispatchWCOJ, Threads: 2}
		tc.set(q)
		out := q.String()
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: missing %q in:\n%s", tc.name, tc.want, out)
		}
		// No other optional section leaks in.
		for _, o := range optional {
			if strings.Contains(out, o) && !strings.Contains(tc.want, o) {
				t.Errorf("%s: unexpected %q in:\n%s", tc.name, o, out)
			}
		}
	}
}

func TestQueryStatsLineIsOneLine(t *testing.T) {
	q := &QueryStats{
		Dispatch:    DispatchHybrid,
		PlanCached:  true,
		Phases:      Phases{Compile: time.Millisecond, Execute: 2 * time.Millisecond, Total: 4 * time.Millisecond},
		Intersect:   set.Stats{UintUintMerge: 1, BsBs: 2},
		NodeCosts:   []NodeCost{{Order: []string{"a"}}, {Order: []string{"b"}}},
		ApproxRoute: "exact",
		RowsOut:     5,
	}
	line := q.Line()
	if strings.ContainsAny(line, "\r\n") {
		t.Fatalf("Line spans lines: %q", line)
	}
	for _, want := range []string{"dispatch=hybrid", "plan=true", "isect=3(", "rows=5"} {
		if !strings.Contains(line, want) {
			t.Errorf("Line missing %q: %q", want, line)
		}
	}
}

// TestEngineMetricsRoundTrip records one query whose every counted
// field holds a distinct value and checks each SnapshotCounters key
// reads it back — and that no key goes unchecked.
func TestEngineMetricsRoundTrip(t *testing.T) {
	q := &QueryStats{
		Phases: Phases{Parse: 1, Plan: 2, Freeze: 3, Compile: 4, Execute: 5, Output: 6, Total: 7},
		Intersect: set.Stats{
			UintUintMerge: 8, UintUintGallop: 9, BsUint: 10, BsBs: 11, BytesOut: 12,
		},
		TrieCacheHits: 13, TrieCacheMisses: 14, TriesBuilt: 15, TriesDerived: 16,
		AllocBytes: 17, GCCycles: 18, RowsOut: 19, PlanCached: true,
	}
	var m EngineMetrics
	m.Record(q)
	m.RecordError()
	want := map[string]int64{
		"queries": 1, "errors": 1, "rows_out": 19,
		"parse_ns": 1, "plan_ns": 2, "freeze_ns": 3, "compile_ns": 4,
		"execute_ns": 5, "output_ns": 6, "total_ns": 7,
		"isect_uint_uint_merge": 8, "isect_uint_uint_gallop": 9, "isect_bs_uint": 10,
		"isect_bs_bs": 11, "isect_bytes_materialized": 12,
		"trie_cache_hits": 13, "trie_cache_misses": 14, "tries_built": 15, "tries_derived": 16,
		"alloc_bytes": 17, "gc_cycles": 18, "plan_cache_hits": 1,
	}
	got := m.SnapshotCounters()
	if len(got) != len(want) {
		t.Fatalf("SnapshotCounters has %d keys, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	// Unbound metrics have no collector, so Snapshot adds no quantiles.
	if snap := m.Snapshot(); len(snap) != len(want) {
		t.Fatalf("unbound Snapshot has %d keys, want %d", len(snap), len(want))
	}
}
