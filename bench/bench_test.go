package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The harness's registry and BENCHMARK.json must not drift apart.
func TestRegistryEqualsBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, registry %d/%d/%d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, registry %s", i, b.Workloads[i], w.name)
		}
	}
	for i, m := range endToEnd {
		if j := b.EndToEnd[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end-to-end %d: %+v, registry %+v", i, j, m)
		}
	}
	for i, m := range perLayer {
		if j := b.PerLayer[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer %d: %+v, registry %+v", i, j, m)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload at toy scale, traced and untraced: the run is correct,
// emits exactly the registered metrics with finite values, and every
// operation's span self times add up to its root span.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(config{workload: w.name, seed: 3, rounds: 3, trace: trace, threads: 2, size: toySizes, tmpRoot: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, rep.Failed, rep.Attempted, rep.errs)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, m.name, got, ok)
				}
				if !metricName.MatchString(m.name) {
					t.Errorf("metric name %q", m.name)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, got.Value)
				}
			}
			if trace {
				checkSpans(t, w.name, rep.spans)
			}
		}
	}
}

func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", workload)
		return
	}
	self := selfTimes(spans)
	root := map[int]int64{}  // op → root span length
	total := map[int]int64{} // op → sum of self times
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %s of op %d ends before it starts", workload, s.Name, s.OpID)
		}
		if self[s.ID] < 0 {
			t.Errorf("%s: children of span %s (op %d) outlast it", workload, s.Name, s.OpID)
		}
		if s.Parent == 0 {
			root[s.OpID] = s.End - s.Start
		}
		total[s.OpID] += self[s.ID]
	}
	for op, r := range root {
		if d := math.Abs(float64(total[op] - r)); d > 0.05*float64(r) {
			t.Errorf("%s: op %d self times sum to %d ns, root span is %d ns", workload, op, total[op], r)
		}
	}
}
