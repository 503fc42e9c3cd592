package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/set"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("SELECT 1")
	root := tr.Root()
	p1 := tr.Begin(root, SpanPhase, "compile")
	tr.End(p1)
	p2 := tr.Begin(root, SpanPhase, "execute")
	n1 := tr.Begin(p2, SpanNode, "node [a b]")
	k1 := tr.Begin(n1, SpanKernel, "spmv-gather")
	tr.End(k1)
	tr.EndWithStats(n1, &set.Stats{BsBs: 7, BytesOut: 64})
	tr.End(p2)
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("spans = %d", len(spans))
	}
	byID := map[SpanID]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	// Every child interval nests inside its parent.
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) not closed: [%d, %d]", s.ID, s.Name, s.Start, s.End)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %s [%d,%d] escapes parent %s [%d,%d]",
				s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if got := byID[n1].Stats.BsBs; got != 7 {
		t.Fatalf("node span stats bs_bs = %d", got)
	}

	tree := tr.TreeString()
	for _, want := range []string{"query", "compile", "execute", "node [a b]", "spmv-gather", "isect=7"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	// Indentation: kernel is two levels below execute.
	if !strings.Contains(tree, "      kernel") {
		t.Fatalf("kernel not nested in tree:\n%s", tree)
	}
}

func TestChromeTraceJSON(t *testing.T) {
	tr := NewTrace("q")
	p := tr.Begin(tr.Root(), SpanPhase, "execute")
	time.Sleep(time.Millisecond)
	tr.EndWithStats(p, &set.Stats{UintUintMerge: 3})
	tr.Finish()

	b, err := tr.ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, b)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("phase = %v", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("ts missing: %v", ev)
		}
	}
	// The execute span carries its counters as args.
	found := false
	for _, ev := range events {
		if ev["name"] == "execute" {
			args, _ := ev["args"].(map[string]interface{})
			if args["uint_uint_merge"] != float64(3) {
				t.Fatalf("args = %v", args)
			}
			if ev["dur"].(float64) < 900 { // ≥ 0.9ms in µs units
				t.Fatalf("dur = %v µs", ev["dur"])
			}
			found = true
		}
	}
	if !found {
		t.Fatal("execute event missing")
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	id := tr.Begin(tr.Root(), SpanPhase, "x")
	tr.End(id)
	tr.EndWithStats(id, &set.Stats{})
	tr.Add(tr.Root(), SpanPhase, "y", time.Now(), time.Now())
	tr.Finish()
	if tr.Spans() != nil || tr.TreeString() != "" || tr.Current() != "" {
		t.Fatal("nil trace leaked state")
	}
	if b, err := tr.ChromeTraceJSON(); err != nil || string(b) != "[]" {
		t.Fatalf("nil chrome json = %s, %v", b, err)
	}
}

func TestTraceOverflowDrops(t *testing.T) {
	tr := NewTrace("q")
	for i := 0; i < maxSpans+50; i++ {
		id := tr.Begin(tr.Root(), SpanNode, "n")
		tr.End(id)
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("spans = %d, want %d", got, maxSpans)
	}
	if tr.Dropped() != 51 { // root took one slot
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

func TestCurrentSpan(t *testing.T) {
	tr := NewTrace("q")
	if cur := tr.Current(); cur != "query" {
		t.Fatalf("current = %q", cur)
	}
	p := tr.Begin(tr.Root(), SpanPhase, "execute")
	if cur := tr.Current(); cur != "execute" {
		t.Fatalf("current = %q", cur)
	}
	tr.End(p)
	if cur := tr.Current(); cur != "query" {
		t.Fatalf("current = %q", cur)
	}
}
