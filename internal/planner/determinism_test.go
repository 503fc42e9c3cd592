package planner_test

import (
	"fmt"
	"testing"

	"repro/internal/difftest"
)

// TestBuildIsDeterministic builds every corpus text 50 times and
// requires one vertex layout (each relation's vertex list, so the
// "name#2" suffixes too) and one hypergraph per text: the GHD and
// attribute-order memos key on them, and a layout that followed Go's map
// order would split one text between tied root orders.
func TestBuildIsDeterministic(t *testing.T) {
	corpus, err := difftest.PlanCorpus(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, pq := range corpus {
		var layout0, hg0 string
		for run := 0; run < 50; run++ {
			p, err := pq.Build()
			if err != nil {
				t.Fatalf("%s: %v", pq.Name, err)
			}
			var layout string
			for _, r := range p.Rels {
				layout += fmt.Sprintf("%s%q", r.Alias, r.Vertices)
			}
			var hg string
			if p.HG != nil {
				hg = p.HG.String()
			}
			if run == 0 {
				layout0, hg0 = layout, hg
				continue
			}
			if layout != layout0 || hg != hg0 {
				t.Fatalf("%s run %d: layout %s hypergraph %s; run 0 had %s %s\n%s",
					pq.Name, run, layout, hg, layout0, hg0, pq.SQL)
			}
		}
	}
}
