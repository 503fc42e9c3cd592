package ghd_test

import (
	"testing"

	"repro/internal/difftest"
	"repro/internal/ghd"
)

// TestSearchIsDeterministic plans every corpus text 50 times from
// scratch and requires the uncached search over each fresh hypergraph to
// give one decomposition per text — the one the memo serves.
func TestSearchIsDeterministic(t *testing.T) {
	corpus, err := difftest.PlanCorpus(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, pq := range corpus {
		var want string
		for run := 0; run < 50; run++ {
			p, err := pq.Build()
			if err != nil {
				t.Fatalf("%s: %v", pq.Name, err)
			}
			if p.GHD == nil {
				break // a single-relation scan has no decomposition
			}
			// The planner's own arguments: HashEmit plans dropped their
			// output vertices after a search that did not require them.
			var sel []int
			for i := range p.Rels {
				if p.Rels[i].HasEqualitySelection {
					sel = append(sel, i)
				}
			}
			g, err := ghd.SearchUncached(p.HG, ghd.Options{RootMustContain: p.OutVertices, SelectionEdges: sel})
			if err != nil {
				t.Fatalf("%s: %v", pq.Name, err)
			}
			if run == 0 {
				want = p.GHD.String()
			}
			if got := g.String(); got != want {
				t.Fatalf("%s run %d: uncached search gave\n%s\nwant\n%s", pq.Name, run, got, want)
			}
		}
	}
}
