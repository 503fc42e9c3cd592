package costopt_test

import (
	"fmt"
	"testing"

	"repro/internal/costopt"
	"repro/internal/difftest"
)

// TestChooseIsDeterministic plans every corpus text 50 times from
// scratch and requires the uncached order search to pick one root order
// per text — the one the memo serves. A full cost tie goes to the
// first-enumerated order, so this holds only while enumeration order is
// a function of the text.
func TestChooseIsDeterministic(t *testing.T) {
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
				break // a single-relation scan has no attribute order
			}
			if run == 0 {
				memo, err := costopt.Choose(p, costopt.Options{})
				if err != nil {
					t.Fatalf("%s: %v", pq.Name, err)
				}
				want = fmt.Sprint(memo.Orders[p.GHD.Root].Attrs)
			}
			ch, err := costopt.ChooseUncached(p, costopt.Options{})
			if err != nil {
				t.Fatalf("%s: %v", pq.Name, err)
			}
			if got := fmt.Sprint(ch.Orders[p.GHD.Root].Attrs); got != want {
				t.Fatalf("%s run %d: root order %s, want %s", pq.Name, run, got, want)
			}
		}
	}
}
