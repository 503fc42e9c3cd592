package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
)

var (
	bindRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	bindNations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO",
		"MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA",
		"UNITED KINGDOM", "UNITED STATES"}
	bindTypes    = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	bindSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	bindColors   = []string{"almond", "azure", "beige", "black", "blue", "brown", "coral", "cream",
		"cyan", "dark", "drab", "forest", "ghost", "green", "grey", "ivory", "khaki", "lace",
		"lemon", "lime", "linen", "navy", "olive", "orange", "peach", "pink", "plum", "red",
		"rose", "tan"}
)

// boundQuery is TPC-H query name (q3, q5, q8, q9 or q10) under literal
// binding i (distinct for i < 30): one text shape with literals redrawn
// per execution, the pattern that misses the text-keyed plan cache.
func boundQuery(name string, i int) string {
	var r *strings.Replacer
	switch name {
	case "q3":
		r = strings.NewReplacer("'BUILDING'", "'"+bindSegments[i%5]+"'",
			"1995-03-15", fmt.Sprintf("1995-03-%02d", 1+i))
	case "q10":
		r = strings.NewReplacer("1993-10-01", fmt.Sprintf("%d-%02d-01", 1993+(i+1)/12, 1+(i+1)%12))
	case "q5":
		r = strings.NewReplacer("'ASIA'", "'"+bindRegions[i%5]+"'",
			"1994-01-01", fmt.Sprintf("%d-01-01", 1993+(i/5)%6))
	case "q8":
		r = strings.NewReplacer("'BRAZIL'", "'"+bindNations[i%25]+"'",
			"'AMERICA'", "'"+bindRegions[i%5]+"'",
			"'ECONOMY ANODIZED STEEL'", "'"+bindTypes[i%6]+" ANODIZED STEEL'")
	case "q9":
		r = strings.NewReplacer("%green%", "%"+bindColors[i%30]+"%")
	default:
		panic("no bindings for " + name)
	}
	return r.Replace(tpch.Queries[name])
}

// resultRows renders each row with its floats as bit patterns, sorted:
// equal slices mean bit-identical results up to row order.
func resultRows(res *exec.Result) []string {
	rows := make([]string, res.NumRows)
	for r := range rows {
		var b strings.Builder
		for _, c := range res.Cols {
			switch {
			case c.F64 != nil:
				fmt.Fprintf(&b, "%s=%x|", c.Name, math.Float64bits(c.F64[r]))
			case c.I64 != nil:
				fmt.Fprintf(&b, "%s=%d|", c.Name, c.I64[r])
			default:
				fmt.Fprintf(&b, "%s=%q|", c.Name, c.Str[r])
			}
		}
		rows[r] = b.String()
	}
	sort.Strings(rows)
	return rows
}

func sameRows(a, b *exec.Result) bool {
	ra, rb := resultRows(a), resultRows(b)
	return strings.Join(ra, "\n") == strings.Join(rb, "\n")
}

// TestPlanShapeSharedAcrossLiterals: two q8 texts that differ only in
// literals miss the text-keyed plan cache but share the memoised GHD and
// root order, and answer bit-identically to a fresh engine. An append
// that moves a relation's cardinality score searches orders again.
func TestPlanShapeSharedAcrossLiterals(t *testing.T) {
	eng := tpchEngine(t)
	a, b := boundQuery("q8", 0), boundQuery("q8", 1)
	pa, cha, err := eng.Prepare(a, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pb, chb, err := eng.Prepare(b, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("distinct texts shared one cached plan")
	}
	if pa.GHD != pb.GHD {
		t.Fatal("q8 literal bindings built different GHDs")
	}
	rootA := cha.Orders[pa.GHD.Root]
	if rootA != chb.Orders[pb.GHD.Root] {
		t.Fatal("q8 literal bindings chose orders separately")
	}
	got, err := eng.Query(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tpchEngine(t).Query(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got, want) {
		t.Fatalf("q8 differs from a fresh engine:\n%v\nwant\n%v", resultRows(got), resultRows(want))
	}

	// region holds 5 of ~12k lineitem rows (score 1); 200 more rows give
	// it score 2 once a snapshot publishes them.
	region := eng.Catalog().Table("region")
	for i := 0; i < 200; i++ {
		if err := region.Append(int64(100+i), "NOWHERE", "appended"); err != nil {
			t.Fatal(err)
		}
	}
	eng.Catalog().Snapshot()
	pc, chc, err := eng.Prepare(boundQuery("q8", 2), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if chc.Orders[pc.GHD.Root] == rootA {
		t.Fatal("a score change reused the memoised order")
	}
}

// TestNoPlanDriftAcrossLiterals runs q3, q5, q8, q9 and q10 under 30
// literal bindings each through one engine: every binding plans the same
// shape, so no fingerprint may record a root-order change. The binding
// estimate reads no literal, so its ties cannot flap across bindings.
func TestNoPlanDriftAcrossLiterals(t *testing.T) {
	eng := tpchEngine(t)
	names := []string{"q3", "q5", "q8", "q9", "q10"}
	for _, name := range names {
		for i := 0; i < 30; i++ {
			if _, err := eng.Query(boundQuery(name, i)); err != nil {
				t.Fatalf("%s binding %d: %v", name, i, err)
			}
		}
	}
	for _, name := range names {
		_, fp, err := sqlparse.FingerprintSQL(tpch.Queries[name])
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range eng.Statements("", 0) {
			if s.Fingerprint != fp {
				continue
			}
			found = true
			if s.Calls != 30 || s.PlanChanges != 0 {
				t.Errorf("%s: %d calls, %d plan changes (last order %v); want 30 and 0",
					name, s.Calls, s.PlanChanges, s.LastOrder)
			}
		}
		if !found {
			t.Errorf("%s: no statement entry", name)
		}
	}
}

// TestExplainIsDeterministic: EXPLAIN walks the GHD in tree order, so a
// multi-node plan renders byte-identically every time.
func TestExplainIsDeterministic(t *testing.T) {
	eng := tpchEngine(t)
	p, _, err := eng.Prepare(tpch.Queries["q5"], QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.GHD.NumNodes < 2 {
		t.Fatalf("q5 plans %d GHD nodes; the test needs a multi-node plan", p.GHD.NumNodes)
	}
	first, err := eng.Explain(tpch.Queries["q5"])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		s, err := eng.Explain(tpch.Queries["q5"])
		if err != nil {
			t.Fatal(err)
		}
		if s != first {
			t.Fatalf("EXPLAIN %d differs:\n%s\nfirst:\n%s", i, s, first)
		}
	}
}

// TestChaosConcurrentPlanning plans and runs literal-redrawn q5/q8/q9
// texts from 8 goroutines at once over one engine, sharing the plan
// cache and the GHD and order memos; under -race it checks their
// locking, and every answer must match the one computed sequentially.
func TestChaosConcurrentPlanning(t *testing.T) {
	eng := tpchEngine(t)
	var texts []string
	for _, name := range []string{"q5", "q8", "q9"} {
		for i := 0; i < 4; i++ {
			texts = append(texts, boundQuery(name, i))
		}
	}
	want := make([]*exec.Result, len(texts))
	for i, sql := range texts {
		res, err := tpchEngine(t).Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range texts {
				i := (g + k) % len(texts)
				res, err := eng.QueryWithContext(context.Background(), texts[i], QueryOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !sameRows(res, want[i]) {
					t.Errorf("goroutine %d: %s differs from the sequential answer", g, texts[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
