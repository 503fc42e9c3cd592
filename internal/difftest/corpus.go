package difftest

import (
	"fmt"

	"repro/internal/lagen"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// PlanQuery is one query text with the frozen catalog it plans against.
type PlanQuery struct {
	Name string
	SQL  string
	Cat  *storage.Catalog
}

// Build parses and plans the query afresh.
func (pq PlanQuery) Build() (*planner.Plan, error) {
	q, err := sqlparse.Parse(pq.SQL)
	if err != nil {
		return nil, err
	}
	return planner.Build(q, pq.Cat)
}

// PlanCorpus is the planning-determinism corpus: every TPC-H benchmark
// query (SF 0.002), the LA queries over a sparse and a dense matrix, and
// the first joins generated join queries (seeds 0, 1, …) that plan,
// each over its own case's tables.
func PlanCorpus(joins int) ([]PlanQuery, error) {
	var out []PlanQuery
	tc := storage.NewCatalog()
	if _, err := tpch.Populate(tc, 0.002, 1); err != nil {
		return nil, err
	}
	if err := tc.Freeze(); err != nil {
		return nil, err
	}
	for _, name := range tpch.QueryNames {
		out = append(out, PlanQuery{Name: name, SQL: tpch.Queries[name], Cat: tc})
	}

	spec, err := lagen.Profile("harbor", 0.001)
	if err != nil {
		return nil, err
	}
	sparse, dense := storage.NewCatalog(), storage.NewCatalog()
	if _, err := lagen.LoadSparse(sparse, spec, 1); err != nil {
		return nil, err
	}
	if err := lagen.LoadDense(dense, 8, 1); err != nil {
		return nil, err
	}
	for _, la := range []struct {
		name string
		cat  *storage.Catalog
	}{{"sparse", sparse}, {"dense", dense}} {
		if err := la.cat.Freeze(); err != nil {
			return nil, err
		}
		out = append(out,
			PlanQuery{Name: la.name + "-smv", SQL: lagen.SMVQuery, Cat: la.cat},
			PlanQuery{Name: la.name + "-smm", SQL: lagen.SMMQuery, Cat: la.cat})
	}

	for seed, n := int64(0), 0; n < joins; seed++ {
		c, qs := NewGen(seed).Candidate()
		if len(qs.Joins) == 0 {
			continue
		}
		eng, err := c.BuildEngine()
		if err != nil {
			return nil, err
		}
		if err := eng.Freeze(); err != nil {
			return nil, err
		}
		pq := PlanQuery{Name: fmt.Sprintf("gen-%d", seed), SQL: c.SQL, Cat: eng.Catalog()}
		if _, err := pq.Build(); err != nil {
			continue // outside the supported subset
		}
		out = append(out, pq)
		n++
	}
	return out, nil
}
