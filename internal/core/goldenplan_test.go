package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lagen"
	"repro/internal/tpch"
)

// planLine renders what a cost-model change can move in one query's
// plan: the root order and its relaxed flag, the per-node access paths
// and the dispatch class.
func planLine(t *testing.T, eng *Engine, sql string) string {
	t.Helper()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	return fmt.Sprintf("order=[%s] relaxed=%t paths=[%s] dispatch=%s",
		strings.Join(st.RootOrder, " "), st.Relaxed, strings.Join(st.AccessPaths, " "), st.Dispatch)
}

// goldenTPCH pins the TPC-H join plans at SF 0.01, seed 1. A cost-model
// change that moves one shows up here as a reviewed diff.
var goldenTPCH = map[string]string{
	"q3":  "order=[custkey orderkey] relaxed=true paths=[binary] dispatch=hybrid",
	"q5":  "order=[nationkey custkey orderkey suppkey] relaxed=false paths=[wcoj binary] dispatch=hybrid",
	"q8":  "order=[regionkey partkey orderkey custkey nationkey#2 suppkey nationkey] relaxed=false paths=[binary] dispatch=hybrid",
	"q9":  "order=[nationkey suppkey partkey orderkey] relaxed=false paths=[binary] dispatch=hybrid",
	"q10": "order=[nationkey custkey orderkey] relaxed=false paths=[binary] dispatch=hybrid",
}

// goldenLA pins the LA plans at the benchmark's shapes and sizes. These
// must not move: they select the BLAS and SpMV kernels.
var goldenLA = map[string]string{
	"smm_harbor": "order=[dim#2 dim dim#3] relaxed=true paths=[wcoj] dispatch=generic-wcoj",
	"smm_nlp240": "order=[dim#2 dim dim#3] relaxed=true paths=[wcoj] dispatch=generic-wcoj",
	"smv_hv15r":  "order=[dim#2 dim] relaxed=false paths=[] dispatch=spmv-gather",
	"dmv_1024":   "order=[dim#2 dim] relaxed=false paths=[] dispatch=dense-mv",
	"dmm_256":    "order=[dim#2 dim#3 dim] relaxed=false paths=[] dispatch=dense-mm",
	"dmm_384":    "order=[dim#2 dim#3 dim] relaxed=false paths=[] dispatch=dense-mm",
}

func TestGoldenPlans(t *testing.T) {
	eng := New()
	if _, err := tpch.Populate(eng.Catalog(), 0.01, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"q3", "q5", "q8", "q9", "q10"} {
		if got := planLine(t, eng, tpch.Queries[name]); got != goldenTPCH[name] {
			t.Errorf("%s: %s\n want %s", name, got, goldenTPCH[name])
		}
	}

	check := func(name, sql string, load func(*Engine) error) {
		t.Helper()
		eng := New()
		if err := load(eng); err != nil {
			t.Fatal(err)
		}
		if got := planLine(t, eng, sql); got != goldenLA[name] {
			t.Errorf("%s: %s\n want %s", name, got, goldenLA[name])
		}
	}
	sparse := func(profile string, scale float64) func(*Engine) error {
		return func(e *Engine) error {
			spec, err := lagen.Profile(profile, scale)
			if err == nil {
				_, err = lagen.LoadSparse(e.Catalog(), spec, 1)
			}
			return err
		}
	}
	dense := func(n int) func(*Engine) error {
		return func(e *Engine) error { return lagen.LoadDense(e.Catalog(), n, 1) }
	}
	check("smm_harbor", lagen.SMMQuery, sparse("harbor", 0.1))
	check("smm_nlp240", lagen.SMMQuery, sparse("nlp240", 0.1))
	check("smv_hv15r", lagen.SMVQuery, sparse("hv15r", 1.0))
	check("dmv_1024", lagen.SMVQuery, dense(1024))
	check("dmm_256", lagen.SMMQuery, dense(256))
	check("dmm_384", lagen.SMMQuery, dense(384))
}
