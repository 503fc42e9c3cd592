// Benchmarks regenerating every table and figure of the paper at
// CI-sized scales (the cmd/lhbench harness runs the same experiments at
// larger scales and prints paper-style tables):
//
//	Table II (BI half)  — BenchmarkTableII_TPCH_*
//	Table II (LA half)  — BenchmarkTableII_LA_*
//	Table III           — BenchmarkTableIII_*   (ablation toggles)
//	Table IV            — BenchmarkTableIV_*    (COO→CSR conversion vs SMV)
//	Figure 5a           — BenchmarkFig5a_*      (intersection layouts)
//	Figure 5b           — BenchmarkFig5b_*      (SpGEMM attribute orders)
//	Figure 5c           — BenchmarkFig5c_*      (Q5 attribute orders)
//	Figure 6            — BenchmarkFig6_*       (voter pipelines)
//	§IV-B heuristics    — BenchmarkGHDHeuristics_Q5
package levelheaded_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/lagen"
	"repro/internal/pairwise"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/voter"
)

// ---- shared fixtures (built once) ------------------------------------

const benchSF = 0.01

var (
	tpchOnce sync.Once
	tpchEng  *core.Engine
)

func tpchFixture(b *testing.B) *core.Engine {
	b.Helper()
	tpchOnce.Do(func() {
		tpchEng = core.New()
		if _, err := tpch.Populate(tpchEng.Catalog(), benchSF, 2026); err != nil {
			panic(err)
		}
		if err := tpchEng.Freeze(); err != nil {
			panic(err)
		}
		// Warm the trie cache: the paper's measurements exclude index
		// creation.
		for _, name := range tpch.QueryNames {
			if _, err := tpchEng.Query(tpch.Queries[name]); err != nil {
				panic(err)
			}
		}
	})
	return tpchEng
}

var (
	sparseOnce sync.Once
	sparseEng  *core.Engine
	sparseCSR  *blas.CSR
	sparseX    []float64
	sparseN    int
)

func sparseFixture(b *testing.B) {
	b.Helper()
	sparseOnce.Do(func() {
		spec, err := lagen.Profile("harbor", 0.15) // n = 1200
		if err != nil {
			panic(err)
		}
		sparseN = spec.N
		sparseEng = core.New()
		if _, err := lagen.LoadSparse(sparseEng.Catalog(), spec, 7); err != nil {
			panic(err)
		}
		if err := sparseEng.Freeze(); err != nil {
			panic(err)
		}
		m := sparseEng.Catalog().Table("matrix")
		i32 := make([]int32, m.NumRows)
		j32 := make([]int32, m.NumRows)
		for k := 0; k < m.NumRows; k++ {
			i32[k] = int32(m.Col("i").Ints[k])
			j32[k] = int32(m.Col("j").Ints[k])
		}
		coo, _ := blas.NewCOO(spec.N, spec.N, i32, j32, m.Col("v").Floats)
		sparseCSR = blas.CompressCOO(coo)
		sparseX = sparseEng.Catalog().Table("vec").Col("x").Floats
		if _, err := sparseEng.Query(lagen.SMVQuery); err != nil {
			panic(err)
		}
		if _, err := sparseEng.Query(lagen.SMMQuery); err != nil {
			panic(err)
		}
	})
}

var (
	denseOnce sync.Once
	denseEng  *core.Engine
	denseA    []float64
	denseX    []float64
)

const denseN = 192 // stands in for the paper's 8192–16384

func denseFixture(b *testing.B) {
	b.Helper()
	denseOnce.Do(func() {
		denseEng = core.New()
		if err := lagen.LoadDense(denseEng.Catalog(), denseN, 9); err != nil {
			panic(err)
		}
		if err := denseEng.Freeze(); err != nil {
			panic(err)
		}
		var err error
		denseA, denseX, err = lagen.DenseBuffer(denseEng.Catalog(), denseN)
		if err != nil {
			panic(err)
		}
		if _, err := denseEng.Query(lagen.SMMQuery); err != nil {
			panic(err)
		}
	})
}

// ---- Table II: business intelligence ---------------------------------

func BenchmarkTableII_TPCH(b *testing.B) {
	eng := tpchFixture(b)
	pw := pairwise.New(eng.Catalog())
	cs := colstore.New(eng.Catalog())
	for _, name := range tpch.QueryNames {
		sql := tpch.Queries[name]
		b.Run(name+"/levelheaded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/pairwise_hyper", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pw.RunTPCH(name); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/colstore_monet", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cs.RunTPCH(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table II: linear algebra -----------------------------------------

func BenchmarkTableII_LA_SMV(b *testing.B) {
	sparseFixture(b)
	pw := pairwise.New(sparseEng.Catalog())
	cs := colstore.New(sparseEng.Catalog())
	b.Run("levelheaded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparseEng.Query(lagen.SMVQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blas_mkl", func(b *testing.B) {
		y := make([]float64, sparseN)
		for i := 0; i < b.N; i++ {
			blas.SpMV(sparseCSR, sparseX, y)
		}
	})
	b.Run("pairwise_hyper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pw.SpMV("matrix", "vec"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("colstore_monet", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cs.SpMV("matrix", "vec"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTableII_LA_SMM(b *testing.B) {
	sparseFixture(b)
	pw := pairwise.New(sparseEng.Catalog())
	b.Run("levelheaded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparseEng.Query(lagen.SMMQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blas_mkl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blas.SpGEMM(sparseCSR, sparseCSR)
		}
	})
	b.Run("pairwise_hyper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pw.SpMM("matrix", "matrix", 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTableII_LA_DMV(b *testing.B) {
	denseFixture(b)
	sql := lagen.SMVQuery
	b.Run("levelheaded_blas_dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := denseEng.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blas_mkl", func(b *testing.B) {
		y := make([]float64, denseN)
		for i := 0; i < b.N; i++ {
			blas.Gemv(denseN, denseN, denseA, denseX, y)
		}
	})
}

func BenchmarkTableII_LA_DMM(b *testing.B) {
	denseFixture(b)
	b.Run("levelheaded_blas_dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := denseEng.Query(lagen.SMMQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blas_mkl", func(b *testing.B) {
		c := make([]float64, denseN*denseN)
		for i := 0; i < b.N; i++ {
			for j := range c {
				c[j] = 0
			}
			blas.GemmNT(denseN, denseN, denseN, denseA, denseA, c)
		}
	})
}

// ---- Table III: ablations ----------------------------------------------

func BenchmarkTableIII_AttrElim(b *testing.B) {
	for _, name := range []string{"q1", "q5", "q6"} {
		sql := tpch.Queries[name]
		for _, mode := range []struct {
			label string
			opt   core.Option
		}{
			{"with", core.WithAttributeElimination(true)},
			{"without", core.WithAttributeElimination(false)},
		} {
			eng := core.New(mode.opt)
			if _, err := tpch.Populate(eng.Catalog(), benchSF, 2026); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Query(sql); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", name, mode.label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := eng.Query(sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTableIII_AttrElim_DMM(b *testing.B) {
	denseFixture(b)
	b.Run("with_blas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := denseEng.Query(lagen.SMMQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Without attribute elimination there is no BLAS-compatible buffer:
	// dense MM runs as a pure aggregate-join (the 500x row of Table III).
	eng := core.New(core.WithBLAS(false))
	if err := lagen.LoadDense(eng.Catalog(), denseN, 9); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Query(lagen.SMMQuery); err != nil {
		b.Fatal(err)
	}
	b.Run("without_wcoj", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(lagen.SMMQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTableIII_AttrOrder(b *testing.B) {
	eng := tpchFixture(b)
	for _, name := range []string{"q3", "q5", "q9", "q10"} {
		sql := tpch.Queries[name]
		b.Run(name+"/best", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/worst", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryWithContext(context.Background(), sql, core.QueryOptions{WorstOrder: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table IV: conversion cost -----------------------------------------

func BenchmarkTableIV_Conversion(b *testing.B) {
	sparseFixture(b)
	cs := colstore.New(sparseEng.Catalog())
	b.Run("coo_to_csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cs.ConvertToCSR("matrix", sparseN, sparseN); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("levelheaded_smv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparseEng.Query(lagen.SMVQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Figure 5a: intersection layouts ------------------------------------

func fig5aSets(card int, density float64) (uintA, uintB, bsA, bsB set.Set) {
	span := uint32(float64(card) / density)
	mk := func(offset uint32) []uint32 {
		vals := make([]uint32, 0, card)
		step := span / uint32(card)
		if step == 0 {
			step = 1
		}
		for v := offset; len(vals) < card; v += step {
			vals = append(vals, v)
		}
		return vals
	}
	a, bvals := mk(0), mk(1)
	return set.FromSortedSparse(a), set.FromSortedSparse(bvals),
		set.BitsetFromSorted(a), set.BitsetFromSorted(bvals)
}

func BenchmarkFig5a_Intersections(b *testing.B) {
	for _, card := range []int{100000, 1000000} {
		ua, ub, ba, bb := fig5aSets(card, 0.25)
		var buf set.Buffer
		b.Run(fmt.Sprintf("card%d/uint_uint", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set.IntersectInto(&buf, &ua, &ub)
			}
		})
		b.Run(fmt.Sprintf("card%d/bs_uint", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set.IntersectInto(&buf, &ba, &ub)
			}
		})
		b.Run(fmt.Sprintf("card%d/bs_bs", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set.IntersectInto(&buf, &ba, &bb)
			}
		})
	}
}

// ---- Figure 5b: SpGEMM attribute orders ----------------------------------

func BenchmarkFig5b_SMMOrders(b *testing.B) {
	sparseFixture(b)
	// Discover vertex names from the plan.
	p, _, err := sparseEng.Prepare(lagen.SMMQuery, core.QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	bag := p.GHD.Root.Bag // [k, i, j] naming per the planner
	iV, kV, jV := bag[1], bag[0], bag[2]
	b.Run("cost10_ikj_relaxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparseEng.QueryWithContext(context.Background(), lagen.SMMQuery, core.QueryOptions{
				ForcedOrder: []string{iV, kV, jV}, ForcedRelaxed: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cost50_ijk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparseEng.QueryWithContext(context.Background(), lagen.SMMQuery, core.QueryOptions{
				ForcedOrder: []string{iV, jV, kV},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Figure 5c: Q5 attribute orders ---------------------------------------

func BenchmarkFig5c_Q5Orders(b *testing.B) {
	eng := tpchFixture(b)
	// The four orders of Fig. 5c over the big Q5 GHD node, expressed by
	// their leading attributes (o=orderkey, c=custkey, s=suppkey,
	// n=nationkey). Orders are applied to the root node; nationkey must
	// satisfy the running constraints so all permutations of the bag are
	// tried via forced orders.
	p, _, err := eng.Prepare(tpch.Queries["q5"], core.QueryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	bag := p.GHD.Root.Bag
	find := func(name string) string {
		for _, v := range bag {
			if v == name {
				return v
			}
		}
		b.Fatalf("vertex %s not in %v", name, bag)
		return ""
	}
	o, c, s, n := find("orderkey"), find("custkey"), find("suppkey"), find("nationkey")
	for _, ord := range []struct {
		label string
		attrs []string
	}{
		{"o_c_n_s", []string{o, c, n, s}},
		{"o_n_s_c", []string{o, n, s, c}},
		{"c_o_n_s", []string{c, o, n, s}},
		{"n_s_c_o", []string{n, s, c, o}},
	} {
		ord := ord
		b.Run(ord.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.QueryWithContext(context.Background(), tpch.Queries["q5"], core.QueryOptions{ForcedOrder: ord.attrs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 6: voter pipelines ----------------------------------------------

func BenchmarkFig6_VoterPipelines(b *testing.B) {
	cat := storage.NewCatalog()
	if err := voter.Generate(cat, 60000, 300, 11); err != nil {
		b.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		b.Fatal(err)
	}
	pipelines := []struct {
		label string
		run   func(*storage.Catalog, int) (voter.Phases, error)
	}{
		{"levelheaded", voter.RunUnified},
		{"monetdb_sklearn", voter.RunMonetSklearn},
		{"pandas_sklearn", voter.RunPandasSklearn},
		{"spark", voter.RunSpark},
	}
	for _, p := range pipelines {
		p := p
		b.Run(p.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.run(cat, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- §IV-B: GHD heuristics --------------------------------------------------

func BenchmarkGHDHeuristics_Q5(b *testing.B) {
	eng := tpchFixture(b)
	// The selected 2-node GHD (heuristics on) vs the same query executed
	// through the EmptyHeaded-style optimizer, which follows bag order.
	b.Run("heuristic_plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(tpch.Queries["q5"]); err != nil {
				b.Fatal(err)
			}
		}
	})
	noOpt := core.New(core.WithCostOptimizer(false))
	if _, err := tpch.Populate(noOpt.Catalog(), benchSF, 2026); err != nil {
		b.Fatal(err)
	}
	if _, err := noOpt.Query(tpch.Queries["q5"]); err != nil {
		b.Fatal(err)
	}
	b.Run("emptyheaded_style", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := noOpt.Query(tpch.Queries["q5"]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
