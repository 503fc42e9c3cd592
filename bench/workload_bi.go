package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/tpch"
)

// biInst is a TPC-H engine and the queries one round cycles through.
type biInst struct {
	baseInst
	eng   *core.Engine
	names []string
}

func newBIJoin(cfg config) (instance, setupParts, error) {
	return newBI(cfg, cfg.size.sfJoin, []string{"q3", "q5", "q8", "q9", "q10"})
}

func newBIScan(cfg config) (instance, setupParts, error) {
	return newBI(cfg, cfg.size.sfScan, []string{"q1", "q6"})
}

// populateTPCH fills and freezes eng at scale factor sf from the seed.
func populateTPCH(eng *core.Engine, sf float64, seed int64) (tpch.Sizes, setupParts, error) {
	t0 := time.Now()
	sz, err := tpch.Populate(eng.Catalog(), sf, seed)
	if err != nil {
		return sz, setupParts{}, err
	}
	t1 := time.Now()
	err = eng.Freeze()
	return sz, setupParts{populateS: t1.Sub(t0).Seconds(), freezeS: time.Since(t1).Seconds()}, err
}

func newBI(cfg config, sf float64, names []string) (instance, setupParts, error) {
	eng := core.New(core.WithThreads(cfg.threads))
	_, parts, err := populateTPCH(eng, sf, cfg.seed)
	if err != nil {
		shutdown(eng)
		return nil, parts, err
	}
	return &biInst{eng: eng, names: names}, parts, nil
}

func (b *biInst) engines() []*core.Engine { return []*core.Engine{b.eng} }

func (b *biInst) round(r *rand.Rand, x *executor) {
	for _, name := range b.names {
		x.query(name, b.eng, paramSQL(name, r), true)
	}
}

func (b *biInst) verify(x *executor) { verifyTPCH(x, b.eng, b.names) }

func (b *biInst) layers(x *executor) {
	tableLayers(x, b.eng, "lineitem", "l_orderkey", "l_suppkey", "l_shipmode")
}

func (b *biInst) close() {
	if b.eng != nil {
		shutdown(b.eng)
		b.eng = nil
	}
}
