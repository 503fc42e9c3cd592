package main

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/governor"
	"repro/internal/set"
	"repro/internal/trie"
)

// This file times direct calls into the layers a query hides inside
// exec.Run or set-up. They run once per traced run, before the timed
// section, on the workload's own data.

// timeMedian is the median duration of n calls of f.
func timeMedian(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// sortedSample draws n distinct values from [0, span), ascending.
func sortedSample(r *rand.Rand, n int, span uint32) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := uint32(r.Int63n(int64(span)))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kernelLayers times set.IntersectInto on seeded operands of n elements
// for each layout pair of §V-A1.
func kernelLayers(x *executor) {
	n := x.cfg.size.kernelN
	r := stream(x.cfg.seed, 4)
	sparse := func(card int) set.Set { return set.FromSortedSparse(sortedSample(r, card, uint32(64*n))) }
	dense := func() set.Set { return set.BitsetFromSorted(sortedSample(r, n, uint32(4*n))) }
	bsA, bsB := dense(), dense()
	inBs := set.FromSortedSparse(sortedSample(r, n/8, uint32(4*n)))
	evenA, evenB, small := sparse(n), sparse(n), sparse(n/64)
	const calls = 200
	var buf set.Buffer
	for _, k := range []struct {
		name string
		a, b *set.Set
	}{
		{"uint_uint_even", &evenA, &evenB},
		{"uint_uint_skewed", &small, &evenB},
		{"bs_uint", &bsA, &inBs},
		{"bs_bs", &bsA, &bsB},
	} {
		d := timeMedian(15, func() {
			for i := 0; i < calls; i++ {
				set.IntersectInto(&buf, k.a, k.b)
			}
		})
		x.lay["set.intersect_ns."+k.name] = float64(d) / calls
	}
}

// governorLayers times an uncontended admission on a governor
// configured like the workloads' engines (no limits).
func governorLayers(x *executor) {
	g := governor.New(governor.Config{})
	ctx := context.Background()
	const calls = 1000
	d := timeMedian(15, func() {
		for i := 0; i < calls; i++ {
			if release, err := g.Acquire(ctx, 1); err == nil {
				release()
			}
		}
	})
	x.lay["governor.acquire_ns_p50"] = float64(d) / calls
}

// tableLayers times trie construction and dictionary work on one frozen
// table of eng: a two-level trie over key columns k1, k2 (eager, lazy
// level 0, lazy forced full), rebuilding k1's domain dictionary from
// its raw values, encoding through it and through strCol's dictionary,
// and extending it by one ingest batch of unseen keys.
func tableLayers(x *executor, eng *core.Engine, table, k1, k2, strCol string) {
	kernelLayers(x)
	governorLayers(x)
	t := eng.Catalog().Table(table)
	c1, c2 := t.Col(k1), t.Col(k2)
	in := trie.BuildInput{Attrs: []string{k1, k2}, Keys: [][]uint32{c1.KeyCodes(), c2.KeyCodes()}, Threads: x.cfg.threads}
	var built *trie.Trie
	x.lay["trie.build_ms.eager"] = msOf(timeMedian(3, func() {
		tr, err := trie.Build(in)
		if err != nil {
			x.check("trie.Build", err)
		}
		built = tr
	}))
	if built != nil {
		x.lay["trie.mem_mb"] = float64(built.MemBytes()) / (1 << 20)
	}
	var lazy *trie.Lazy
	x.lay["trie.build_ms.lazy0"] = msOf(timeMedian(3, func() {
		l, err := trie.NewLazy(in)
		if err != nil {
			x.check("trie.NewLazy", err)
		}
		lazy = l
	}))
	if lazy != nil {
		t0 := time.Now()
		lazy.Full(x.cfg.threads)
		x.lay["trie.lazy_full_ms"] = msOf(time.Since(t0))
	}

	raw := c1.Ints
	var d *dict.Dictionary
	x.lay["dict.build_ms"] = msOf(timeMedian(3, func() {
		b := dict.NewBuilder(dict.Int)
		for _, v := range raw {
			b.AddInt(v)
		}
		d = b.Build()
	}))
	x.lay["dict.encode_ns_per_key.int"] = ratio(float64(timeMedian(3, func() {
		for _, v := range raw {
			d.EncodeInt(v)
		}
	})), float64(len(raw)))
	if sc := t.Col(strCol); sc != nil && sc.Dict() != nil {
		sd, strs := sc.Dict(), sc.Strs
		x.lay["dict.encode_ns_per_key.string"] = ratio(float64(timeMedian(3, func() {
			for _, v := range strs {
				sd.EncodeString(v)
			}
		})), float64(len(strs)))
	}
	fresh := make([]int64, x.cfg.size.batchRows)
	for i := range fresh {
		fresh[i] = int64(1<<40 + i)
	}
	x.lay["dict.extend_ms_per_batch"] = msOf(timeMedian(5, func() { d.ExtendInts(fresh) }))
}
