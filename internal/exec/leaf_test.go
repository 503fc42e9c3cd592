package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/costopt"
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/qerr"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// leafNodes counts the compiled nodes whose last level runs the
// compiled leaf.
func leafNodes(n *cNode) int {
	k := 0
	if n.leaf != nil {
		k++
	}
	for _, ch := range n.children {
		k += leafNodes(ch)
	}
	return k
}

// runPerTuple runs a query with every leaf left to the per-tuple emit
// path.
func runPerTuple(cat *storage.Catalog, sql string, opts Options, copts costopt.Options) (*Result, error) {
	leafKernelOff = true
	defer func() { leafKernelOff = false }()
	return runErr(cat, sql, opts, copts)
}

// TestLeafKernelBitIdentical runs every query twice, with the compiled
// leaf and with the per-tuple emit path: results must be bit-identical,
// and so must every node's visited bindings and intersection count.
// The LA shapes and TPC-H q3, q5 and q10 must actually compile a leaf.
func TestLeafKernelBitIdentical(t *testing.T) {
	type tc struct {
		name  string
		cat   *storage.Catalog
		sql   string
		opts  Options
		copts costopt.Options
		leaf  bool // some node must compile a leaf
	}
	var cases []tc
	smm, _ := sparseMatrixCatalog(t, 60, 700, 7)
	smv, _ := smvCatalog(t, 80, 900, 7)
	for _, path := range []string{costopt.PathWCOJ, costopt.PathBinary} {
		cases = append(cases,
			tc{"smm/" + path, smm, matmulSQL, Options{ForcePath: path}, costopt.Options{}, true},
			tc{"smv/" + path, smv, smvSQL, Options{ForcePath: path, NoFastPath: true}, costopt.Options{}, true})
	}
	tp := tpchCatalog(t, 0.01)
	for _, q := range []string{"q3", "q5", "q10"} {
		cases = append(cases, tc{q, tp, tpch.Queries[q], Options{}, costopt.Options{}, true})
	}
	for seed := int64(0); seed < 25; seed++ {
		cat, _ := randomStarJoin(t, seed)
		for _, copts := range []costopt.Options{{}, {Disabled: true}, {PickWorst: true}} {
			cases = append(cases, tc{fmt.Sprintf("star%d/%+v", seed, copts), cat, starSQL, Options{}, copts, false})
		}
	}
	for _, c := range cases {
		if c.leaf {
			p, ch := planFor(t, c.cat, c.sql)
			cp, err := compile(p, ch, c.cat, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if leafNodes(cp.root) == 0 {
				t.Errorf("%s: no node compiled a leaf", c.name)
			}
		}
		for _, threads := range []int{1, 4} {
			name := fmt.Sprintf("%s/threads=%d", c.name, threads)
			fst, tst := &obs.QueryStats{}, &obs.QueryStats{}
			opts := c.opts
			opts.Threads, opts.Stats = threads, fst
			fused, err := runErr(c.cat, c.sql, opts, c.copts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			opts.Stats = tst
			tuple, err := runPerTuple(c.cat, c.sql, opts, c.copts)
			if err != nil {
				t.Fatalf("%s per tuple: %v", name, err)
			}
			assertResultsEqual(t, name, tuple, fused)
			if len(fst.NodeCosts) != len(tst.NodeCosts) {
				t.Fatalf("%s: %d node costs, per tuple %d", name, len(fst.NodeCosts), len(tst.NodeCosts))
			}
			for i, f := range fst.NodeCosts {
				p := tst.NodeCosts[i]
				if f.Bindings != p.Bindings || f.Isect != p.Isect {
					t.Fatalf("%s node %v: bindings %d isect %d, per tuple %d and %d",
						name, f.Order, f.Bindings, f.Isect, p.Bindings, p.Isect)
				}
			}
		}
	}
}

// smmLeafPlan plans the sparse matmul over a matrix large enough that
// nearly all of its work is the relaxed order's compiled leaf.
func smmLeafPlan(t *testing.T) (*storage.Catalog, *planner.Plan, *costopt.Choice) {
	t.Helper()
	cat, _ := sparseMatrixCatalog(t, 400, 8000, 3)
	p, ch := planFor(t, cat, matmulSQL)
	c, err := compile(p, ch, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.root.relaxed || c.root.leaf == nil {
		t.Fatalf("order %v: relaxed=%v, compiled leaf=%v; want a relaxed compiled leaf",
			c.root.order, c.root.relaxed, c.root.leaf != nil)
	}
	return cat, p, ch
}

// bindings sums the trie nodes the query's workers visited.
func bindings(st *obs.QueryStats) uint64 {
	var b uint64
	for _, nc := range st.NodeCosts {
		b += nc.Bindings
	}
	return b
}

// TestLeafKernelZeroAllocs: a bound worker folding a steady-state SMM
// leaf run allocates nothing (bench-smoke runs the ZeroAllocs guards).
func TestLeafKernelZeroAllocs(t *testing.T) {
	cat, p, ch := smmLeafPlan(t)
	c, err := compile(p, ch, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := c.root
	var st set.Stats
	vals := levelZeroValues(n, &st)
	n.bind()
	w := newWorker(n, context.Background(), nil)
	defer w.release()
	// Warm: one chunk sizes the buffers and leaves the last prefix bound.
	if err := w.runChunk(vals); err != nil {
		t.Fatal(err)
	}
	leaf := n.nLevels - 1
	steps := w.steps
	if err := w.descend(leaf); err != nil {
		t.Fatal(err)
	}
	if w.steps == steps {
		t.Fatal("the last bound prefix has an empty leaf run")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.descend(leaf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocs per leaf run, want 0", allocs)
	}
}

// TestLeafKernelCancel: a relaxed SMM, whose work is nearly all in the
// compiled leaf, cancelled halfway through its context checks returns
// context.Canceled having visited about half of its bindings — the
// leaf's sampled ticks observe the cancellation, not the end of a chunk.
func TestLeafKernelCancel(t *testing.T) {
	cat, p, ch := smmLeafPlan(t)
	full := &countdownCtx{Context: context.Background()}
	full.left.Store(math.MaxInt32)
	st := &obs.QueryStats{}
	if _, err := Run(p, ch, cat, Options{Threads: 1, Ctx: full, Stats: st}); err != nil {
		t.Fatal(err)
	}
	total, checks := bindings(st), math.MaxInt32-full.left.Load()
	if total < 64*(stepCheckMask+1) {
		t.Fatalf("%d bindings: too few to cancel mid-run", total)
	}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(checks / 2)
	st = &obs.QueryStats{}
	_, err := Run(p, ch, cat, Options{Threads: 1, Ctx: ctx, Stats: st})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := bindings(st); got == 0 || got > total*3/4 {
		t.Fatalf("cancelled after %d of %d bindings, want about half", got, total)
	}
}

// TestLeafKernelMemBudget: under budgets swept up to a relaxed SMM's
// full charge, every run either matches the unbudgeted result or fails
// with the governor's error — never a panic — and some budget runs out
// while the workers fold the leaf (the union accumulator and the output
// grow there).
func TestLeafKernelMemBudget(t *testing.T) {
	cat, p, ch := smmLeafPlan(t)
	// Empty the worker pool before every run, so each one grows its
	// buffers from scratch and charges the growth as it goes.
	run := func(budget int64) (*Result, *obs.QueryStats, int64, error) {
		runtime.GC()
		runtime.GC()
		mem := governor.New(governor.Config{MemoryBudget: budget}).NewAccountant(matmulSQL, 0)
		defer mem.Close()
		st := &obs.QueryStats{}
		res, err := Run(p, ch, cat, Options{Threads: 1, Mem: mem, Stats: st})
		return res, st, mem.Used(), err
	}
	ref, st, used, err := run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	total := bindings(st)
	midRun := false
	for i := int64(1); i < 32; i++ {
		res, st, _, err := run(used * i / 32)
		if err == nil {
			assertResultsEqual(t, matmulSQL, ref, res)
			continue
		}
		var re *qerr.ResourceExhaustedError
		if !errors.As(err, &re) {
			t.Fatalf("budget %d of %d: err = %v, want ResourceExhausted", used*i/32, used, err)
		}
		if b := bindings(st); b > 0 && b < total {
			midRun = true
		}
	}
	if !midRun {
		t.Fatal("no budget ran out while the workers were walking")
	}
}
