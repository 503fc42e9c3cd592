package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// foldCatalog builds one table for the fold's bit-identity guard: group
// columns whose dense tables have 1 (one), 6 (two × k3), 300 (k300) and
// 32 768 (g128 × k256, g128 a pseudo-encoded int annotation) cells, a
// uniform filter column u, and values a, b, c spread over twelve
// decades, so any reordered addition shows in the bits. a and b carry
// −0.0, +0.0 and subnormals; in rows with k3 = 0, b also carries rare
// infinities and c NaNs of two payloads and infinities, so the groups
// of the other rows keep finite sums.
func foldCatalog(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	tb, err := cat.Create(storage.Schema{Name: "f", Cols: []storage.ColumnDef{
		{Name: "id", Kind: storage.Int64, Role: storage.Key, Domain: "id", PK: true},
		{Name: "k3", Kind: storage.Int64, Role: storage.Key, Domain: "k3"},
		{Name: "k300", Kind: storage.Int64, Role: storage.Key, Domain: "k300"},
		{Name: "k256", Kind: storage.Int64, Role: storage.Key, Domain: "k256"},
		{Name: "one", Kind: storage.String, Role: storage.Annotation},
		{Name: "two", Kind: storage.String, Role: storage.Annotation},
		{Name: "g128", Kind: storage.Int64, Role: storage.Annotation},
		{Name: "u", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "a", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "b", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "c", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(38))
	val := func() float64 {
		sign := float64(1 - 2*r.Intn(2))
		switch r.Intn(100) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return sign * math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
		case 3:
			return sign * math.Float64frombits(0x000fffffffffffff) // largest subnormal
		}
		return sign * r.Float64() * math.Pow(10, float64(r.Intn(12)-6))
	}
	special := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Inf(1), math.Inf(-1)}
	for i := 0; i < n; i++ {
		k3, b, c := r.Intn(3), val(), val()
		if k3 == 0 && r.Intn(500) == 0 {
			b = special[2+r.Intn(2)]
		}
		if k3 == 0 && r.Intn(40) == 0 {
			c = special[r.Intn(len(special))]
		}
		if err := tb.Append(int64(i), int64(k3), int64(r.Intn(300)), int64(r.Intn(256)),
			"x", []string{"p", "q"}[r.Intn(2)], int64(r.Intn(128)*7), r.Float64(), val(), b, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestScanFoldBitIdentical holds the scan to the bits of the fold it
// replaced: every leaf compiled alone (CompileNum) and the dense table
// folded one accumulation at a time over a vector of group cells
// (refFoldDense). SUM, COUNT, AVG, MIN and MAX over plain columns and
// over a*(1-b), a*(1-b)*(1+c) and (1-b) together — leaves that the scan's
// set shares — run ungrouped and into dense tables of 1, 6, 300 and
// 32 768 cells, under a selective and an all-rows filter, at 1, 2 and 7
// threads; every cell must match with math.Float64bits.
func TestScanFoldBitIdentical(t *testing.T) {
	cat := foldCatalog(t, 5*expr.BlockSize+777)
	const aggs = `sum(a) as sa, count(*) as n, avg(b) as ab, min(a) as lo, max(b) as hi,
		sum(a * (1 - b)) as r1, sum(a * (1 - b) * (1 + c)) as r2, sum(1 - b) as r3,
		avg(a * (1 - b)) as r4, min(1 + c) as lo2, max(a * (1 - b)) as hi2, sum(c) as sc`
	for _, tc := range []struct {
		group string
		cells int
	}{
		{"", 1},
		{"one", 1},
		{"two, k3", 6},
		{"k300", 300},
		{"g128, k256", 32768},
	} {
		for _, where := range []string{"u < 0.6", "u >= 0"} {
			sql := "SELECT " + aggs + " FROM f WHERE " + where
			if tc.group != "" {
				sql = "SELECT " + tc.group + ", " + aggs + " FROM f WHERE " + where + " GROUP BY " + tc.group
			}
			p, ch := planFor(t, cat, sql)
			s, err := compileScan(p, cat, Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.size != tc.cells {
				t.Fatalf("%q: dense table of %d cells, want %d", sql, s.size, tc.cells)
			}
			for _, threads := range []int{1, 2, 7} {
				label := fmt.Sprintf("%s [%d threads]", sql, threads)
				got, err := Run(p, ch, cat, Options{Threads: threads})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameBits(t, label, got, refScan(t, p, cat, threads))
			}
		}
	}
}

// assertSameBits requires equal shapes, names and cells, floats compared
// with math.Float64bits, except that a NaN matches any NaN. Which
// payload survives NaN + NaN is not the fold's to decide: x86 keeps the
// first operand's, and the compiler commutes an addition to fold
// whichever load it likes into the instruction, so the fold this test
// replays and the scan keep different NaNs when a group meets two
// payloads. (dict.CanonFloat likewise treats every NaN as one value.)
func assertSameBits(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumRows != want.NumRows || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows x %d cols, reference %d x %d", label, got.NumRows, len(got.Cols), want.NumRows, len(want.Cols))
	}
	for ci, g := range got.Cols {
		w := want.Cols[ci]
		for r := 0; r < got.NumRows; r++ {
			var same bool
			switch g.Kind {
			case KindInt:
				same = g.I64[r] == w.I64[r]
			case KindString:
				same = g.Str[r] == w.Str[r]
			default:
				same = math.Float64bits(g.F64[r]) == math.Float64bits(w.F64[r]) ||
					math.IsNaN(g.F64[r]) && math.IsNaN(w.F64[r])
			}
			if g.Name != w.Name || !same {
				t.Fatalf("%s: column %s row %d: scan %v (%#x), reference %s %v (%#x)", label, g.Name, r, cellOf(g, r), math.Float64bits(g.F64[r]), w.Name, cellOf(w, r), math.Float64bits(w.F64[r]))
			}
		}
	}
}

// refScan folds a scan plan the way the scan did before its leaves
// compiled as one set and its dense table folded group by group: each
// distinct leaf compiled alone, in the scan's leaf order, and each block
// folded by refFoldDense. Partials merge through the scan's own merge.
func refScan(t *testing.T, p *planner.Plan, cat *storage.Catalog, threads int) *Result {
	t.Helper()
	s, err := compileScan(p, cat, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &p.Rels[0]
	binding := &expr.Binding{Alias: r.Alias, Table: (&Options{}).table(r.Table)}
	var leaves []*expr.Num
	seen := map[string]bool{}
	for _, spec := range p.Aggs {
		var e sqlparse.Expr
		var key string
		switch sk := spec.Skeleton; {
		case spec.Distinct || spec.Kind == planner.AggCount:
			continue
		case sk.Op == planner.EmitLeaf:
			e = spec.Leaves[sk.Leaf].Expr
			key = e.String()
		default:
			e = sqlparse.NumberLit{Val: sk.Const}
			key = "const:" + strconv.FormatFloat(sk.Const, 'g', -1, 64)
		}
		if !seen[key] {
			seen[key] = true
			n, err := expr.CompileNum(e, binding)
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, n)
		}
	}
	ws := make([]*scanWorker, threads)
	parallelRangeID(threads, s.n, func(id, lo, hi int) {
		w := s.newWorker()
		vals := make([]expr.Vec, len(leaves))
		for i, l := range leaves {
			vals[i] = l.Bind()
		}
		gc := make([]int, expr.BlockSize)
		for blk := lo; blk < hi; blk += expr.BlockSize {
			rows := expr.Rows(w.ids, blk, min(blk+expr.BlockSize, hi))
			if w.sel != nil {
				if rows = w.sel(rows, w.ids); len(rows) == 0 {
					continue
				}
			}
			for i, v := range vals {
				v(rows, w.lv[i])
			}
			if len(s.keys) == 0 {
				w.foldRow(len(rows))
			} else {
				refFoldDense(w, rows, gc)
			}
		}
		ws[id] = w
	})
	out, err := s.merge(ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.c.output(out, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refFoldDense is the dense fold the partitioned one replaced: one
// accumulation at a time over the block's group cells, each group's
// rows in ascending order, every add a store-to-load round trip.
func refFoldDense(w *scanWorker, at []int32, gcode []int) {
	s := w.s
	gc := gcode[:len(at)]
	clear(gc)
	for g, codes := range s.keys {
		st := s.strides[g]
		for i, r := range at {
			gc[i] += int(codes[r]) * st
		}
	}
	for _, c := range gc {
		w.seen[c] = true
	}
	nF := len(s.folds)
	for fi, f := range s.folds[:s.plain] {
		acc := w.acc[fi:]
		if f.kind == planner.AggCount {
			for _, c := range gc {
				acc[c*nF]++
			}
			continue
		}
		vs := w.lv[f.leaf]
		for i, c := range gc {
			acc[c*nF] = combine1(f.kind, acc[c*nF], vs[i])
		}
	}
}
