package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/costopt"
	"repro/internal/refeval"
	"repro/internal/set"
	"repro/internal/storage"
)

// metaCatalog builds fact(a, x) ⋈ dim(a1 PK, w, d, tag, z): GROUP BY
// items over dim's annotations resolve through dim's primary key
// (GroupMeta). Values are small integers, so every sum is exact in any
// order; z also holds NaNs (two payloads) and -0.0.
func metaCatalog(t *testing.T, nDim, nFact int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	fact, err := cat.Create(storage.Schema{Name: "fact", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := cat.Create(storage.Schema{Name: "dim", Cols: []storage.ColumnDef{
		{Name: "a1", Kind: storage.Int64, Role: storage.Key, Domain: "da", PK: true},
		{Name: "w", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "d", Kind: storage.Date, Role: storage.Annotation},
		{Name: "tag", Kind: storage.String, Role: storage.Annotation},
		{Name: "z", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for a := 0; a < nDim; a++ {
		day := int64(8000 + r.Intn(3000)) // late 1991 to early 2000
		z := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Copysign(0, -1), 0, 1, 2}[a%6]
		if err := dim.Append(int64(a), float64(r.Intn(6)), day, []string{"u", "v", "w"}[r.Intn(3)], z); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nFact; i++ {
		if err := fact.Append(int64(r.Intn(nDim+3)), float64(r.Intn(9))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

// refRelations decodes catalog tables into the reference evaluator's
// row form.
func refRelations(cat *storage.Catalog, names ...string) map[string]*refeval.Relation {
	rels := map[string]*refeval.Relation{}
	for _, name := range names {
		tab := cat.Table(name)
		rel := &refeval.Relation{Schema: tab.Schema}
		for r := 0; r < tab.NumRows; r++ {
			row := make([]any, len(tab.Cols))
			for ci, c := range tab.Cols {
				switch c.Def.Kind {
				case storage.Float64:
					row[ci] = c.Floats[r]
				case storage.String:
					row[ci] = c.Str(r)
				default:
					row[ci] = c.Ints[r]
				}
			}
			rel.Rows = append(rel.Rows, row)
		}
		rels[name] = rel
	}
	return rels
}

// resultRows renders each row as its cells in order (numbers as float64),
// sorted, so an engine result and a reference result compare as sets.
func resultRows(cols int, rows int, cell func(c, r int) any) []string {
	out := make([]string, rows)
	for r := 0; r < rows; r++ {
		s := ""
		for c := 0; c < cols; c++ {
			v := cell(c, r)
			if i, ok := v.(int64); ok {
				v = float64(i)
			}
			s += fmt.Sprintf("%v|", v)
		}
		out[r] = s
	}
	sort.Strings(out)
	return out
}

// TestGroupMetaMatchesReference evaluates numeric GroupMeta items — a
// plain column, EXTRACT, CASE and arithmetic — through the emit-time
// hash aggregation (every item a metadata lookup) and through the output
// hash-merge (a key vertex alongside), at 1 and 4 threads, against the
// reference evaluator.
func TestGroupMetaMatchesReference(t *testing.T) {
	cat := metaCatalog(t, 40, 600)
	rels := refRelations(cat, "fact", "dim")
	const from = ` FROM fact, dim WHERE fact.a = dim.a1 GROUP BY `
	items := []string{
		"w",
		"extract(year from d)",
		"CASE WHEN w > 2 THEN w * 10 WHEN tag = 'u' THEN 1 ELSE 0 END",
		"w * 2 + 1",
		"(1 - w) * (1 + w)",
	}
	type metaQuery struct {
		sql      string
		hashEmit bool
	}
	var queries []metaQuery
	add := func(groups string, hashEmit bool) {
		queries = append(queries, metaQuery{"SELECT " + groups + ", sum(x) AS s, count(*) AS c" + from + groups, hashEmit})
	}
	for _, it := range items {
		add(it, true)
		add("fact.a, "+it, false)
	}
	add("w, extract(month from d), tag", true)

	for _, q := range queries {
		want, err := refeval.Eval(q.sql, rels)
		if err != nil {
			t.Fatalf("reference: %s: %v", q.sql, err)
		}
		wantRows := resultRows(len(want.Cols), want.NumRows, func(c, r int) any { return want.Cols[c].Vals[r] })
		p, ch := planFor(t, cat, q.sql)
		if p.HashEmit != q.hashEmit {
			t.Fatalf("%s: HashEmit = %v, want %v", q.sql, p.HashEmit, q.hashEmit)
		}
		for _, threads := range []int{1, 4} {
			got, err := Run(p, ch, cat, Options{Threads: threads})
			if err != nil {
				t.Fatalf("%s: %v", q.sql, err)
			}
			gotRows := resultRows(len(got.Cols), got.NumRows, func(c, r int) any { return cellOf(got.Cols[c], r) })
			if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
				t.Fatalf("%s at %d threads:\n got %v\nwant %v", q.sql, threads, gotRows, wantRows)
			}
		}
	}
}

// TestHashEmitMetaZeroAllocs guards the per-tuple GroupMeta lookup of
// the emit-time hash aggregation: each item's token is a load from its
// token column, built at compile time, so with the groups warm a full
// chunk — lookups included — must not allocate. (bench-smoke runs it
// with the other ZeroAllocs guards.)
func TestHashEmitMetaZeroAllocs(t *testing.T) {
	cat := metaCatalog(t, 200, 4000)
	for _, sql := range []string{
		`SELECT extract(year from d) AS y, sum(x) AS s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY y`,
		`SELECT w * 2 + 1 AS v, CASE WHEN w > 2 THEN 1 ELSE 0 END AS hi, sum(x) AS s
			FROM fact, dim WHERE fact.a = dim.a1 GROUP BY v, hi`,
	} {
		p, ch := planFor(t, cat, sql)
		if !p.HashEmit {
			t.Fatalf("%s: not a hash-emit plan", sql)
		}
		c, err := compile(p, ch, cat, Options{ForcePath: costopt.PathWCOJ})
		if err != nil {
			t.Fatal(err)
		}
		n := c.root
		var st set.Stats
		vals := levelZeroValues(n, &st)
		if len(vals) == 0 {
			t.Fatal("empty level-0 join; test needs survivors to walk")
		}
		n.bind()
		w := newWorker(n, nil, nil)
		// Warm: the first chunk meets every group and sizes the buffers.
		if err := w.runChunk(vals); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := w.runChunk(vals); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: %v allocs/chunk on the warm hash-emit path, want 0", sql, allocs)
		}
		w.release()
	}
}
