package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costopt"
	"repro/internal/storage"
)

// starSQL filters dim1 by tag, groups by a, and sums fact.x * dim2.y
// next to count(*) over a randomStarJoin catalog.
const starSQL = `SELECT a1, sum(x * y) as s, count(*) as c
	FROM fact, dim1, dim2
	WHERE fact.a = dim1.a1 AND fact.b = dim2.b2 AND tag <> 'red'
	GROUP BY a1`

// starGroup is one group of starSQL's brute-force answer.
type starGroup struct{ s, c float64 }

// randomStarJoin generates a random 3-relation star join (fact(a, b) ⋈
// dim1(a) ⋈ dim2(b)) with duplicates and filters, and evaluates starSQL
// over it by brute-force nested loops.
func randomStarJoin(t *testing.T, seed int64) (*storage.Catalog, map[int64]*starGroup) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cat := storage.NewCatalog()
	fact, err := cat.Create(storage.Schema{Name: "fact", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "b", Kind: storage.Int64, Role: storage.Key, Domain: "db"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dim1, err := cat.Create(storage.Schema{Name: "dim1", Cols: []storage.ColumnDef{
		{Name: "a1", Kind: storage.Int64, Role: storage.Key, Domain: "da", PK: true},
		{Name: "w", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "tag", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dim2, err := cat.Create(storage.Schema{Name: "dim2", Cols: []storage.ColumnDef{
		{Name: "b2", Kind: storage.Int64, Role: storage.Key, Domain: "db"},
		{Name: "y", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}

	nA := 3 + r.Intn(8)
	nB := 3 + r.Intn(8)
	// dim1: unique keys, a tag used both for filtering and grouping.
	tags := []string{"red", "green", "blue"}
	d1w := map[int64]float64{}
	d1tag := map[int64]string{}
	for a := 0; a < nA; a++ {
		w := float64(r.Intn(5) + 1)
		tag := tags[r.Intn(3)]
		d1w[int64(a)] = w
		d1tag[int64(a)] = tag
		if err := dim1.Append(int64(a), w, tag); err != nil {
			t.Fatal(err)
		}
	}
	// dim2: may contain duplicate keys (multiplicities).
	type d2row struct{ y float64 }
	d2rows := map[int64][]d2row{}
	nD2 := nB + r.Intn(nB+1)
	for i := 0; i < nD2; i++ {
		b := int64(r.Intn(nB))
		y := float64(r.Intn(7))
		d2rows[b] = append(d2rows[b], d2row{y})
		if err := dim2.Append(b, y); err != nil {
			t.Fatal(err)
		}
	}
	// fact: duplicates everywhere.
	type frow struct {
		a, b int64
		x    float64
	}
	var facts []frow
	nF := 10 + r.Intn(40)
	for i := 0; i < nF; i++ {
		f := frow{int64(r.Intn(nA)), int64(r.Intn(nB)), float64(r.Intn(10))}
		facts = append(facts, f)
		if err := fact.Append(f.a, f.b, f.x); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}

	want := map[int64]*starGroup{}
	for _, f := range facts {
		if d1tag[f.a] == "red" {
			continue
		}
		if _, ok := d1w[f.a]; !ok {
			continue
		}
		for _, d2 := range d2rows[f.b] {
			a := want[f.a]
			if a == nil {
				a = &starGroup{}
				want[f.a] = a
			}
			a.s += f.x * d2.y
			a.c++
		}
	}
	return cat, want
}

// TestRandomStarJoinsMatchBruteForce checks the engine against the
// brute-force evaluation of random star joins, over many seeds and
// optimizer modes.
func TestRandomStarJoinsMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cat, want := randomStarJoin(t, seed)
			for _, copts := range []costopt.Options{{}, {Disabled: true}, {PickWorst: true}} {
				res, err := runErr(cat, starSQL, Options{}, copts)
				if err != nil {
					t.Fatalf("opts %+v: %v", copts, err)
				}
				if res.NumRows != len(want) {
					t.Fatalf("opts %+v: %d groups, want %d", copts, res.NumRows, len(want))
				}
				for i := 0; i < res.NumRows; i++ {
					a := res.Col("a1").I64[i]
					w := want[a]
					if w == nil {
						t.Fatalf("unexpected group %d", a)
					}
					if math.Abs(res.Col("s").F64[i]-w.s) > 1e-9 || math.Abs(res.Col("c").F64[i]-w.c) > 1e-9 {
						t.Fatalf("group %d = (%v, %v), want (%v, %v)",
							a, res.Col("s").F64[i], res.Col("c").F64[i], w.s, w.c)
					}
				}
			}
		})
	}
}

// TestRandomHashEmitMatchesBruteForce exercises the emit-time hash
// aggregation path: grouping purely by a metadata string.
func TestRandomHashEmitMatchesBruteForce(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		r := rand.New(rand.NewSource(seed))
		cat := storage.NewCatalog()
		fact, _ := cat.Create(storage.Schema{Name: "fact", Cols: []storage.ColumnDef{
			{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
			{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
		}})
		dim, _ := cat.Create(storage.Schema{Name: "dim", Cols: []storage.ColumnDef{
			{Name: "a1", Kind: storage.Int64, Role: storage.Key, Domain: "da", PK: true},
			{Name: "tag", Kind: storage.String, Role: storage.Annotation},
		}})
		nA := 4 + r.Intn(6)
		tags := []string{"u", "v", "w"}
		tagOf := map[int64]string{}
		for a := 0; a < nA; a++ {
			tag := tags[r.Intn(3)]
			tagOf[int64(a)] = tag
			_ = dim.Append(int64(a), tag)
		}
		want := map[string]float64{}
		for i := 0; i < 20+r.Intn(30); i++ {
			a := int64(r.Intn(nA))
			x := float64(r.Intn(9))
			_ = fact.Append(a, x)
			want[tagOf[a]] += x
		}
		if err := cat.Freeze(); err != nil {
			t.Fatal(err)
		}
		res, err := runErr(cat, `SELECT tag, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY tag`,
			Options{}, costopt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for i := 0; i < res.NumRows; i++ {
			got[res.Col("tag").Str[i]] = res.Col("s").F64[i]
		}
		// Drop zero-sum absent tags from want (tags with no facts).
		for k, v := range want {
			if math.Abs(got[k]-v) > 1e-9 {
				t.Fatalf("seed %d: tag %q = %v, want %v (got %v)", seed, k, got[k], v, got)
			}
		}
	}
}
