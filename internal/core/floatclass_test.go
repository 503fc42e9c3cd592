package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// TestOneFloatEquivalence feeds one table of awkward floats through
// every layer that keys on a float — dictionary codes, the executor's
// pseudo-vertex codes and emit-time group tokens, the sketch hash, and
// the scan's GROUP BY and COUNT(DISTINCT) codes — and requires them all
// to induce the same classes: ±0 together, every NaN payload together,
// everything else alone. Value i carries weight 2^i, so a class is
// identified exactly by the sum of its members' weights.
func TestOneFloatEquivalence(t *testing.T) {
	vals := []struct {
		name string
		f    float64
	}{
		{"+0", 0},
		{"-0", math.Copysign(0, -1)},
		{"NaN", math.NaN()},
		{"NaN payload 1", math.Float64frombits(0x7ff8000000000001)},
		{"NaN negative signalling", math.Float64frombits(0xfff0000000000123)},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
		{"denormal", math.SmallestNonzeroFloat64},
		{"ordinary", 1.5},
	}
	want := []float64{1 + 2, 4 + 8 + 16, 32, 64, 128, 256}
	check := func(site string, classes []float64) {
		t.Helper()
		slices.Sort(classes)
		if !slices.Equal(classes, want) {
			t.Errorf("%s: class weight sums %v, want %v", site, classes, want)
		}
	}
	// byKey groups the weights by a comparable per-value key.
	byKey := func(key func(f float64) any) []float64 {
		sums := map[any]float64{}
		for i, v := range vals {
			sums[key(v.f)] += float64(int(1) << i)
		}
		var out []float64
		for _, s := range sums {
			out = append(out, s)
		}
		return out
	}

	b := dict.NewBuilder(dict.Float)
	for _, v := range vals {
		b.AddFloat(v.f)
	}
	d := b.Build()
	check("dict.AddFloat/EncodeFloat", byKey(func(f float64) any {
		c, ok := d.EncodeFloat(f)
		if !ok {
			t.Fatalf("dict: %v did not encode", f)
		}
		return c
	}))
	if d.Len() != len(want) {
		t.Errorf("dict: %d codes, want %d", d.Len(), len(want))
	}
	check("sketch.HashFloat", byKey(func(f float64) any { return sketch.HashFloat(7, f) }))

	eng := New()
	fact, err := eng.CreateTable(storage.Schema{Name: "t", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
		{Name: "f", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "w", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := eng.CreateTable(storage.Schema{Name: "d", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk", PK: true},
		{Name: "g", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if err := fact.Append(int64(i), v.f, float64(int(1)<<i)); err != nil {
			t.Fatal(err)
		}
		if err := dim.Append(int64(i), v.f); err != nil {
			t.Fatal(err)
		}
	}
	sums := func(site, sql string) {
		t.Helper()
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", site, err)
		}
		check(site, slices.Clone(res.Col("s").F64))
	}
	const groupBy = "SELECT f, sum(w) AS s FROM t GROUP BY f"
	sums("exec pseudo-vertex codes (pseudoEncode)", groupBy)
	sums("exec emit-time group tokens", "SELECT d.g, sum(t.w) AS s FROM t, d WHERE t.k = d.k GROUP BY d.g")

	n, err := eng.Query("SELECT count(distinct f) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Col("c").Float(0); got != float64(len(want)) || n.Stats.Dispatch != obs.DispatchScalarScan {
		t.Errorf("scan distinct codes: count(distinct f) = %v on %s, want %d on the scan", got, n.Stats.Dispatch, len(want))
	}
	sums("scan group codes (pseudoEncode)", "SELECT f, sum(w) AS s FROM t WHERE w > 0 GROUP BY f")
}
