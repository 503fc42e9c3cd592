package costopt

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/planner"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// laCatalog holds a sparse matrix (COO) and a dense matrix with sizes
// mimicking the paper's shapes.
func laCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	sparse, err := cat.Create(storage.Schema{Name: "m", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := cat.Create(storage.Schema{Name: "d", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "ddim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "ddim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: 8x8 with a band; not all pairs present.
	for i := int64(0); i < 8; i++ {
		_ = sparse.Append(i, i, 1.0)
		if i+1 < 8 {
			_ = sparse.Append(i, i+1, 0.5)
		}
	}
	// Dense: full 4x4.
	for i := int64(0); i < 4; i++ {
		for j := int64(0); j < 4; j++ {
			_ = dense.Append(i, j, float64(i*4+j))
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func planFor(t *testing.T, cat *storage.Catalog, sql string) *planner.Plan {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Build(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const smmSQL = `SELECT m1.i, m2.j, sum(m1.v * m2.v) as v
	FROM m as m1, m as m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`

func TestSpGEMMPrefersRelaxedIKJ(t *testing.T) {
	cat := laCatalog(t)
	p := planFor(t, cat, smmSQL)
	ch, err := Choose(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := ch.Orders[p.GHD.Root]
	if o == nil {
		t.Fatal("no root order")
	}
	// The §V-A2 result: [i, k, j] with the 1-attribute union beats
	// [i, j, k] (uint∩uint on k). The middle attribute must be the shared
	// (projected) one and Relaxed must be set.
	if !o.Relaxed {
		t.Fatalf("expected relaxed order, got %s", o)
	}
	if !o.MatSet[o.Attrs[0]] || o.MatSet[o.Attrs[1]] || !o.MatSet[o.Attrs[2]] {
		t.Fatalf("expected [mat, proj, mat] shape, got %s (mat=%v)", o, o.MatSet)
	}
	// Cost comparison against the default ijk order.
	chDefault, err := Choose(p, Options{Forced: []string{o.Attrs[0], o.Attrs[2], o.Attrs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	ijk := chDefault.Orders[p.GHD.Root]
	if ijk.Cost <= o.Cost {
		t.Fatalf("ijk cost %v should exceed relaxed ikj cost %v", ijk.Cost, o.Cost)
	}
}

func TestDenseRelationICostZero(t *testing.T) {
	cat := laCatalog(t)
	p := planFor(t, cat, `SELECT d1.i, d2.j, sum(d1.v * d2.v) as v
		FROM d as d1, d as d2 WHERE d1.j = d2.i GROUP BY d1.i, d2.j`)
	ch, err := Choose(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := ch.Orders[p.GHD.Root]
	// Every vertex of a completely dense join costs 0.
	if o.Cost != 0 {
		t.Fatalf("dense matmul cost = %v, want 0 (%+v)", o.Cost, o.Per)
	}
}

func TestDisabledUsesBagOrder(t *testing.T) {
	cat := laCatalog(t)
	p := planFor(t, cat, smmSQL)
	ch, err := Choose(p, Options{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	o := ch.Orders[p.GHD.Root]
	if o.Relaxed {
		t.Fatal("disabled optimizer must not relax")
	}
	// Materialized attrs first, in bag order.
	var wantMat []string
	for _, v := range p.GHD.Root.Bag {
		if o.MatSet[v] {
			wantMat = append(wantMat, v)
		}
	}
	if !reflect.DeepEqual(o.Attrs[:len(wantMat)], wantMat) {
		t.Fatalf("disabled order = %v, want prefix %v", o.Attrs, wantMat)
	}
}

func TestPickWorstIsWorse(t *testing.T) {
	cat := laCatalog(t)
	p := planFor(t, cat, smmSQL)
	best, err := Choose(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := Choose(p, Options{PickWorst: true})
	if err != nil {
		t.Fatal(err)
	}
	w, b := worst.Orders[p.GHD.Root], best.Orders[p.GHD.Root]
	if !better(b, w) {
		t.Fatalf("worst order %s does not rank below the best %s", w, b)
	}
}

func TestForcedOrderValidation(t *testing.T) {
	cat := laCatalog(t)
	p := planFor(t, cat, smmSQL)
	if _, err := Choose(p, Options{Forced: []string{"nope", "x", "y"}}); err == nil {
		t.Error("bad forced order should error")
	}
	if _, err := Choose(p, Options{Forced: []string{"dim"}}); err == nil {
		t.Error("short forced order should error")
	}
}

func TestICostOf(t *testing.T) {
	cases := []struct {
		layouts []int
		want    int
	}{
		{nil, 0},
		{[]int{0}, 0},
		{[]int{0, 0}, 1},
		{[]int{0, 1}, 10},
		{[]int{1, 1}, 50},
		{[]int{0, 0, 1}, 11},  // Example 5.1's nationkey: bs∩bs then ∩uint
		{[]int{1, 1, 1}, 100}, // uint∩uint → uint, ∩uint again
		{[]int{0, 1, 1}, 60},  // bs∩uint → uint, ∩uint
	}
	for _, c := range cases {
		if got := icostOf(append([]int(nil), c.layouts...)); got != c.want {
			t.Errorf("icostOf(%v) = %d, want %d", c.layouts, got, c.want)
		}
	}
}

// scoreCatalog holds two joinable relations at the paper's relative
// cardinalities (lineitem : orders ≈ 100 : 26).
func scoreCatalog(t *testing.T) (*storage.Catalog, *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog()
	li, _ := cat.Create(storage.Schema{Name: "li", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "ka"},
		{Name: "b", Kind: storage.Int64, Role: storage.Key, Domain: "kb"},
	}})
	or, _ := cat.Create(storage.Schema{Name: "or_t", Cols: []storage.ColumnDef{
		{Name: "b2", Kind: storage.Int64, Role: storage.Key, Domain: "kb"},
		{Name: "c", Kind: storage.Int64, Role: storage.Key, Domain: "kc"},
	}})
	for i := int64(0); i < 400; i++ {
		_ = li.Append(i%20, i%40)
	}
	for i := int64(0); i < 103; i++ {
		_ = or.Append(i%40, i%10)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat, or
}

const scoreSQL = `SELECT a, sum(1) as s FROM li, or_t WHERE li.b = or_t.b2 GROUP BY a`

func TestScoresExample53(t *testing.T) {
	// Verify the §V-B score formula on the paper's relative cardinalities
	// (lineitem : orders : customer : supplier ≈ 100 : 26 : 3 : 1).
	cat, _ := scoreCatalog(t)
	p := planFor(t, cat, scoreSQL)
	in := newInput(p, Options{})
	liIdx, orIdx := p.RelIndex("li"), p.RelIndex("or_t")
	if s := in.rels[liIdx].score; s != 100 {
		t.Errorf("lineitem score = %d, want 100", s)
	}
	if s := in.rels[orIdx].score; s != 26 { // ceil(103/400*100) = 26
		t.Errorf("orders score = %d, want 26", s)
	}
}

// TestChooseMemo: a fresh plan of the same text gets the memoised Choice
// itself; each input the search reads — a relation's score, selection
// flag or density, and every option — is in the key, so changing one
// searches again.
func TestChooseMemo(t *testing.T) {
	cat, or := scoreCatalog(t)
	mustChoose := func(p *planner.Plan, opts Options) *Choice {
		t.Helper()
		ch, err := Choose(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	base := mustChoose(planFor(t, cat, scoreSQL), Options{})
	if hit := mustChoose(planFor(t, cat, scoreSQL), Options{}); hit != base {
		t.Fatal("an identical plan missed the memo")
	}
	root := base.Orders[planFor(t, cat, scoreSQL).GHD.Root].Attrs
	reversed := make([]string, len(root))
	for i, v := range root {
		reversed[len(root)-1-i] = v
	}
	for name, opts := range map[string]Options{
		"Disabled":  {Disabled: true},
		"PickWorst": {PickWorst: true},
		"Forced":    {Forced: reversed},
	} {
		if mustChoose(planFor(t, cat, scoreSQL), opts) == base {
			t.Errorf("option %s hit the memo", name)
		}
	}
	sel := planFor(t, cat, scoreSQL)
	sel.Rels[0].HasEqualitySelection = true
	if mustChoose(sel, Options{}) == base {
		t.Error("a selection flag change hit the memo")
	}

	// Density: a filter on a completely dense relation clears its flag.
	la := laCatalog(t)
	const denseSQL = `SELECT d1.i, d2.j, sum(d1.v * d2.v) as v FROM d as d1, d as d2 WHERE d1.j = d2.i GROUP BY d1.i, d2.j`
	dense := mustChoose(planFor(t, la, denseSQL), Options{})
	filtered := planFor(t, la, denseSQL)
	filtered.Rels[0].Filter = sqlparse.NumberLit{Val: 1}
	if in := newInput(filtered, Options{}); in.rels[0].dense || in.rels[0].selected {
		t.Fatalf("filtered relation input = %+v, want only density cleared", in.rels[0])
	}
	if mustChoose(filtered, Options{}) == dense {
		t.Error("a density change hit the memo")
	}

	// Score: appends published by a snapshot move or_t from 26 to 51.
	for i := int64(0); i < 100; i++ {
		if err := or.Append(i%40, i%10); err != nil {
			t.Fatal(err)
		}
	}
	cat.Snapshot()
	if mustChoose(planFor(t, cat, scoreSQL), Options{}) == base {
		t.Error("a score change hit the memo")
	}
}

// TestMemoKeyQuantized: the binding estimate's statistics enter the
// memo key as power-of-two steps, so appends that stay within a step
// keep the key — and the memo hit — while crossing one searches again.
func TestMemoKeyQuantized(t *testing.T) {
	cat := storage.NewCatalog()
	li, _ := cat.Create(storage.Schema{Name: "li", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "ka"},
		{Name: "b", Kind: storage.Int64, Role: storage.Key, Domain: "kb"},
	}})
	or, _ := cat.Create(storage.Schema{Name: "or_t", Cols: []storage.ColumnDef{
		{Name: "b2", Kind: storage.Int64, Role: storage.Key, Domain: "kb"},
		{Name: "c", Kind: storage.Int64, Role: storage.Key, Domain: "kc"},
	}})
	for i := int64(0); i < 400; i++ {
		_ = li.Append(i%20, i%40)
	}
	for i := int64(0); i < 177; i++ {
		_ = or.Append(i%40, i%10)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	// appendOr publishes or_t rows [from, to) with existing key values,
	// so only its row count moves.
	appendOr := func(from, to int64) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := or.Append(i%40, i%10); err != nil {
				t.Fatal(err)
			}
		}
		cat.Snapshot()
	}
	state := func() (memoKey, *Choice, relInput) {
		t.Helper()
		p := planFor(t, cat, scoreSQL)
		ch, err := Choose(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		in := newInput(p, Options{})
		return in.key(), ch, in.rels[p.RelIndex("or_t")]
	}

	// 177 → 178 rows: 2^7 either way, and the score stays 45.
	k0, ch0, r0 := state()
	appendOr(177, 178)
	k1, ch1, r1 := state()
	if r0.rows != 7 || r1.rows != 7 || r0.score != r1.score {
		t.Fatalf("or_t inputs %+v → %+v, want rows 2^7 and one score", r0, r1)
	}
	if k1 != k0 || ch1 != ch0 {
		t.Error("an append within one quantization step changed the key")
	}

	// 181 → 182 rows crosses 2^7.5 (rows 2^7 → 2^8); the score stays 46.
	appendOr(178, 181)
	k2, ch2, r2 := state()
	appendOr(181, 182)
	k3, ch3, r3 := state()
	if r2.rows != 7 || r3.rows != 8 || r2.score != r3.score {
		t.Fatalf("or_t inputs %+v → %+v, want rows 2^7 → 2^8 and one score", r2, r3)
	}
	if k3 == k2 || ch3 == ch2 {
		t.Error("an append across a quantization step kept the key")
	}
}

func TestHighestCardinalityFirst(t *testing.T) {
	// Observation 5.2 on a Q5-like two-relation join: the heavy shared
	// vertex should come first in the chosen order.
	cat := storage.NewCatalog()
	li, _ := cat.Create(storage.Schema{Name: "li", Cols: []storage.ColumnDef{
		{Name: "ok", Kind: storage.Int64, Role: storage.Key, Domain: "orderkey"},
		{Name: "sk", Kind: storage.Int64, Role: storage.Key, Domain: "suppkey"},
		{Name: "p", Kind: storage.Float64, Role: storage.Annotation},
	}})
	su, _ := cat.Create(storage.Schema{Name: "su", Cols: []storage.ColumnDef{
		{Name: "sk2", Kind: storage.Int64, Role: storage.Key, Domain: "suppkey", PK: true},
		{Name: "nk", Kind: storage.Int64, Role: storage.Key, Domain: "nationkey"},
	}})
	or, _ := cat.Create(storage.Schema{Name: "ord", Cols: []storage.ColumnDef{
		{Name: "ok2", Kind: storage.Int64, Role: storage.Key, Domain: "orderkey", PK: true},
		{Name: "ck", Kind: storage.Int64, Role: storage.Key, Domain: "custkey"},
	}})
	for i := int64(0); i < 1000; i++ {
		_ = li.Append(i%250, i%10, 1.0)
	}
	for i := int64(0); i < 10; i++ {
		_ = su.Append(i, i%3)
	}
	for i := int64(0); i < 250; i++ {
		_ = or.Append(i, i%50)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	p := planFor(t, cat, `SELECT ck, sum(p) as s FROM li, su, ord
		WHERE li.sk = su.sk2 AND li.ok = ord.ok2 GROUP BY ck`)
	ch, err := Choose(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := ch.Orders[p.GHD.Root]
	// Among projected attributes, orderkey (weight 25) must precede
	// suppkey and nationkey (weight 1).
	posOf := func(v string) int {
		for i, a := range o.Attrs {
			if a == v {
				return i
			}
		}
		return -1
	}
	if posOf("orderkey") > posOf("suppkey") {
		t.Fatalf("orderkey should precede suppkey in %v (weights %v)", o.Attrs, o.Per)
	}
}

func TestRelaxedValid(t *testing.T) {
	mat := map[string]bool{"i": true, "j": true}
	ok := &Order{Attrs: []string{"i", "k", "j"}, MatSet: mat}
	if !RelaxedValid(ok) {
		t.Error("[i,k,j] with mat {i,j} should be a valid relaxed shape")
	}
	bad := &Order{Attrs: []string{"i", "j", "k"}, MatSet: mat}
	if RelaxedValid(bad) {
		t.Error("[i,j,k] ends with a projected attribute: not relaxed-valid")
	}
	short := &Order{Attrs: []string{"i"}, MatSet: mat}
	if RelaxedValid(short) {
		t.Error("single attribute cannot be relaxed")
	}
}

// TestSelectivityClasses pins the literal-free Selinger defaults the
// row estimate multiplies in, one conjunct class at a time.
func TestSelectivityClasses(t *testing.T) {
	cat, _ := scoreCatalog(t)
	li := cat.Table("li") // key column a holds 20 distinct values
	col := func(n string) sqlparse.Expr { return sqlparse.ColRef{Name: n} }
	lit := sqlparse.NumberLit{Val: 3, IsInt: true}
	eqA := sqlparse.BinaryExpr{Op: "=", L: col("a"), R: lit}
	cases := []struct {
		name string
		e    sqlparse.Expr
		want float64
	}{
		{"none", nil, 1},
		{"= on a dictionary column", eqA, 1.0 / 20},
		{"= between columns", sqlparse.BinaryExpr{Op: "=", L: col("a"), R: col("b")}, 1.0 / 10},
		{"range", sqlparse.BinaryExpr{Op: "<", L: col("a"), R: lit}, 1.0 / 3},
		{"between", sqlparse.BetweenExpr{X: col("a"), Lo: lit, Hi: lit}, 1.0 / 4},
		{"like", sqlparse.LikeExpr{X: col("a"), Pattern: "%x%"}, 1.0 / 10},
		{"in", sqlparse.InExpr{X: col("a"), Vals: []sqlparse.Expr{lit, lit}}, 2.0 / 20},
		{"and", sqlparse.BinaryExpr{Op: "and", L: eqA, R: sqlparse.LikeExpr{X: col("a"), Pattern: "%x%"}}, 1.0 / 200},
		{"or", sqlparse.BinaryExpr{Op: "or", L: eqA, R: eqA}, 2.0 / 20},
		{"not like", sqlparse.LikeExpr{X: col("a"), Pattern: "%x%", Negate: true}, 9.0 / 10},
		{"or capped", sqlparse.BinaryExpr{Op: "or", L: sqlparse.LikeExpr{X: col("a"), Pattern: "%x%", Negate: true},
			R: sqlparse.BinaryExpr{Op: ">", L: col("a"), R: lit}}, 1},
	}
	for _, c := range cases {
		if got := selectivity(c.e, li); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: selectivity %g, want %g", c.name, got, c.want)
		}
	}
}

func TestBetterTieBreakPrefersHeavyFirst(t *testing.T) {
	a := &Order{Cost: 100, Per: []VertexCost{{Vertex: "x", Weight: 50}, {Vertex: "y", Weight: 1}}}
	b := &Order{Cost: 100, Per: []VertexCost{{Vertex: "y", Weight: 1}, {Vertex: "x", Weight: 50}}}
	if !better(a, b) {
		t.Error("equal cost: the heavier-first order should win (Observation 5.2)")
	}
	if better(b, a) {
		t.Error("tie-break should be asymmetric")
	}
	c := &Order{Cost: 99, Per: b.Per}
	if !better(c, a) {
		t.Error("lower cost always wins")
	}
}
