package planner

import (
	"strings"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// miniCatalog builds a TPC-H-shaped catalog with a few rows per table.
func miniCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(s storage.Schema) *storage.Table {
		tab, err := cat.Create(s)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	region := mk(storage.Schema{Name: "region", Cols: []storage.ColumnDef{
		{Name: "r_regionkey", Kind: storage.Int64, Role: storage.Key, Domain: "regionkey", PK: true},
		{Name: "r_name", Kind: storage.String, Role: storage.Annotation},
	}})
	nation := mk(storage.Schema{Name: "nation", Cols: []storage.ColumnDef{
		{Name: "n_nationkey", Kind: storage.Int64, Role: storage.Key, Domain: "nationkey", PK: true},
		{Name: "n_regionkey", Kind: storage.Int64, Role: storage.Key, Domain: "regionkey"},
		{Name: "n_name", Kind: storage.String, Role: storage.Annotation},
	}})
	customer := mk(storage.Schema{Name: "customer", Cols: []storage.ColumnDef{
		{Name: "c_custkey", Kind: storage.Int64, Role: storage.Key, Domain: "custkey", PK: true},
		{Name: "c_nationkey", Kind: storage.Int64, Role: storage.Key, Domain: "nationkey"},
		{Name: "c_mktsegment", Kind: storage.String, Role: storage.Annotation},
	}})
	orders := mk(storage.Schema{Name: "orders", Cols: []storage.ColumnDef{
		{Name: "o_orderkey", Kind: storage.Int64, Role: storage.Key, Domain: "orderkey", PK: true},
		{Name: "o_custkey", Kind: storage.Int64, Role: storage.Key, Domain: "custkey"},
		{Name: "o_orderdate", Kind: storage.Date, Role: storage.Annotation},
	}})
	lineitem := mk(storage.Schema{Name: "lineitem", Cols: []storage.ColumnDef{
		{Name: "l_orderkey", Kind: storage.Int64, Role: storage.Key, Domain: "orderkey"},
		{Name: "l_suppkey", Kind: storage.Int64, Role: storage.Key, Domain: "suppkey"},
		{Name: "l_extendedprice", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "l_discount", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "l_returnflag", Kind: storage.String, Role: storage.Annotation},
		{Name: "l_linestatus", Kind: storage.String, Role: storage.Annotation},
		{Name: "l_quantity", Kind: storage.Float64, Role: storage.Annotation},
	}})
	supplier := mk(storage.Schema{Name: "supplier", Cols: []storage.ColumnDef{
		{Name: "s_suppkey", Kind: storage.Int64, Role: storage.Key, Domain: "suppkey", PK: true},
		{Name: "s_nationkey", Kind: storage.Int64, Role: storage.Key, Domain: "nationkey"},
	}})
	matrix := mk(storage.Schema{Name: "matrix", Cols: []storage.ColumnDef{
		{Name: "i", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "j", Kind: storage.Int64, Role: storage.Key, Domain: "dim"},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})

	_ = region.Append(int64(0), "ASIA")
	_ = region.Append(int64(1), "AMERICA")
	_ = nation.Append(int64(0), int64(0), "JAPAN")
	_ = nation.Append(int64(1), int64(1), "BRAZIL")
	_ = customer.Append(int64(1), int64(0), "BUILDING")
	_ = orders.Append(int64(10), int64(1), "1994-05-01")
	_ = lineitem.Append(int64(10), int64(7), 100.0, 0.1, "R", "F", 10.0)
	_ = supplier.Append(int64(7), int64(0))
	_ = matrix.Append(int64(0), int64(1), 0.5)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func buildPlan(t *testing.T, cat *storage.Catalog, sql string) *Plan {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, cat)
	if err != nil {
		t.Fatalf("Build(%s): %v", sql, err)
	}
	return p
}

const q5SQL = `SELECT n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
	FROM customer, orders, lineitem, supplier, nation, region
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
	AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
	AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	AND r_name = 'ASIA' AND o_orderdate >= date '1994-01-01'
	AND o_orderdate < date '1995-01-01'
	GROUP BY n_name`

func TestQ5Plan(t *testing.T) {
	cat := miniCatalog(t)
	p := buildPlan(t, cat, q5SQL)
	// Rule 1: five vertices.
	if len(p.HG.Vertices) != 5 {
		t.Fatalf("vertices = %v", p.HG.Vertices)
	}
	// Attribute elimination: lineitem covers only orderkey and suppkey.
	li := p.RelIndex("lineitem")
	if li < 0 {
		t.Fatal("lineitem missing")
	}
	if len(p.Rels[li].Vertices) != 2 {
		t.Fatalf("lineitem vertices = %v", p.Rels[li].Vertices)
	}
	// Rule 3: the SUM expression annotates lineitem only.
	if len(p.Aggs) != 1 || len(p.Aggs[0].Leaves) != 1 || p.Aggs[0].Leaves[0].Rel != li {
		t.Fatalf("aggs = %+v", p.Aggs)
	}
	// Rule 4: n_name resolves through metadata on nationkey.
	if len(p.Groups) != 1 || p.Groups[0].Kind != GroupMeta || p.Groups[0].Vertex != "nationkey" || !p.Groups[0].String {
		t.Fatalf("groups = %+v", p.Groups)
	}
	// Filters: region has the equality selection; orders has the range.
	ri := p.RelIndex("region")
	if !p.Rels[ri].HasEqualitySelection || p.Rels[ri].Filter == nil {
		t.Fatalf("region selection not captured: %+v", p.Rels[ri])
	}
	oi := p.RelIndex("orders")
	if p.Rels[oi].Filter == nil || p.Rels[oi].HasEqualitySelection {
		t.Fatalf("orders filter wrong: %+v", p.Rels[oi])
	}
	// GHD: the paper's 2-node plan with the region-nation node as leaf.
	if p.GHD.NumNodes != 2 {
		t.Fatalf("Q5 GHD nodes = %d:\n%s", p.GHD.NumNodes, p.GHD)
	}
	// Root holds the output vertex.
	found := false
	for _, v := range p.GHD.Root.Bag {
		if v == "nationkey" {
			found = true
		}
	}
	if !found {
		t.Fatalf("root bag %v lacks nationkey", p.GHD.Root.Bag)
	}
}

func TestQ1StylePseudoVertices(t *testing.T) {
	cat := miniCatalog(t)
	p := buildPlan(t, cat, `SELECT l_returnflag, l_linestatus, sum(l_quantity) as s, count(*) as c, avg(l_quantity) as a
		FROM lineitem GROUP BY l_returnflag, l_linestatus`)
	li := p.RelIndex("lineitem")
	if len(p.Rels[li].PseudoVertices) != 2 {
		t.Fatalf("pseudo vertices = %v", p.Rels[li].PseudoVertices)
	}
	if p.Groups[0].Kind != GroupPseudo || !p.Groups[0].String {
		t.Fatalf("group 0 = %+v", p.Groups[0])
	}
	// sum, count, avg_sum, avg_count.
	if len(p.Aggs) != 4 {
		t.Fatalf("aggs = %+v", p.Aggs)
	}
	if p.Aggs[1].Kind != AggCount {
		t.Fatalf("agg 1 = %+v", p.Aggs[1])
	}
	// avg output is a division skeleton.
	last := p.Outputs[len(p.Outputs)-1]
	if last.Kind != OutAggExpr || last.Expr.Op != EmitDiv {
		t.Fatalf("avg output = %+v", last)
	}
	if p.GHD == nil || p.GHD.NumNodes != 1 {
		t.Fatalf("single-relation group-by should be a 1-node GHD")
	}
}

func TestScalarScanPath(t *testing.T) {
	cat := miniCatalog(t)
	p := buildPlan(t, cat, `SELECT sum(l_extendedprice * l_discount) as revenue
		FROM lineitem WHERE l_quantity < 24`)
	if !p.ScalarScan {
		t.Fatal("Q6 shape should take the scalar-scan path")
	}
	if p.GHD != nil {
		t.Fatal("scalar scan needs no GHD")
	}
}

func TestMatMulSelfJoin(t *testing.T) {
	cat := miniCatalog(t)
	p := buildPlan(t, cat, `SELECT m1.i, m2.j, sum(m1.v * m2.v) as v
		FROM matrix as m1, matrix as m2 WHERE m1.j = m2.i GROUP BY m1.i, m2.j`)
	if len(p.Rels) != 2 {
		t.Fatalf("rels = %d", len(p.Rels))
	}
	// Three vertices: m1.i, shared m1.j=m2.i, m2.j.
	if len(p.HG.Vertices) != 3 {
		t.Fatalf("vertices = %v", p.HG.Vertices)
	}
	// Two group items are key vertices.
	if p.Groups[0].Kind != GroupVertex || p.Groups[1].Kind != GroupVertex {
		t.Fatalf("groups = %+v", p.Groups)
	}
	if p.Groups[0].Vertex == p.Groups[1].Vertex {
		t.Fatal("output vertices must be distinct")
	}
	// Aggregate decomposes into two leaves multiplied.
	if len(p.Aggs[0].Leaves) != 2 || p.Aggs[0].Skeleton.Op != EmitMul {
		t.Fatalf("agg = %+v", p.Aggs[0])
	}
	if p.GHD.NumNodes != 1 {
		t.Fatalf("matmul should compress to one node:\n%s", p.GHD)
	}
}

func TestCaseDecomposition(t *testing.T) {
	cat := miniCatalog(t)
	p := buildPlan(t, cat, `SELECT sum(case when n_name = 'BRAZIL' then l_extendedprice * (1 - l_discount) else 0 end) as num,
		sum(l_extendedprice * (1 - l_discount)) as den
		FROM lineitem, supplier, nation
		WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey
		GROUP BY n_name`)
	// First aggregate: indicator(nation) × value(lineitem), using the
	// short-circuiting indicator product (0·NaN must stay 0).
	a := p.Aggs[0]
	if len(a.Leaves) != 2 || a.Skeleton.Op != EmitMulInd {
		t.Fatalf("case agg = %+v", a)
	}
	relNames := map[int]string{}
	for i := range p.Rels {
		relNames[i] = p.Rels[i].Alias
	}
	leafRels := map[string]bool{}
	for _, l := range a.Leaves {
		leafRels[relNames[l.Rel]] = true
	}
	if !leafRels["nation"] || !leafRels["lineitem"] {
		t.Fatalf("leaf relations = %v", leafRels)
	}
}

func TestMultiLeafLinearDecomposition(t *testing.T) {
	cat := miniCatalog(t)
	// Q9-shaped: f(lineitem) - g(supplier-ish)·h(lineitem). Use matrix for
	// a second annotated relation joined via suppkey-like domain — here we
	// reuse lineitem × supplier with a made-up arithmetic over one
	// annotation each.
	p := buildPlan(t, cat, `SELECT n_name, sum(l_extendedprice * (1 - l_discount) - l_quantity * 2) as profit
		FROM lineitem, supplier, nation
		WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey
		GROUP BY n_name`)
	// Whole expression references only lineitem → single leaf.
	if len(p.Aggs[0].Leaves) != 1 {
		t.Fatalf("leaves = %+v", p.Aggs[0].Leaves)
	}
}

func TestErrors(t *testing.T) {
	cat := miniCatalog(t)
	cases := []struct {
		sql  string
		frag string
	}{
		{"SELECT x FROM nosuch", "unknown table"},
		{"SELECT n_name FROM nation, nation", "duplicate alias"},
		{"SELECT zzz FROM nation", "unknown column"},
		{"SELECT sum(n_nationkey) FROM nation, region WHERE n_regionkey = r_regionkey", "cannot be aggregated"},
		{"SELECT sum(l_quantity) FROM lineitem, orders WHERE l_extendedprice = o_orderdate", "non-key"},
		{"SELECT sum(l_quantity) FROM lineitem, orders WHERE l_orderkey = o_custkey", "across domains"},
		{"SELECT sum(l_quantity) FROM lineitem, orders WHERE l_quantity > o_orderdate", "cross-relation"},
		{"SELECT sum(l_quantity) FROM lineitem, nation WHERE l_orderkey = 1", "joins nothing"},
		{"SELECT l_quantity FROM lineitem", "neither grouped nor aggregated"},
		{"SELECT median(l_quantity) FROM lineitem", "unknown aggregate"},
	}
	for _, c := range cases {
		q, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		_, err = Build(q, cat)
		if err == nil {
			t.Errorf("Build(%q) should fail", c.sql)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Build(%q) error = %q, want fragment %q", c.sql, err, c.frag)
		}
	}
}

func TestGroupByAliasExpansion(t *testing.T) {
	cat := miniCatalog(t)
	p := buildPlan(t, cat, `SELECT extract(year from o_orderdate) as o_year, sum(l_extendedprice) as s
		FROM orders, lineitem WHERE o_orderkey = l_orderkey GROUP BY o_year`)
	if len(p.Groups) != 1 || p.Groups[0].Kind != GroupMeta {
		t.Fatalf("groups = %+v", p.Groups)
	}
	if p.Groups[0].Vertex != "orderkey" {
		t.Fatalf("meta vertex = %s", p.Groups[0].Vertex)
	}
	if p.Outputs[0].Kind != OutGroup {
		t.Fatalf("output 0 = %+v", p.Outputs[0])
	}
}

func TestCountStarMultiRelation(t *testing.T) {
	cat := miniCatalog(t)
	p := buildPlan(t, cat, `SELECT n_name, count(*) as c FROM supplier, nation
		WHERE s_nationkey = n_nationkey GROUP BY n_name`)
	if p.Aggs[0].Kind != AggCount || p.Aggs[0].Skeleton != nil {
		t.Fatalf("count agg = %+v", p.Aggs[0])
	}
}

func TestSelfJoinSameDomainDistinctVertices(t *testing.T) {
	cat := miniCatalog(t)
	// Two nation occurrences joined to different vertices of the same
	// domain must get distinct vertex names.
	p := buildPlan(t, cat, `SELECT count(*) as c FROM customer, nation as n1, supplier, nation as n2
		WHERE c_nationkey = n1.n_nationkey AND s_nationkey = n2.n_nationkey AND c_custkey = c_custkey`)
	_ = p
	names := map[string]bool{}
	for _, v := range p.HG.Vertices {
		if names[v] {
			t.Fatalf("duplicate vertex name %q in %v", v, p.HG.Vertices)
		}
		names[v] = true
	}
}
