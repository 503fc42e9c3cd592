package exec

import (
	"strings"
	"testing"

	"repro/internal/costopt"
	"repro/internal/storage"
)

// edgeCatalog builds two tiny joinable tables for edge-case probing.
func edgeCatalog(t *testing.T, factRows [][3]interface{}, dimRows [][2]interface{}) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	fact, err := cat.Create(storage.Schema{Name: "fact", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	dim, err := cat.Create(storage.Schema{Name: "dim", Cols: []storage.ColumnDef{
		{Name: "a1", Kind: storage.Int64, Role: storage.Key, Domain: "da", PK: true},
		{Name: "w", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range factRows {
		if err := fact.Append(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range dimRows {
		if err := dim.Append(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestEmptyJoinResult(t *testing.T) {
	// Keys never match: the join is empty.
	cat := edgeCatalog(t,
		[][3]interface{}{{int64(1), 1.0, "x"}, {int64(2), 2.0, "y"}},
		[][2]interface{}{{int64(99), 5.0}})
	res, err := runErr(cat, `SELECT a, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY a`,
		Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 0 {
		t.Fatalf("empty join produced %d rows", res.NumRows)
	}
	// Grand aggregate over an empty join yields one zero row.
	res, err = runErr(cat, `SELECT sum(x) as s, count(*) as c FROM fact, dim WHERE fact.a = dim.a1`,
		Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 1 || res.Col("s").F64[0] != 0 || res.Col("c").F64[0] != 0 {
		t.Fatalf("empty grand aggregate = %+v", res.Cols)
	}
}

func TestFilterSelectsNothing(t *testing.T) {
	cat := edgeCatalog(t,
		[][3]interface{}{{int64(1), 1.0, "x"}},
		[][2]interface{}{{int64(1), 5.0}})
	res, err := runErr(cat, `SELECT a, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1 AND x > 100 GROUP BY a`,
		Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 0 {
		t.Fatalf("impossible filter produced %d rows", res.NumRows)
	}
}

func TestSingleRowTables(t *testing.T) {
	cat := edgeCatalog(t,
		[][3]interface{}{{int64(7), 3.5, "only"}},
		[][2]interface{}{{int64(7), 2.0}})
	res, err := runErr(cat, `SELECT a, sum(x * w) as v, count(*) as c FROM fact, dim WHERE fact.a = dim.a1 GROUP BY a`,
		Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 1 || res.Col("v").F64[0] != 7 || res.Col("c").F64[0] != 1 {
		t.Fatalf("single row join = %+v", res.Cols)
	}
	if res.Col("a").I64[0] != 7 {
		t.Fatalf("key = %d", res.Col("a").I64[0])
	}
}

func TestManyThreadsFewRows(t *testing.T) {
	cat := edgeCatalog(t,
		[][3]interface{}{{int64(1), 1.0, "x"}, {int64(2), 2.0, "y"}},
		[][2]interface{}{{int64(1), 1.0}, {int64(2), 1.0}})
	res, err := runErr(cat, `SELECT a, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1 GROUP BY a`,
		Options{Threads: 64}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 2 {
		t.Fatalf("rows = %d", res.NumRows)
	}
}

func TestAllRowsDuplicateKeys(t *testing.T) {
	// Every fact row shares one key: pre-aggregation collapses to one
	// tuple and multiplicities must still give the right count.
	cat := edgeCatalog(t,
		[][3]interface{}{{int64(5), 1.0, "a"}, {int64(5), 2.0, "b"}, {int64(5), 4.0, "c"}},
		[][2]interface{}{{int64(5), 10.0}})
	res, err := runErr(cat, `SELECT a, sum(x) as s, count(*) as c, min(x) as mn, max(x) as mx
		FROM fact, dim WHERE fact.a = dim.a1 GROUP BY a`, Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Col("s").F64[0] != 7 || res.Col("c").F64[0] != 3 ||
		res.Col("mn").F64[0] != 1 || res.Col("mx").F64[0] != 4 {
		t.Fatalf("dup-key aggregates = s%v c%v mn%v mx%v",
			res.Col("s").F64[0], res.Col("c").F64[0], res.Col("mn").F64[0], res.Col("mx").F64[0])
	}
}

func TestDimDuplicatesMultiplyCount(t *testing.T) {
	// dim has two rows with the same key: every matching fact row joins
	// twice.
	cat := storage.NewCatalog()
	fact, _ := cat.Create(storage.Schema{Name: "fact", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	dim, _ := cat.Create(storage.Schema{Name: "dim", Cols: []storage.ColumnDef{
		{Name: "a1", Kind: storage.Int64, Role: storage.Key, Domain: "da"},
		{Name: "w", Kind: storage.Float64, Role: storage.Annotation},
	}})
	_ = fact.Append(int64(1), 3.0)
	_ = dim.Append(int64(1), 5.0)
	_ = dim.Append(int64(1), 7.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	res, err := runErr(cat, `SELECT count(*) as c, sum(x) as sx, sum(x * w) as sxw
		FROM fact, dim WHERE fact.a = dim.a1`, Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Join result: (3,5) and (3,7) → count 2, sum(x) 6, sum(x*w) 36.
	if res.Col("c").F64[0] != 2 || res.Col("sx").F64[0] != 6 || res.Col("sxw").F64[0] != 36 {
		t.Fatalf("got c=%v sx=%v sxw=%v", res.Col("c").F64[0], res.Col("sx").F64[0], res.Col("sxw").F64[0])
	}
}

func TestUnfrozenCatalogRejected(t *testing.T) {
	cat := storage.NewCatalog()
	_, _ = cat.Create(storage.Schema{Name: "t", Cols: []storage.ColumnDef{
		{Name: "a", Kind: storage.Int64, Role: storage.Key},
	}})
	_, err := runErr(cat, "SELECT count(*) as c FROM t", Options{}, costopt.Options{})
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("unfrozen catalog error = %v", err)
	}
}

func TestGroupOnStringKeyColumn(t *testing.T) {
	// String-typed key columns decode through the domain dictionary.
	cat := storage.NewCatalog()
	tab, err := cat.Create(storage.Schema{Name: "ev", Cols: []storage.ColumnDef{
		{Name: "name", Kind: storage.String, Role: storage.Key, Domain: "names"},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	_ = tab.Append("beta", 1.0)
	_ = tab.Append("alpha", 2.0)
	_ = tab.Append("beta", 4.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	res, err := runErr(cat, "SELECT name, sum(x) as s FROM ev GROUP BY name", Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for i := 0; i < res.NumRows; i++ {
		got[res.Col("name").Str[i]] = res.Col("s").F64[i]
	}
	if got["alpha"] != 2 || got["beta"] != 5 {
		t.Fatalf("string key groups = %v", got)
	}
}

func TestTriangleQueryCyclic(t *testing.T) {
	// A 3-cycle self-join (FHW 3/2) — the WCOJ specialty — on a graph
	// with exactly two triangles.
	cat := storage.NewCatalog()
	tab, _ := cat.Create(storage.Schema{Name: "edges", Cols: []storage.ColumnDef{
		{Name: "src", Kind: storage.Int64, Role: storage.Key, Domain: "node"},
		{Name: "dst", Kind: storage.Int64, Role: storage.Key, Domain: "node"},
	}})
	edges := [][2]int64{
		{0, 1}, {1, 2}, {0, 2}, // triangle 1
		{3, 4}, {4, 5}, {3, 5}, // triangle 2
		{0, 3}, {5, 0}, // noise
	}
	for _, e := range edges {
		_ = tab.Append(e[0], e[1])
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	res, err := runErr(cat, `SELECT count(*) as c FROM edges e1, edges e2, edges e3
		WHERE e1.dst = e2.src AND e3.src = e1.src AND e3.dst = e2.dst`,
		Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Col("c").F64[0] != 2 {
		t.Fatalf("triangles = %v, want 2", res.Col("c").F64[0])
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	cat := edgeCatalog(t,
		[][3]interface{}{
			{int64(1), 1.0, "x"}, {int64(1), 2.0, "x"},
			{int64(2), 10.0, "y"}, {int64(3), 4.0, "z"},
		},
		[][2]interface{}{{int64(1), 1.0}, {int64(2), 1.0}, {int64(3), 1.0}})
	res, err := runErr(cat, `SELECT a, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1
		GROUP BY a HAVING sum(x) > 3`, Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Groups: a=1 sum 3 (dropped), a=2 sum 10, a=3 sum 4.
	if res.NumRows != 2 {
		t.Fatalf("having kept %d groups, want 2", res.NumRows)
	}
	for i := 0; i < res.NumRows; i++ {
		if res.Col("s").F64[i] <= 3 {
			t.Fatalf("group %d survived with sum %v", res.Col("a").I64[i], res.Col("s").F64[i])
		}
	}
}

func TestHavingWithCountAndLogic(t *testing.T) {
	cat := edgeCatalog(t,
		[][3]interface{}{
			{int64(1), 1.0, "x"}, {int64(1), 2.0, "x"}, {int64(1), 3.0, "x"},
			{int64(2), 100.0, "y"},
		},
		[][2]interface{}{{int64(1), 1.0}, {int64(2), 1.0}})
	res, err := runErr(cat, `SELECT a, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1
		GROUP BY a HAVING count(*) >= 3 AND sum(x) < 50`, Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 1 || res.Col("a").I64[0] != 1 {
		t.Fatalf("having logic kept %d rows", res.NumRows)
	}
	// An aggregate appearing only in HAVING must still work.
	res, err = runErr(cat, `SELECT a, count(*) as c FROM fact, dim WHERE fact.a = dim.a1
		GROUP BY a HAVING avg(x) > 50`, Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 1 || res.Col("a").I64[0] != 2 {
		t.Fatalf("having-only aggregate kept %d rows", res.NumRows)
	}
}

func TestHavingOnScalarScan(t *testing.T) {
	cat := edgeCatalog(t,
		[][3]interface{}{{int64(1), 1.0, "x"}},
		[][2]interface{}{{int64(1), 1.0}})
	res, err := runErr(cat, `SELECT sum(x) as s FROM fact HAVING sum(x) > 100`,
		Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 0 {
		t.Fatalf("scalar having kept %d rows", res.NumRows)
	}
	res, err = runErr(cat, `SELECT sum(x) as s FROM fact HAVING sum(x) > 0.5`,
		Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 1 {
		t.Fatalf("scalar having dropped the row")
	}
}

func TestHavingOnHashEmitPath(t *testing.T) {
	// dim's w is a metadata group (PK path) → hash-emit mode + HAVING.
	cat := edgeCatalog(t,
		[][3]interface{}{
			{int64(1), 1.0, "x"}, {int64(2), 5.0, "y"}, {int64(3), 7.0, "z"},
		},
		[][2]interface{}{{int64(1), 10.0}, {int64(2), 10.0}, {int64(3), 20.0}})
	res, err := runErr(cat, `SELECT w, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1
		GROUP BY w HAVING sum(x) > 5`, Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Groups: w=10 sum 6, w=20 sum 7 → both kept; HAVING > 6 keeps one.
	if res.NumRows != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows)
	}
	res, err = runErr(cat, `SELECT w, sum(x) as s FROM fact, dim WHERE fact.a = dim.a1
		GROUP BY w HAVING sum(x) > 6`, Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows != 1 || res.Col("w").F64[0] != 20 {
		t.Fatalf("hash-emit having = %d rows", res.NumRows)
	}
}

func TestGroupByDatePseudoVertex(t *testing.T) {
	// A Date annotation grouped on a relation without a PK join vertex
	// becomes a pseudo trie level and decodes back to its date string.
	cat := storage.NewCatalog()
	tab, _ := cat.Create(storage.Schema{Name: "ev", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
		{Name: "day", Kind: storage.Date, Role: storage.Annotation},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	_ = tab.Append(int64(1), "2020-05-01", 1.0)
	_ = tab.Append(int64(2), "2020-05-01", 2.0)
	_ = tab.Append(int64(3), "2021-01-15", 4.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	res, err := runErr(cat, "SELECT day, sum(x) as s FROM ev GROUP BY day", Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for i := 0; i < res.NumRows; i++ {
		got[res.Col("day").Str[i]] = res.Col("s").F64[i]
	}
	if got["2020-05-01"] != 3 || got["2021-01-15"] != 4 {
		t.Fatalf("date pseudo groups = %v", got)
	}
}

func TestGroupByNumericPseudoVertex(t *testing.T) {
	cat := storage.NewCatalog()
	tab, _ := cat.Create(storage.Schema{Name: "ev", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
		{Name: "bucket", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
	}})
	_ = tab.Append(int64(1), 0.5, 1.0)
	_ = tab.Append(int64(2), 1.5, 2.0)
	_ = tab.Append(int64(3), 0.5, 4.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	res, err := runErr(cat, "SELECT bucket, sum(x) as s FROM ev GROUP BY bucket", Options{}, costopt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[float64]float64{}
	for i := 0; i < res.NumRows; i++ {
		got[res.Col("bucket").F64[i]] = res.Col("s").F64[i]
	}
	if got[0.5] != 5 || got[1.5] != 2 {
		t.Fatalf("numeric pseudo groups = %v", got)
	}
}
