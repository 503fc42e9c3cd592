package storage

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dict"
)

func matrixSchema() Schema {
	return Schema{
		Name: "matrix",
		Cols: []ColumnDef{
			{Name: "i", Kind: Int64, Role: Key, Domain: "dim"},
			{Name: "j", Kind: Int64, Role: Key, Domain: "dim"},
			{Name: "v", Kind: Float64, Role: Annotation},
		},
	}
}

func ordersSchema() Schema {
	return Schema{
		Name: "orders",
		Cols: []ColumnDef{
			{Name: "o_orderkey", Kind: Int64, Role: Key, Domain: "orderkey"},
			{Name: "o_custkey", Kind: Int64, Role: Key, Domain: "custkey"},
			{Name: "o_orderdate", Kind: Date, Role: Annotation},
			{Name: "o_comment", Kind: String, Role: Annotation},
		},
	}
}

func TestAppendRowAndKinds(t *testing.T) {
	cat := NewCatalog()
	tab, err := cat.Create(ordersSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(int64(1), int64(10), "1994-01-02", "hello"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(2, int64(11), int64(8766), "bye"); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows != 2 {
		t.Fatalf("rows = %d", tab.NumRows)
	}
	if tab.Col("o_orderdate").Ints[0] != 8767 { // 1994-01-02
		t.Fatalf("date = %d", tab.Col("o_orderdate").Ints[0])
	}
	// Type errors.
	if err := tab.Append("x", int64(1), int64(1), "y"); err == nil {
		t.Error("wrong type should error")
	}
	if err := tab.Append(int64(1)); err == nil {
		t.Error("wrong arity should error")
	}
}

func TestCatalogCreateErrors(t *testing.T) {
	cat := NewCatalog()
	if _, err := cat.Create(Schema{}); err == nil {
		t.Error("unnamed table should error")
	}
	if _, err := cat.Create(matrixSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create(matrixSchema()); err == nil {
		t.Error("duplicate table should error")
	}
	if _, err := cat.Create(Schema{Name: "bad", Cols: []ColumnDef{
		{Name: "a", Kind: Int64, Role: Key}, {Name: "a", Kind: Int64, Role: Key},
	}}); err == nil {
		t.Error("duplicate column should error")
	}
	if _, err := cat.Create(Schema{Name: "fk", Cols: []ColumnDef{
		{Name: "f", Kind: Float64, Role: Key},
	}}); err == nil {
		t.Error("float key should error")
	}
}

func TestFreezeSharedDomain(t *testing.T) {
	cat := NewCatalog()
	m, _ := cat.Create(matrixSchema())
	// Keys 5 and 100 appear in different columns of the shared domain.
	if err := m.Append(int64(5), int64(100), 1.0); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(int64(100), int64(5), 2.0); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	ci, cj := m.Col("i"), m.Col("j")
	// Shared domain: the same value encodes identically across columns.
	if ci.KeyCodes()[0] != cj.KeyCodes()[1] {
		t.Fatalf("5 encodes differently: %d vs %d", ci.KeyCodes()[0], cj.KeyCodes()[1])
	}
	if ci.KeyCodes()[1] != cj.KeyCodes()[0] {
		t.Fatalf("100 encodes differently")
	}
	// Order preservation: code(5) < code(100).
	if ci.KeyCodes()[0] >= ci.KeyCodes()[1] {
		t.Fatal("encoding not order-preserving")
	}
	d := cat.Domain("dim")
	if d == nil || d.Len() != 2 {
		t.Fatalf("domain dict = %+v", d)
	}
	if d.DecodeInt(ci.KeyCodes()[0]) != 5 {
		t.Fatal("decode wrong")
	}
}

func TestFreezeAnnotations(t *testing.T) {
	cat := NewCatalog()
	o, _ := cat.Create(ordersSchema())
	if err := o.Append(int64(1), int64(10), "1994-01-01", "beta"); err != nil {
		t.Fatal(err)
	}
	if err := o.Append(int64(2), int64(11), "1995-06-01", "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	dates := o.Col("o_orderdate").AnnFloats()
	if len(dates) != 2 || dates[0] >= dates[1] {
		t.Fatalf("date floats = %v", dates)
	}
	codes := o.Col("o_comment").AnnCodes()
	d := o.Col("o_comment").Dict()
	if d.DecodeString(codes[0]) != "beta" || d.DecodeString(codes[1]) != "alpha" {
		t.Fatalf("comment codes decode wrong")
	}
	// Order-preserving: alpha < beta.
	if codes[1] >= codes[0] {
		t.Fatal("string annotation codes not order-preserving")
	}
	// Key columns must not report annotation codes.
	if o.Col("o_orderkey").AnnCodes() != nil {
		t.Error("key column should not have annotation codes")
	}
	// Codes are the frozen column's only stored form.
	if c := o.Col("o_comment"); c.Strs != nil || c.Str(0) != "beta" || c.Str(1) != "alpha" {
		t.Fatalf("frozen string column: Strs %v, Str %q %q", c.Strs, c.Str(0), c.Str(1))
	}
}

// TestFreezeWithStagedCodes: a string column handed over as codes keeps
// them when its dictionary is supplied, and is refused when a code is
// out of that dictionary's range or no dictionary is supplied.
func TestFreezeWithStagedCodes(t *testing.T) {
	b := dict.NewBuilder(dict.String)
	b.AddString("alpha")
	b.AddString("beta")
	comments := map[string]*dict.Dictionary{"orders.o_comment": b.Build()}
	stage := func(codes []uint32) *Catalog {
		cat := NewCatalog()
		o, _ := cat.Create(ordersSchema())
		if err := o.SetColumnData(map[string]interface{}{
			"o_orderkey": []int64{1, 2}, "o_custkey": []int64{10, 11},
			"o_orderdate": []int64{9000, 9100}, "o_comment": codes,
		}); err != nil {
			t.Fatal(err)
		}
		return cat
	}
	cat := stage([]uint32{1, 0})
	if err := cat.FreezeWith(nil, comments); err != nil {
		t.Fatal(err)
	}
	if c := cat.Table("orders").Col("o_comment"); c.Str(0) != "beta" || c.Str(1) != "alpha" {
		t.Fatalf("staged codes decode to %q %q", c.Str(0), c.Str(1))
	}
	if err := stage([]uint32{2, 0}).FreezeWith(nil, comments); err == nil {
		t.Error("a code past the dictionary should fail FreezeWith")
	}
	if err := stage([]uint32{1, 0}).Freeze(); err == nil {
		t.Error("codes without a dictionary should fail Freeze")
	}
	mixed := stage([]uint32{1, 0})
	if err := mixed.Table("orders").Append(int64(3), int64(12), int64(9200), "alpha"); err != nil {
		t.Fatal(err)
	}
	if err := mixed.FreezeWith(nil, comments); err == nil {
		t.Error("values appended beside staged codes should fail FreezeWith")
	}
	o := NewTable(ordersSchema())
	if err := o.SetColumnData(map[string]interface{}{
		"o_orderkey": []uint32{1}, "o_custkey": []int64{10},
		"o_orderdate": []int64{9000}, "o_comment": []string{"x"},
	}); err == nil {
		t.Error("codes for an int column should be a kind mismatch")
	}
}

func TestFreezeIdempotentAndLocksCreate(t *testing.T) {
	cat := NewCatalog()
	m, _ := cat.Create(matrixSchema())
	_ = m.Append(int64(0), int64(0), 1.0)
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	if !cat.Frozen() {
		t.Error("catalog should be frozen")
	}
	if _, err := cat.Create(ordersSchema()); err == nil {
		t.Error("create after freeze should error")
	}
}

func TestDomainKindMismatch(t *testing.T) {
	cat := NewCatalog()
	_, _ = cat.Create(Schema{Name: "a", Cols: []ColumnDef{{Name: "k", Kind: Int64, Role: Key, Domain: "d"}}})
	_, _ = cat.Create(Schema{Name: "b", Cols: []ColumnDef{{Name: "k2", Kind: String, Role: Key, Domain: "d"}}})
	if err := cat.Freeze(); err == nil {
		t.Error("mixed-kind domain should error on freeze")
	}
}

func TestLoadDelimited(t *testing.T) {
	cat := NewCatalog()
	o, _ := cat.Create(ordersSchema())
	data := "1|10|1994-01-01|first order|\n2|11|1994-02-01|second|\n\n3|12|1994-03-01|third|\n"
	if err := o.LoadDelimitedContext(context.Background(), strings.NewReader(data), '|'); err != nil {
		t.Fatal(err)
	}
	if o.NumRows != 3 {
		t.Fatalf("rows = %d", o.NumRows)
	}
	if o.Col("o_comment").Strs[2] != "third" {
		t.Fatalf("comment = %q", o.Col("o_comment").Strs[2])
	}
	// Field-count mismatch.
	bad, _ := cat.Create(Schema{Name: "t2", Cols: []ColumnDef{{Name: "x", Kind: Int64, Role: Key}}})
	if err := bad.LoadDelimitedContext(context.Background(), strings.NewReader("1|2|\n"), '|'); err == nil {
		t.Error("field mismatch should error")
	}
	// Bad int.
	bad2, _ := cat.Create(Schema{Name: "t3", Cols: []ColumnDef{{Name: "x", Kind: Int64, Role: Key}}})
	if err := bad2.LoadDelimitedContext(context.Background(), strings.NewReader("zzz\n"), '|'); err == nil {
		t.Error("bad int should error")
	}
}

func TestSetColumnData(t *testing.T) {
	cat := NewCatalog()
	m, _ := cat.Create(matrixSchema())
	err := m.SetColumnData(map[string]interface{}{
		"i": []int64{0, 1},
		"j": []int64{1, 0},
		"v": []float64{0.5, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 2 {
		t.Fatalf("rows = %d", m.NumRows)
	}
	if err := m.SetColumnData(map[string]interface{}{"i": []int64{0}}); err == nil {
		t.Error("missing columns should error")
	}
	if err := m.SetColumnData(map[string]interface{}{
		"i": []int64{0}, "j": []int64{1, 2}, "v": []float64{0.1},
	}); err == nil {
		t.Error("ragged columns should error")
	}
	if err := m.SetColumnData(map[string]interface{}{
		"i": []float64{0}, "j": []int64{1}, "v": []float64{0.1},
	}); err == nil {
		t.Error("kind mismatch should error")
	}
}

func TestSchemaCol(t *testing.T) {
	s := matrixSchema()
	if s.Col("v") == nil || s.Col("v").Kind != Float64 {
		t.Error("Col lookup wrong")
	}
	if s.Col("zzz") != nil {
		t.Error("absent column should be nil")
	}
	cd := ColumnDef{Name: "x", Domain: ""}
	if cd.DomainName() != "x" {
		t.Error("default domain should be column name")
	}
}
