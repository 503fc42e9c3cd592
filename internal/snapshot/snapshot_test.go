package snapshot

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

// buildCatalog makes a two-table catalog sharing a join domain, with
// string and float annotations (including NaN), frozen, then extended
// post-freeze so domain dicts carry unsorted tails and one table keeps
// an unfolded delta tail.
func buildCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	orders, err := cat.Create(storage.Schema{Name: "orders", Cols: []storage.ColumnDef{
		{Name: "id", Kind: storage.Int64, Role: storage.Key, PK: true},
		{Name: "cust", Kind: storage.Int64, Role: storage.Key, Domain: "custkey"},
		{Name: "total", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "status", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cust, err := cat.Create(storage.Schema{Name: "cust", Cols: []storage.ColumnDef{
		{Name: "ck", Kind: storage.Int64, Role: storage.Key, Domain: "custkey", PK: true},
		{Name: "name", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := cust.Append(int64(i), "c"+string(rune('a'+i%5))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		total := float64(i) * 1.5
		if i%7 == 0 {
			total = math.NaN()
		}
		if err := orders.Append(int64(i), int64(i%20), total, "S"+string(rune('0'+i%3))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	// Post-freeze: new custkey values extend the shared domain tail.
	for i := 50; i < 60; i++ {
		if err := orders.Append(int64(i), int64(i), 2.5, "NEW"); err != nil {
			t.Fatal(err)
		}
	}
	cat.Snapshot() // fold the above into a generation
	// Unfolded delta tail.
	if err := orders.Append(int64(99), int64(99), math.Inf(1), "TAIL"); err != nil {
		t.Fatal(err)
	}
	return cat
}

func tableRows(t *testing.T, cat *storage.Catalog, name string) int {
	t.Helper()
	return cat.Table(name).TotalRows()
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat := buildCatalog(t)
	cap, err := cat.CaptureForSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	path, err := Write(dir, cap, []string{"b1", "b2"})
	if err != nil {
		t.Fatal(err)
	}
	l, invalid, err := Load(dir)
	if err != nil || invalid != 0 || l == nil {
		t.Fatalf("Load: %v invalid=%d l=%v", err, invalid, l)
	}
	if l.Path != path {
		t.Fatalf("loaded %s, wrote %s", l.Path, path)
	}
	if len(l.Manifest.BatchIDs) != 2 || l.Manifest.BatchIDs[0] != "b1" {
		t.Fatalf("batch ids %v", l.Manifest.BatchIDs)
	}
	rcat, err := BuildCatalog(l)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tableRows(t, rcat, "orders"), tableRows(t, cat, "orders"); got != want {
		t.Fatalf("orders rows %d, want %d", got, want)
	}
	if got, want := tableRows(t, rcat, "cust"), tableRows(t, cat, "cust"); got != want {
		t.Fatalf("cust rows %d, want %d", got, want)
	}

	// Codes restored bit-identically: the snapshot's generation codes
	// must equal the restored handle's codes prefix-for-prefix,
	// including domain-dict tail codes minted post-freeze.
	for _, tc := range cap.Tables {
		rt := rcat.Table(tc.Name)
		for i, col := range tc.Gen.Cols {
			if col.Def.Role != storage.Key {
				continue
			}
			want := col.KeyCodes()
			got := rt.Cols[i].KeyCodes()
			if len(got) != len(want) {
				t.Fatalf("%s.%s: %d codes, want %d", tc.Name, col.Def.Name, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s.%s code[%d] = %d, want %d", tc.Name, col.Def.Name, j, got[j], want[j])
				}
			}
		}
	}

	// Shared-domain dictionary survives with its tail: decoding the
	// restored codes yields the original values.
	d := rcat.Domain("custkey")
	if d == nil {
		t.Fatal("custkey domain missing after restore")
	}
	if d.TailLen() == 0 {
		t.Fatal("custkey tail lost in restore")
	}
	for _, v := range []int64{0, 19, 50, 59} {
		code, ok := d.EncodeInt(v)
		if !ok || d.DecodeInt(code) != v {
			t.Fatalf("custkey %d does not round-trip (ok=%v)", v, ok)
		}
	}

	// NaN annotation survives by bits.
	of := rcat.Table("orders").Col("total").AnnFloats()
	if !math.IsNaN(of[0]) || of[1] != 1.5 {
		t.Fatalf("annotation floats corrupted: %v %v", of[0], of[1])
	}
}

func TestSnapshotCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	cat := buildCatalog(t)
	cap, err := cat.CaptureForSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Write(dir, cap, nil); err != nil {
		t.Fatal(err)
	}
	// Second snapshot at a later epoch, then corrupt it.
	cap.Epoch++
	path2, err := Write(dir, cap, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, invalid, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if invalid != 1 || l == nil || l.Manifest.Epoch != cap.Epoch-1 {
		t.Fatalf("invalid=%d l=%+v", invalid, l)
	}
	if _, err := BuildCatalog(l); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotNone(t *testing.T) {
	l, invalid, err := Load(t.TempDir())
	if l != nil || invalid != 0 || err != nil {
		t.Fatalf("empty dir: %v %d %v", l, invalid, err)
	}
}

func TestCatalogManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schemas := []storage.Schema{
		{Name: "t0", Cols: []storage.ColumnDef{
			{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "d0", PK: true},
			{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
		}},
	}
	if err := WriteCatalogManifest(dir, schemas); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCatalogManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "t0" || got[0].Cols[0].Domain != "d0" || !got[0].Cols[0].PK {
		t.Fatalf("manifest round trip: %+v", got)
	}
	// Absent and corrupt manifests are both "no manifest".
	if got, err := LoadCatalogManifest(t.TempDir()); got != nil || err != nil {
		t.Fatalf("absent: %v %v", got, err)
	}
	if err := os.WriteFile(dir+"/catalog.json", []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCatalogManifest(dir); got != nil || err != nil {
		t.Fatalf("corrupt: %v %v", got, err)
	}
}

// TestWriteStreamsLargeSections: sections several times the write
// buffer — long columns, a dictionary string and a tail string longer
// than the buffer — stream through it, and the file loads back with
// every checksum patched in and every value intact.
func TestWriteStreamsLargeSections(t *testing.T) {
	cat := storage.NewCatalog()
	big, err := cat.Create(storage.Schema{Name: "big", Cols: []storage.ColumnDef{
		{Name: "id", Kind: storage.Int64, Role: storage.Key, PK: true},
		{Name: "x", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3*writeBufSize/8 + 5
	long := strings.Repeat("0123456789abcdef", writeBufSize/8)
	ids, xs, ss := make([]int64, n), make([]float64, n), make([]string, n)
	for i := range ids {
		ids[i], xs[i], ss[i] = int64(i), float64(i)/3, "s"+strconv.Itoa(i%11)
	}
	ss[n/2] = long
	if err := big.SetColumnData(map[string]interface{}{"id": ids, "x": xs, "s": ss}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := big.Append(int64(n), 0.25, long+"!"); err != nil {
		t.Fatal(err)
	}
	capt, err := cat.CaptureForSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	path, err := Write(t.TempDir(), capt, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	lt := l.Tables[0]
	if !reflect.DeepEqual(lt.Cols["id"], ids) || !reflect.DeepEqual(lt.Cols["x"], xs) {
		t.Fatal("numeric columns differ after a round trip")
	}
	got, err := BuildCatalog(l)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Snapshot().Resolve(got.Table("big"))
	if g.NumRows != n+1 || g.Col("s").Str(n/2) != long || g.Col("s").Str(n) != long+"!" {
		t.Fatalf("restored %d rows; long strings lost", g.NumRows)
	}
	for i := 0; i < n; i++ {
		if g.Col("s").Str(i) != ss[i] {
			t.Fatalf("row %d: s = %q, want %q", i, g.Col("s").Str(i), ss[i])
		}
	}

	// A write error surfaces from the section that hit it and sticks.
	f, err := os.Create(filepath.Join(t.TempDir(), "closed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	e := newEnc(f)
	if err := writeColumn(e, capt.Tables[0].Gen.Col("id")); err == nil {
		t.Fatal("writing a column to a closed file succeeded")
	}
	if err := writeTail(e, capt.Tables[0].Schema, nil); err == nil {
		t.Fatal("the write error did not stick")
	}
}
