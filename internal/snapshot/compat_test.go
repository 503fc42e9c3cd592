package snapshot_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/snapshot"
	"repro/internal/storage"
	"repro/internal/wal"
)

// stringTagFixture is a snapshot written by the encoder that stored a
// string column as its values (one length-prefixed string per row)
// rather than as dictionary codes. Its rows are exactly what
// buildFixture produces.
const stringTagFixture = "testdata/strings-tag.lhsnap"

// buildFixture fills cat with the rows of stringTagFixture: a string
// key domain shared by two tables, string annotations, numeric and
// date columns, post-freeze rows folded into a generation (so both the
// domain and an annotation dictionary carry unsorted tails) and one
// unfolded delta row. freeze is the catalog's or an engine's Freeze.
func buildFixture(t testing.TB, cat *storage.Catalog, freeze func() error) {
	t.Helper()
	nation, err := cat.Create(storage.Schema{Name: "nation", Cols: []storage.ColumnDef{
		{Name: "n_name", Kind: storage.String, Role: storage.Key, Domain: "nation", PK: true},
		{Name: "n_region", Kind: storage.String, Role: storage.Annotation},
		{Name: "n_pop", Kind: storage.Int64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	cust, err := cat.Create(storage.Schema{Name: "cust", Cols: []storage.ColumnDef{
		{Name: "c_key", Kind: storage.Int64, Role: storage.Key, PK: true},
		{Name: "c_nation", Kind: storage.String, Role: storage.Key, Domain: "nation"},
		{Name: "c_segment", Kind: storage.String, Role: storage.Annotation},
		{Name: "c_bal", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "c_since", Kind: storage.Date, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"PERU", "CHINA", "EGYPT", "FRANCE", "BRAZIL", "JAPAN"}
	regions := []string{"AMERICA", "ASIA", "AFRICA", "EUROPE"}
	segments := []string{"BUILDING", "MACHINERY", "AUTOMOBILE", "HOUSEHOLD"}
	for i, n := range names {
		if err := nation.Append(n, regions[i%len(regions)], int64(10+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := cust.Append(int64(i), names[(i*5)%len(names)], segments[(i*3)%len(segments)],
			float64(i)*12.25-100, int64(9000+i*31)); err != nil {
			t.Fatal(err)
		}
	}
	if err := freeze(); err != nil {
		t.Fatal(err)
	}
	// Post-freeze rows with new key and annotation strings, folded into
	// a generation.
	if err := nation.Append("KENYA", "AFRICA", int64(55)); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 46; i++ {
		seg := segments[i%len(segments)]
		if i%2 == 0 {
			seg = fmt.Sprintf("NEW%d", i%3)
		}
		if err := cust.Append(int64(i), []string{"KENYA", "ALGERIA", "PERU"}[i%3], seg,
			float64(i)*3.5, int64(9500+i)); err != nil {
			t.Fatal(err)
		}
	}
	cat.Snapshot()
	// One unfolded delta row.
	if err := cust.Append(int64(99), "CHINA", "TAIL", 0.5, int64(9999)); err != nil {
		t.Fatal(err)
	}
}

// fixtureDir copies stringTagFixture into a fresh data directory as the
// snapshot of epoch 1.
func fixtureDir(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(stringTagFixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(snapshot.Path(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sameDict reports whether two dictionaries map the same codes to the
// same values, prefix and tail alike.
func sameDict(a, b *dict.Dictionary) bool {
	if a.Kind() != b.Kind() || a.Len() != b.Len() || a.TailLen() != b.TailLen() {
		return false
	}
	for c := uint32(0); int(c) < a.Len(); c++ {
		switch a.Kind() {
		case dict.String:
			if a.DecodeString(c) != b.DecodeString(c) {
				return false
			}
		case dict.Int:
			if a.DecodeInt(c) != b.DecodeInt(c) {
				return false
			}
		}
	}
	return true
}

// TestStringTagSnapshotLoads: a snapshot whose string columns hold
// values loads, and its codes and dictionaries equal a fresh build of
// the same rows: columns, shared key domains and annotation
// dictionaries, unfolded tail included.
func TestStringTagSnapshotLoads(t *testing.T) {
	l, invalid, err := snapshot.Load(fixtureDir(t))
	if err != nil || invalid != 0 || l == nil {
		t.Fatalf("Load: %v invalid=%d", err, invalid)
	}
	if _, ok := l.Tables[1].Cols["c_nation"].([]string); !ok {
		t.Fatalf("fixture's string key loads as %T, want []string", l.Tables[1].Cols["c_nation"])
	}
	got, err := snapshot.BuildCatalog(l)
	if err != nil {
		t.Fatal(err)
	}
	want := storage.NewCatalog()
	buildFixture(t, want, want.Freeze)
	for _, dn := range []string{"nation", "c_key"} {
		if !sameDict(got.Domain(dn), want.Domain(dn)) {
			t.Fatalf("domain %s differs from a fresh build", dn)
		}
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	for _, name := range want.Tables() {
		g, w := gs.Resolve(got.Table(name)), ws.Resolve(want.Table(name))
		if g.NumRows != w.NumRows {
			t.Fatalf("%s: %d rows, want %d", name, g.NumRows, w.NumRows)
		}
		for i, wc := range w.Cols {
			gc := g.Cols[i]
			if !reflect.DeepEqual(gc.KeyCodes(), wc.KeyCodes()) {
				t.Fatalf("%s.%s: codes differ from a fresh build", name, wc.Def.Name)
			}
			if wc.Def.Kind != storage.String {
				continue
			}
			if gc.Strs != nil {
				t.Fatalf("%s.%s: frozen column keeps its values", name, wc.Def.Name)
			}
			// A key column's codes read through its domain, compared
			// above; an annotation has its own dictionary.
			if wc.Def.Role == storage.Annotation && !sameDict(gc.Dict(), wc.Dict()) {
				t.Fatalf("%s.%s: dictionary differs from a fresh build", name, wc.Def.Name)
			}
		}
	}
}

// TestStringTagSnapshotAnswers: an engine recovered from the fixture
// answers like an engine holding the same rows.
func TestStringTagSnapshotAnswers(t *testing.T) {
	rec := core.New(core.WithDurability(fixtureDir(t), wal.NoSync()))
	defer rec.Drain(context.Background())
	if !rec.Recovered() || rec.RecoveryError() != nil {
		t.Fatalf("recovery: recovered=%v err=%v", rec.Recovered(), rec.RecoveryError())
	}
	fresh := core.New()
	buildFixture(t, fresh.Catalog(), fresh.Freeze)
	for _, q := range []string{
		"SELECT c_nation, count(*) AS n, sum(c_bal) AS b FROM cust GROUP BY c_nation",
		"SELECT n_region, count(*) AS n, sum(c_bal) AS b FROM cust, nation WHERE c_nation = n_name GROUP BY n_region",
		"SELECT c_segment, count(*) AS n FROM cust WHERE c_segment = 'BUILDING' OR c_segment = 'TAIL' GROUP BY c_segment",
	} {
		g, err := rec.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		w, err := fresh.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if g.NumRows == 0 || !reflect.DeepEqual(g.Cols, w.Cols) {
			t.Fatalf("%s:\nrecovered %v\nfresh     %v", q, g.Cols, w.Cols)
		}
	}
}
