package storage

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func kvSchema() Schema {
	return Schema{Name: "kv", Cols: []ColumnDef{
		{Name: "k", Kind: Int64, Role: Key},
		{Name: "s", Kind: String, Role: Annotation},
		{Name: "v", Kind: Float64, Role: Annotation},
	}}
}

func TestAppendAfterFreezeLandsInDelta(t *testing.T) {
	c := NewCatalog()
	tab, err := c.Create(kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(int64(1), "a", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := tab.Append(int64(2), "b", 2.5); err != nil {
		t.Fatalf("post-freeze Append: %v", err)
	}
	if got := tab.DeltaRows(); got != 1 {
		t.Fatalf("DeltaRows = %d, want 1", got)
	}
	if tab.NumRows != 1 {
		t.Fatalf("base NumRows mutated: %d", tab.NumRows)
	}
	s := c.Snapshot()
	if s == nil {
		t.Fatal("Snapshot nil after mutation")
	}
	g := s.Resolve(tab)
	if g == tab || g.NumRows != 2 {
		t.Fatalf("generation NumRows = %d, want 2", g.NumRows)
	}
	kc := g.Col("k")
	if len(kc.KeyCodes()) != 2 {
		t.Fatalf("key codes = %v", kc.KeyCodes())
	}
	if got := kc.Dict().DecodeInt(kc.KeyCodes()[1]); got != 2 {
		t.Fatalf("delta key decodes to %d, want 2", got)
	}
	if got := g.Col("v").AnnFloats(); len(got) != 2 || got[1] != 2.5 {
		t.Fatalf("ann floats = %v", got)
	}
	sc := g.Col("s")
	if got := sc.Dict().DecodeString(sc.AnnCodes()[1]); got != "b" {
		t.Fatalf("string ann decodes to %q", got)
	}
	// Old codes are untouched in the handle's base arrays.
	if len(tab.Col("k").KeyCodes()) != 1 {
		t.Fatal("handle base codes grew")
	}
}

func TestSnapshotPinsEpoch(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.Create(kvSchema())
	tab.Append(int64(1), "a", 1.0)
	c.Freeze()
	if s := c.Snapshot(); s != nil {
		t.Fatal("static catalog should snapshot to nil")
	}
	tab.Append(int64(2), "b", 2.0)
	s1 := c.Snapshot()
	g1 := s1.Resolve(tab)
	tab.Append(int64(3), "c", 3.0)
	s2 := c.Snapshot()
	g2 := s2.Resolve(tab)
	if s1 == s2 || s1.Epoch >= s2.Epoch {
		t.Fatalf("epochs not monotone: %d vs %d", s1.Epoch, s2.Epoch)
	}
	if g1.NumRows != 2 || g2.NumRows != 3 {
		t.Fatalf("pinned rows %d/%d, want 2/3", g1.NumRows, g2.NumRows)
	}
	// Old snapshot still resolves to the old generation.
	if s1.Resolve(tab).NumRows != 2 {
		t.Fatal("snapshot lost its pin")
	}
	// No new mutations: snapshot is cached.
	if c.Snapshot() != s2 {
		t.Fatal("unchanged catalog rebuilt its snapshot")
	}
}

func TestCompactTruncatesAndKeepsCodes(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.Create(kvSchema())
	tab.Append(int64(5), "x", 1.0)
	tab.Append(int64(3), "y", 2.0)
	c.Freeze()
	tab.Append(int64(9), "z", 3.0) // new key value → dict tail
	tab.Append(int64(5), "x", 4.0) // existing values
	pre := c.Snapshot().Resolve(tab)
	preCodes := append([]uint32(nil), pre.Col("k").KeyCodes()...)

	n, epoch, err := c.Compact(context.Background())
	if err != nil || n != 2 || epoch == 0 {
		t.Fatalf("Compact = (%d, %d, %v)", n, epoch, err)
	}
	if got := tab.DeltaRows(); got != 0 {
		t.Fatalf("delta rows after compact = %d", got)
	}
	if tab.LastCompactEpoch() != epoch {
		t.Fatal("last-compact epoch not stamped")
	}
	post := c.Snapshot().Resolve(tab)
	if post.NumRows != 4 {
		t.Fatalf("post rows = %d", post.NumRows)
	}
	for i, pc := range post.Col("k").KeyCodes() {
		if pc != preCodes[i] {
			t.Fatalf("code %d changed across compaction: %d → %d", i, preCodes[i], pc)
		}
	}
	// Idempotent when clean.
	if n, _, _ := c.Compact(context.Background()); n != 0 {
		t.Fatalf("second compact folded %d rows", n)
	}
	// Appends keep working after compaction.
	if err := tab.Append(int64(100), "w", 5.0); err != nil {
		t.Fatal(err)
	}
	if g := c.Snapshot().Resolve(tab); g.NumRows != 5 {
		t.Fatalf("post-compact append rows = %d", g.NumRows)
	}
}

func TestSharedDomainDeltaCodesAgree(t *testing.T) {
	c := NewCatalog()
	a, _ := c.Create(Schema{Name: "a", Cols: []ColumnDef{{Name: "k", Kind: Int64, Role: Key, Domain: "d"}}})
	b, _ := c.Create(Schema{Name: "b", Cols: []ColumnDef{{Name: "k", Kind: Int64, Role: Key, Domain: "d"}}})
	a.Append(int64(1))
	b.Append(int64(2))
	c.Freeze()
	a.Append(int64(77))
	b.Append(int64(77))
	s := c.Snapshot()
	ga, gb := s.Resolve(a), s.Resolve(b)
	ca := ga.Col("k").KeyCodes()[1]
	cb := gb.Col("k").KeyCodes()[1]
	if ca != cb {
		t.Fatalf("shared-domain codes diverge: %d vs %d", ca, cb)
	}
}

func TestLoadDelimitedContextCancel(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.Create(Schema{Name: "t", Cols: []ColumnDef{
		{Name: "k", Kind: Int64, Role: Key},
		{Name: "v", Kind: Float64, Role: Annotation},
	}})
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		sb.WriteString("1|2.0\n")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tab.LoadDelimitedContext(ctx, strings.NewReader(sb.String()), '|'); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Uncancelled load still works, pre and post freeze.
	if err := tab.LoadDelimitedContext(context.Background(), strings.NewReader("1|2.0\n"), '|'); err != nil {
		t.Fatal(err)
	}
	c.Freeze()
	if err := tab.LoadDelimitedContext(context.Background(), strings.NewReader("7|3.0\n"), '|'); err != nil {
		t.Fatal(err)
	}
	if g := c.Snapshot().Resolve(tab); g.NumRows != 2 {
		t.Fatalf("rows = %d, want 2", g.NumRows)
	}
}

func TestConcurrentAppendSnapshotCompact(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.Create(kvSchema())
	tab.Append(int64(0), "s0", 0.0)
	c.Freeze()
	// Every row holds k, "s"+k%5 and k%perWriter, so a generation's
	// values can be checked against its keys while it is extended.
	const writers, perWriter = 4, 200
	check := func(g *Table) error {
		k, s, v := g.Col("k"), g.Col("s"), g.Col("v")
		for r := 0; r < g.NumRows; r++ {
			key := k.Dict().DecodeInt(k.KeyCodes()[r])
			if got, want := s.Str(r), "s"+strconv.Itoa(int(key%5)); got != want {
				return fmt.Errorf("row %d (k=%d): s = %q, want %q", r, key, got, want)
			}
			if got, want := v.AnnFloats()[r], float64(key%perWriter); got != want {
				return fmt.Errorf("row %d (k=%d): v = %v, want %v", r, key, got, want)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				if err := tab.Append(int64(k), "s"+strconv.Itoa(k%5), float64(i)); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					g := c.Snapshot().Resolve(tab)
					if g.NumRows < 1 {
						t.Error("empty generation")
						return
					}
					if err := check(g); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, _, err := c.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, _, err := c.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := c.Snapshot().Resolve(tab)
	if g == nil {
		g = tab.Live()
	}
	if g.NumRows != 1+writers*perWriter {
		t.Fatalf("rows = %d, want %d", g.NumRows, 1+writers*perWriter)
	}
	if err := check(g); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for _, code := range g.Col("k").KeyCodes() {
		seen[g.Col("k").Dict().DecodeInt(code)]++
	}
	for k := int64(0); k < writers*perWriter; k++ {
		want := 1
		if k == 0 { // the row appended before freeze
			want = 2
		}
		if seen[k] != want {
			t.Fatalf("key %d appears %d times, want %d", k, seen[k], want)
		}
	}
}

// annSchema has a column of every stored kind: key ints and codes, a
// float annotation (Floats aliased by floats), an int annotation (Ints
// beside a float cache) and a string annotation (codes).
func annSchema() Schema {
	return Schema{Name: "ann", Cols: []ColumnDef{
		{Name: "k", Kind: Int64, Role: Key},
		{Name: "name", Kind: String, Role: Key},
		{Name: "v", Kind: Float64, Role: Annotation},
		{Name: "n", Kind: Int64, Role: Annotation},
		{Name: "s", Kind: String, Role: Annotation},
	}}
}

func appendAnn(t *testing.T, tab *Table, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := tab.Append(int64(i), "n"+strconv.Itoa(i%7), float64(i)/4, int64(3*i), "s"+strconv.Itoa(i%3)); err != nil {
			t.Fatal(err)
		}
	}
}

// colArrays maps each of a column's stored arrays to its first
// element's address.
func colArrays(col *Column) map[string]interface{} {
	m := map[string]interface{}{}
	if len(col.Ints) > 0 {
		m["Ints"] = &col.Ints[0]
	}
	if len(col.Floats) > 0 {
		m["Floats"] = &col.Floats[0]
	}
	if len(col.codes) > 0 {
		m["codes"] = &col.codes[0]
	}
	if len(col.floats) > 0 {
		m["floats"] = &col.floats[0]
	}
	return m
}

// TestCompactSharesArrays: Compact republishes the folded generation's
// arrays under a new generation instead of copying them, and a
// generation pinned before it reads the same values after later
// appends extend those arrays.
func TestCompactSharesArrays(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.Create(annSchema())
	appendAnn(t, tab, 0, 5)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	appendAnn(t, tab, 5, 12)
	s1 := c.Snapshot()
	pre := s1.Resolve(tab)
	want := map[string][]string{}
	for _, col := range pre.Cols {
		for r := 0; r < pre.NumRows; r++ {
			want[col.Def.Name] = append(want[col.Def.Name], cellString(col, r))
		}
	}
	if n, _, err := c.Compact(context.Background()); err != nil || n != 7 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	post := c.Snapshot().Resolve(tab)
	if post.Generation() == pre.Generation() || post.NumRows != pre.NumRows || post.deltaMerged != 0 {
		t.Fatalf("compacted generation %d (%d rows, %d merged), pre %d (%d rows)",
			post.Generation(), post.NumRows, post.deltaMerged, pre.Generation(), pre.NumRows)
	}
	for i, col := range post.Cols {
		pc := pre.Cols[i]
		got, want := colArrays(col), colArrays(pc)
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("%s: compacted arrays %v, pre-compaction %v", col.Def.Name, got, want)
		}
		for name, p := range want {
			if got[name] != p {
				t.Fatalf("%s.%s: compaction copied the array", col.Def.Name, name)
			}
		}
		if !reflect.DeepEqual(col.codes, pc.codes) || col.dict != pc.dict {
			t.Fatalf("%s: codes or dictionary differ across compaction", col.Def.Name)
		}
	}
	// Extend the shared arrays in place and past their capacity.
	appendAnn(t, tab, 12, 14)
	c.Snapshot()
	appendAnn(t, tab, 14, 300)
	if g := c.Snapshot().Resolve(tab); g.NumRows != 300 {
		t.Fatalf("rows after appends = %d", g.NumRows)
	}
	if s1.Resolve(tab) != pre {
		t.Fatal("pinned snapshot lost its generation")
	}
	for _, col := range pre.Cols {
		for r := 0; r < pre.NumRows; r++ {
			if got := cellString(col, r); got != want[col.Def.Name][r] {
				t.Fatalf("pinned %s row %d = %s, want %s", col.Def.Name, r, got, want[col.Def.Name][r])
			}
		}
	}
}

// cellString renders row r of a frozen column, read through every
// stored array of its kind.
func cellString(col *Column, r int) string {
	switch {
	case col.Def.Kind == String:
		return col.Str(r)
	case col.Def.Role == Key:
		return fmt.Sprint(col.Ints[r], "/", col.dict.DecodeInt(col.codes[r]))
	case col.Def.Kind == Float64:
		return fmt.Sprint(col.Floats[r], "/", col.floats[r])
	default:
		return fmt.Sprint(col.Ints[r], "/", col.floats[r])
	}
}

// TestFloatColumnStoredOnce: a float annotation's values and its
// numeric cache are one array in every generation: after an append
// that regrows it and after Compact.
func TestFloatColumnStoredOnce(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.Create(kvSchema())
	tab.Append(int64(0), "a", 0.5)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	base := &tab.Col("v").Floats[0]
	for i := 1; i < 100; i++ {
		tab.Append(int64(i), "a", float64(i)+0.5)
	}
	col := c.Snapshot().Resolve(tab).Col("v")
	if &col.Floats[0] == base {
		t.Fatal("100 appends to a 1-row column did not regrow it")
	}
	if &col.Floats[0] != &col.AnnFloats()[0] || len(col.AnnFloats()) != 100 {
		t.Fatal("appended generation holds its floats twice")
	}
	if _, _, err := c.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if col := tab.Live().Col("v"); &col.Floats[0] != &col.AnnFloats()[0] {
		t.Fatal("compacted generation holds its floats twice")
	}
	tab.Append(int64(100), "a", 100.5)
	col = c.Snapshot().Resolve(tab).Col("v")
	if &col.Floats[0] != &col.AnnFloats()[0] || len(col.AnnFloats()) != 101 || col.AnnFloats()[100] != 100.5 {
		t.Fatal("generation after Compact holds its floats twice")
	}
}
