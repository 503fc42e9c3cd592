package snapshot_test

import (
	"bytes"
	"context"
	"os"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/storage"
)

// goldenFixture is a snapshot of buildGolden's catalog written by the
// encoder that built every section in memory before writing it. The
// streaming encoder must reproduce it byte for byte.
const goldenFixture = "testdata/compacted.lhsnap"

// buildGolden fills a catalog with buildFixture's rows, compacts it,
// folds rows appended after the compaction into a generation and
// leaves one more row unfolded: the sections cover every column kind,
// dictionaries with tails and a generation that extends a compacted
// one.
func buildGolden(t testing.TB) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	buildFixture(t, cat, cat.Freeze)
	if _, _, err := cat.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	cust := cat.Table("cust")
	for i := 100; i < 104; i++ {
		if err := cust.Append(int64(i), "EGYPT", "NEW1", float64(i)/4, int64(9700+i)); err != nil {
			t.Fatal(err)
		}
	}
	cat.Snapshot()
	if err := cust.Append(int64(200), "MALI", "LATE", -1.25, int64(10000)); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestWriteMatchesGolden: Write produces exactly the fixture's bytes.
func TestWriteMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenFixture)
	if err != nil {
		t.Fatal(err)
	}
	capt, err := buildGolden(t).CaptureForSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	path, err := snapshot.Write(t.TempDir(), capt, []string{"b1", "b2"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("snapshot is %d bytes, fixture %d; first difference at byte %d", len(got), len(want), n)
	}
}
