package core

import (
	"context"
	"testing"

	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// TestDurableMetaColumnsAcrossDomainGrowth: on a durable engine whose
// GroupMeta token columns over orders and customer are cached, an acked
// lineitem batch with new l_orderkey values grows the shared orderkey
// domain past those columns while orders keeps its generation. q3 and
// q10 then answer bit-identically to a fresh in-memory engine holding
// the same rows, which builds every column anew.
func TestDurableMetaColumnsAcrossDomainGrowth(t *testing.T) {
	dur := New(WithDurability(t.TempDir(), wal.SyncEvery()))
	if _, err := tpch.Populate(dur.Catalog(), 0.002, 5); err != nil {
		t.Fatal(err)
	}
	if err := dur.Freeze(); err != nil {
		t.Fatal(err)
	}
	queries := []string{tpch.Queries["q3"], tpch.Queries["q10"]}
	for i := 0; i < 2; i++ {
		for _, sql := range queries {
			if _, err := dur.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	orders := dur.Catalog().Table("orders")
	gen := dur.Catalog().Snapshot().Resolve(orders).Generation()

	// Copies of lineitem rows; every other one moves to an order key no
	// table holds yet.
	li := dur.Catalog().Snapshot().Resolve(dur.Catalog().Table("lineitem"))
	var batch [][]interface{}
	for r := 0; r < li.NumRows; r += li.NumRows / 40 {
		var row []interface{}
		for _, col := range li.Cols {
			switch {
			case col.Def.Name == "l_orderkey" && len(batch)%2 == 0:
				row = append(row, int64(50_000_000+r))
			case col.Def.Kind == storage.Int64 || col.Def.Kind == storage.Date:
				row = append(row, col.Ints[r])
			case col.Def.Kind == storage.Float64:
				row = append(row, col.Floats[r])
			case col.Def.Kind == storage.String:
				row = append(row, col.Str(r))
			}
		}
		batch = append(batch, row)
	}
	if _, _, err := dur.IngestBatch(context.Background(), "lineitem", "new-orderkeys", batch); err != nil {
		t.Fatal(err)
	}
	if g := dur.Catalog().Snapshot().Resolve(orders).Generation(); g != gen {
		t.Fatalf("orders moved from generation %d to %d; the test needs it unchanged", gen, g)
	}

	fresh := New()
	if _, err := tpch.Populate(fresh.Catalog(), 0.002, 5); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.IngestBatch(context.Background(), "lineitem", "", batch); err != nil {
		t.Fatal(err)
	}
	for _, sql := range queries {
		got, err := dur.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := bitEqual(got, want); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got.NumRows == 0 {
			t.Fatalf("%s: empty result", sql)
		}
	}
}
