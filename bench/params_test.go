package main

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/tpch"
)

// streamText renders n rounds of every query plus one row batch.
func streamText(seed int64, n int) string {
	r := stream(seed, 3)
	out := ""
	for i := 0; i < n; i++ {
		for _, name := range tpch.QueryNames {
			out += paramSQL(name, r) + "\n"
		}
	}
	return out + fmt.Sprint(lineitemBatch(r, tpch.SizesAt(0.01), 50))
}

func TestStreamIsSeeded(t *testing.T) {
	if streamText(7, 5) != streamText(7, 5) {
		t.Fatal("same seed, different stream")
	}
	if streamText(7, 5) == streamText(8, 5) {
		t.Fatal("different seeds, same stream")
	}
}

// Every generated text must parse, keep the paper text's shape (same
// fingerprint: only literals moved) and still select rows.
func TestParamSQLKeepsShapeAndSelectsRows(t *testing.T) {
	eng := core.New()
	defer shutdown(eng)
	if _, err := tpch.Populate(eng.Catalog(), 0.01, 1); err != nil {
		t.Fatal(err)
	}
	r := stream(1, 3)
	for _, name := range tpch.QueryNames {
		_, want, err := sqlparse.FingerprintSQL(tpch.Queries[name])
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for i := 0; i < 10; i++ {
			sql := paramSQL(name, r)
			_, got, err := sqlparse.FingerprintSQL(sql)
			if err != nil {
				t.Fatalf("%s does not parse: %v\n%s", name, err, sql)
			}
			if got != want {
				t.Fatalf("%s: fingerprint %x, paper text has %x\n%s", name, got, want, sql)
			}
			res, err := eng.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, sql)
			}
			rows += res.NumRows
		}
		if rows == 0 {
			t.Errorf("%s: ten bindings selected no rows", name)
		}
	}
}

// A generated batch must be accepted by the lineitem table.
func TestLineitemBatchAppends(t *testing.T) {
	eng := core.New()
	defer shutdown(eng)
	sz, err := tpch.Populate(eng.Catalog(), 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Catalog().Table("lineitem").AppendBatch(lineitemBatch(stream(1, 3), sz, 100)); err != nil {
		t.Fatal(err)
	}
}
