package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// handlerEngine is a durable engine over one frozen table t(id, g, v)
// of n rows, with g taking n/4 distinct values.
func handlerEngine(t *testing.T, n int) *core.Engine {
	t.Helper()
	eng := core.New(core.WithDurability(t.TempDir(), wal.SyncEvery()))
	t.Cleanup(func() { eng.Drain(context.Background()) })
	tab, err := eng.CreateTable(storage.Schema{Name: "t", Cols: []storage.ColumnDef{
		{Name: "id", Kind: storage.Int64, Role: storage.Key, PK: true},
		{Name: "g", Kind: storage.Int64, Role: storage.Annotation},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tab.Append(int64(i), int64(i%(n/4)), float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Freeze(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// query runs sql through handleQuery with the given X-Approx-OK value
// ("" sends no header) and decodes the response.
func query(t *testing.T, eng *core.Engine, sql, approxOK string) queryResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/query?sql="+url.QueryEscape(sql), nil)
	if approxOK != "" {
		req.Header.Set("X-Approx-OK", approxOK)
	}
	rec := httptest.NewRecorder()
	handleQuery(eng, rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", sql, rec.Code, rec.Body)
	}
	var qr queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return qr
}

// ingest posts body to handleIngest on table t.
func ingest(eng *core.Engine, params, batchID, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/ingest?table=t"+params, strings.NewReader(body))
	if batchID != "" {
		req.Header.Set("X-Batch-Id", batchID)
	}
	rec := httptest.NewRecorder()
	handleIngest(eng, rec, req)
	return rec
}

// TestIngestBatchIDHandler: a retried X-Batch-Id acks as a duplicate
// and leaves count(*) unchanged; X-Batch-Id on the delimited format is
// a 400 that appends nothing.
func TestIngestBatchIDHandler(t *testing.T) {
	eng := handlerEngine(t, 40)
	count := func() float64 {
		return query(t, eng, "SELECT count(*) AS c FROM t", "").Rows[0][0].(float64)
	}
	rows := `[100, 1, 0.5]` + "\n" + `{"id": 101, "g": 2, "v": 1.5}` + "\n"
	for try, wantDup := range []bool{false, true} {
		rec := ingest(eng, "", "batch-1", rows)
		if rec.Code != http.StatusOK {
			t.Fatalf("try %d: status %d: %s", try, rec.Code, rec.Body)
		}
		var ir ingestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Duplicate != wantDup {
			t.Fatalf("try %d: duplicate=%v, want %v (%s)", try, ir.Duplicate, wantDup, rec.Body)
		}
		if c := count(); c != 42 {
			t.Fatalf("try %d: count(*) = %v, want 42", try, c)
		}
	}
	if rec := ingest(eng, "&format=delim&delim=|", "batch-2", "102|3|2.5\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("X-Batch-Id with format=delim: status %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if c := count(); c != 42 {
		t.Fatalf("count(*) = %v after a rejected delimited batch, want 42", c)
	}
}

// TestApproxOKHeader: X-Approx-OK values 0 and false do not opt a query
// into the approximate tier, while 1 does.
func TestApproxOKHeader(t *testing.T) {
	eng := handlerEngine(t, 8000)
	sql := "SELECT count(distinct g) AS c FROM t"
	if qr := query(t, eng, sql, "1"); !qr.Approx || !strings.HasPrefix(qr.Dispatch, "approx-") {
		t.Fatalf("X-Approx-OK: 1 answered exactly (dispatch %q)", qr.Dispatch)
	}
	for _, v := range []string{"", "0", "false", "FALSE"} {
		qr := query(t, eng, sql, v)
		if qr.Approx || strings.HasPrefix(qr.Dispatch, "approx-") || qr.Rows[0][0].(float64) != 2000 {
			t.Fatalf("X-Approx-OK %q: approx=%v dispatch=%q rows=%v, want the exact 2000", v, qr.Approx, qr.Dispatch, qr.Rows)
		}
	}
}
