package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/qerr"
	"repro/internal/storage"
)

// TestWriteQueryError pins the status each typed engine error maps to:
// overload sheds with 429 and a Retry-After of at least one second,
// wrapped or not; budget aborts are 503, contained panics 500, and
// everything else (parse, plan and user errors) 400.
func TestWriteQueryError(t *testing.T) {
	overloaded := &qerr.OverloadedError{Reason: "queue full", RetryAfter: 2500 * time.Millisecond}
	short := &qerr.OverloadedError{Reason: "queue full", RetryAfter: 10 * time.Millisecond}
	for _, tc := range []struct {
		name  string
		err   error
		code  int
		retry int // minimum Retry-After seconds; 0 means no header
	}{
		{"overloaded", overloaded, http.StatusTooManyRequests, 2},
		{"overloaded wrapped", fmt.Errorf("query: %w", overloaded), http.StatusTooManyRequests, 2},
		{"overloaded sub-second", short, http.StatusTooManyRequests, 1},
		{"resource exhausted", &qerr.ResourceExhaustedError{Used: 2, Limit: 1}, http.StatusServiceUnavailable, 0},
		{"resource exhausted wrapped", fmt.Errorf("x: %w", &qerr.ResourceExhaustedError{Engine: true}), http.StatusServiceUnavailable, 0},
		{"internal", &qerr.InternalError{Panic: "boom"}, http.StatusInternalServerError, 0},
		{"other", errors.New("sqlparse: unexpected token"), http.StatusBadRequest, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeQueryError(rec, tc.err)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d", rec.Code, tc.code)
			}
			if !strings.Contains(rec.Body.String(), tc.err.Error()) {
				t.Fatalf("body %q does not carry the error %q", rec.Body.String(), tc.err)
			}
			ra := rec.Header().Get("Retry-After")
			if tc.retry == 0 {
				if ra != "" {
					t.Fatalf("Retry-After %q on a %d", ra, tc.code)
				}
				return
			}
			secs, err := strconv.Atoi(ra)
			if err != nil || secs < tc.retry {
				t.Fatalf("Retry-After %q, want an integer >= %d", ra, tc.retry)
			}
		})
	}
}

// TestDecodeNDJSON decodes array and object rows onto a schema of every
// kind (a date as a day count or a "YYYY-MM-DD" string) and rejects
// rows of the wrong arity, with a column missing, or with a value the
// column's kind does not take.
func TestDecodeNDJSON(t *testing.T) {
	schema := &storage.Schema{Name: "t", Cols: []storage.ColumnDef{
		{Name: "k", Kind: storage.Int64, Role: storage.Key},
		{Name: "d", Kind: storage.Date, Role: storage.Annotation},
		{Name: "v", Kind: storage.Float64, Role: storage.Annotation},
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
	}}
	rows, err := decodeNDJSON(schema, strings.NewReader(
		`[7, 19000, 0.5, "a"]`+"\n"+
			`{"s": "b", "v": 2, "d": "1995-03-15", "k": -3}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]interface{}{
		{int64(7), int64(19000), 0.5, "a"},
		{int64(-3), "1995-03-15", 2.0, "b"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows %#v, want %#v", rows, want)
	}
	for _, tc := range []struct{ name, in, msg string }{
		{"short array", `[7, 19000, 0.5]`, "3 values for 4 columns"},
		{"long object", `{"k": 1, "d": 2, "v": 3, "s": "x", "z": 5}`, "5 fields for 4 columns"},
		{"missing column", `{"k": 1, "d": 2, "v": 3, "z": "x"}`, `missing column "s"`},
		{"float for int", `[1.5, 19000, 0.5, "a"]`, "is not an integer"},
		{"string for int", `["7", 19000, 0.5, "a"]`, "want integer"},
		{"number for string", `[7, 19000, 0.5, 4]`, "want string"},
		{"string for float", `[7, 19000, "x", "a"]`, "want number"},
		{"scalar row", `42`, "want a JSON object or array"},
		{"second row bad", `[7, 19000, 0.5, "a"]` + "\n" + `[7]`, "ingest row 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeNDJSON(schema, strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %v, want one containing %q", err, tc.msg)
			}
		})
	}
}
