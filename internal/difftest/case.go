// Package difftest is the randomized differential and metamorphic
// correctness harness for the LevelHeaded engine (SQLancer-style
// differential testing; QuickCheck-style shrinking). It generates
// random schemas, adversarial datasets (Zipf key reuse, NaN/±0.0,
// math.MaxInt64, empty and quote-bearing strings, empty tables), and
// random SQL inside the supported grammar, then checks the engine
// against three oracle families:
//
//   - refeval: the brute-force nested-loop evaluator (internal/refeval)
//   - pairwise: the classical hash-join LA engine (internal/pairwise)
//     on random sparse matrices (SpMV / SpMM)
//   - metamorphic: oracle-free relations — predicate partitioning
//     COUNT(P) = COUNT(P∧Q) + COUNT(P∧¬Q), FROM/GROUP BY permutation
//     invariance, and aggregate re-association (Σ_g sum_g = sum)
//
// plus a dictionary-invariant lane that drives internal/dict directly.
// Any disagreement is shrunk to a minimal schema+query JSON artifact
// (see Reduce) for replay via cmd/lhfuzz or internal/crosscheck.
package difftest

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/refeval"
	"repro/internal/storage"
)

// ColDef is one column of a test-case table, JSON-stable.
type ColDef struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"` // "int" | "float" | "string" | "date"
	Role   string `json:"role"` // "key" | "ann"
	Domain string `json:"domain,omitempty"`
	PK     bool   `json:"pk,omitempty"`
}

// TableDef is one table with its rows. Cells are canonical strings so
// that NaN, ±Inf and -0.0 survive the JSON round trip: ints and dates
// as decimal day counts, floats via strconv.FormatFloat('g'), strings
// raw.
type TableDef struct {
	Name string     `json:"name"`
	Cols []ColDef   `json:"cols"`
	Rows [][]string `json:"rows"`
}

// Case is a self-contained repro: the dataset plus one SQL query whose
// engine result must match the reference evaluator.
type Case struct {
	Seed   int64      `json:"seed,omitempty"`
	Lane   string     `json:"lane,omitempty"` // which oracle flagged it
	Note   string     `json:"note,omitempty"`
	Tables []TableDef `json:"tables"`
	SQL    string     `json:"sql"`
	// Extra holds companion queries for metamorphic lanes (the variant
	// set that must agree with SQL).
	Extra []string `json:"extra,omitempty"`
	// Split holds, for the ingest lane, the per-table prefix row count
	// loaded before the first query; the rest is appended live. Values
	// are clamped to each table's row count at run time (so row
	// shrinking during Reduce stays sound).
	Split []int `json:"split,omitempty"`
}

// Marshal renders the case as indented JSON.
func (c *Case) Marshal() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// UnmarshalCase parses a JSON artifact back into a Case.
func UnmarshalCase(b []byte) (*Case, error) {
	var c Case
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

func kindOf(s string) (storage.Kind, error) {
	switch s {
	case "int":
		return storage.Int64, nil
	case "float":
		return storage.Float64, nil
	case "string":
		return storage.String, nil
	case "date":
		return storage.Date, nil
	}
	return 0, fmt.Errorf("difftest: unknown kind %q", s)
}

func kindName(k storage.Kind) string {
	switch k {
	case storage.Int64:
		return "int"
	case storage.Float64:
		return "float"
	case storage.String:
		return "string"
	case storage.Date:
		return "date"
	}
	return "?"
}

func (cd ColDef) storageDef() (storage.ColumnDef, error) {
	k, err := kindOf(cd.Kind)
	if err != nil {
		return storage.ColumnDef{}, err
	}
	role := storage.Annotation
	if cd.Role == "key" {
		role = storage.Key
	}
	return storage.ColumnDef{Name: cd.Name, Kind: k, Role: role, Domain: cd.Domain, PK: cd.PK}, nil
}

// decodeCell parses a canonical cell string into its native value.
func decodeCell(kind string, cell string) (any, error) {
	switch kind {
	case "int", "date":
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("difftest: bad %s cell %q: %v", kind, cell, err)
		}
		return v, nil
	case "float":
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return nil, fmt.Errorf("difftest: bad float cell %q: %v", cell, err)
		}
		return v, nil
	case "string":
		return cell, nil
	}
	return nil, fmt.Errorf("difftest: unknown kind %q", kind)
}

// encodeCell is the inverse of decodeCell.
func encodeCell(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	}
	return fmt.Sprintf("%v", v)
}

// BuildEngine loads the case's tables into a fresh engine.
func (c *Case) BuildEngine(opts ...core.Option) (*core.Engine, error) {
	eng := core.New(opts...)
	for _, td := range c.Tables {
		s := storage.Schema{Name: td.Name}
		for _, cd := range td.Cols {
			def, err := cd.storageDef()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, def)
		}
		t, err := eng.CreateTable(s)
		if err != nil {
			return nil, err
		}
		for _, row := range td.Rows {
			if len(row) != len(td.Cols) {
				return nil, fmt.Errorf("difftest: row width %d for %d cols of %s", len(row), len(td.Cols), td.Name)
			}
			vals := make([]any, len(row))
			for i, cell := range row {
				v, err := decodeCell(td.Cols[i].Kind, cell)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			if err := t.Append(vals...); err != nil {
				return nil, err
			}
		}
	}
	return eng, nil
}

// Relations converts the case's tables into refeval form.
func (c *Case) Relations() (map[string]*refeval.Relation, error) {
	rels := map[string]*refeval.Relation{}
	for _, td := range c.Tables {
		s := storage.Schema{Name: td.Name}
		for _, cd := range td.Cols {
			def, err := cd.storageDef()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, def)
		}
		rel := &refeval.Relation{Schema: s}
		for _, row := range td.Rows {
			vals := make([]any, len(row))
			for i, cell := range row {
				v, err := decodeCell(td.Cols[i].Kind, cell)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			rel.Rows = append(rel.Rows, vals)
		}
		rels[td.Name] = rel
	}
	return rels, nil
}

// --- result normalization and comparison ---

// normRow is one output row in canonical form: exact key-cell strings
// for group columns (used for pairing) and float64s for aggregates.
type normRow struct {
	key   string
	cells []normCell
}

type normCell struct {
	isNum bool
	num   float64
	str   string
	exact string // canonical pairing string
}

func canonNumKey(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if f == 0 {
		return "0"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// canonCellFromEngine normalizes one engine result cell.
func canonCellFromEngine(col *exec.Column, i int) normCell {
	switch col.Kind {
	case exec.KindInt:
		v := col.I64[i]
		return canonInt(v)
	case exec.KindFloat:
		return normCell{isNum: true, num: col.F64[i], exact: canonNumKey(col.F64[i])}
	default:
		return canonStr(col.Str[i])
	}
}

func canonInt(v int64) normCell {
	// Keys can exceed float64's exact range; keep them exact. Values in
	// range canonicalize through float64 so int64 and float64 cells of
	// the same logical value pair up.
	const exactMax = int64(1) << 52
	ex := ""
	if v > exactMax || v < -exactMax {
		ex = strconv.FormatInt(v, 10)
	} else {
		ex = canonNumKey(float64(v))
	}
	return normCell{isNum: true, num: float64(v), exact: ex}
}

func canonStr(s string) normCell {
	// Date-valued group columns surface as "YYYY-MM-DD" strings on some
	// paths and day-count ints on others; normalize to the day count.
	if days, ok := parseDateString(s); ok {
		return canonInt(days)
	}
	return normCell{str: s, exact: "s:" + s}
}

func canonCellFromRef(v any) normCell {
	switch x := v.(type) {
	case int64:
		return canonInt(x)
	case float64:
		return normCell{isNum: true, num: x, exact: canonNumKey(x)}
	case string:
		return canonStr(x)
	case int:
		return canonInt(int64(x))
	}
	return normCell{str: fmt.Sprintf("%v", v), exact: fmt.Sprintf("?%v", v)}
}

func parseDateString(s string) (int64, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	for i, ch := range s {
		if i == 4 || i == 7 {
			continue
		}
		if ch < '0' || ch > '9' {
			return 0, false
		}
	}
	var y, m, d int
	fmt.Sscanf(s, "%04d-%02d-%02d", &y, &m, &d)
	if m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, false
	}
	days, err := parseDate(s)
	if err != nil {
		return 0, false
	}
	return int64(days), true
}

// numEqual compares two numeric cells with a relative tolerance that
// absorbs summation-order differences; NaN equals NaN and infinities
// match by sign.
func numEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	if diff == 0 {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func cellsEqual(a, b normCell) bool {
	if a.isNum != b.isNum {
		return false
	}
	if a.isNum {
		if a.exact == b.exact {
			return true
		}
		return numEqual(a.num, b.num)
	}
	return a.str == b.str
}

// isAggCols derives, per output column, whether it is aggregate-valued
// (tolerance compare) or a group column (exact pairing key).
func normalizeEngine(res *exec.Result, isAgg []bool) []normRow {
	rows := make([]normRow, res.NumRows)
	for i := 0; i < res.NumRows; i++ {
		r := normRow{}
		var kb strings.Builder
		for ci, col := range res.Cols {
			c := canonCellFromEngine(col, i)
			r.cells = append(r.cells, c)
			if ci < len(isAgg) && !isAgg[ci] {
				kb.WriteString(c.exact)
				kb.WriteByte(0)
			}
		}
		r.key = kb.String()
		rows[i] = r
	}
	return rows
}

func normalizeRef(res *refeval.Result) ([]normRow, []bool) {
	isAgg := make([]bool, len(res.Cols))
	for i, c := range res.Cols {
		isAgg[i] = c.IsAgg
	}
	rows := make([]normRow, res.NumRows)
	for i := 0; i < res.NumRows; i++ {
		r := normRow{}
		var kb strings.Builder
		for ci, col := range res.Cols {
			c := canonCellFromRef(col.Vals[i])
			r.cells = append(r.cells, c)
			if !isAgg[ci] {
				kb.WriteString(c.exact)
				kb.WriteByte(0)
			}
		}
		r.key = kb.String()
		rows[i] = r
	}
	return rows, isAgg
}

// compareRows pairs rows by group key and compares cells.
func compareRows(got, want []normRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("row count: engine %d, reference %d", len(got), len(want))
	}
	index := map[string][]int{}
	for i, r := range want {
		index[r.key] = append(index[r.key], i)
	}
	for _, g := range got {
		cands := index[g.key]
		if len(cands) == 0 {
			return fmt.Errorf("engine row with group key %q missing from reference", g.key)
		}
		matched := -1
		for pos, wi := range cands {
			w := want[wi]
			ok := len(g.cells) == len(w.cells)
			for ci := 0; ok && ci < len(g.cells); ci++ {
				ok = cellsEqual(g.cells[ci], w.cells[ci])
			}
			if ok {
				matched = pos
				break
			}
		}
		if matched < 0 {
			w := want[cands[0]]
			return fmt.Errorf("row mismatch for group key %q: engine %s, reference %s",
				g.key, fmtCells(g.cells), fmtCells(w.cells))
		}
		index[g.key] = append(cands[:matched], cands[matched+1:]...)
	}
	return nil
}

func fmtCells(cells []normCell) string {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if c.isNum {
			parts[i] = strconv.FormatFloat(c.num, 'g', -1, 64)
		} else {
			parts[i] = strconv.Quote(c.str)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// CompareResults checks an engine result against the reference result.
func CompareResults(engRes *exec.Result, refRes *refeval.Result) error {
	if len(engRes.Cols) != len(refRes.Cols) {
		return fmt.Errorf("column count: engine %d, reference %d", len(engRes.Cols), len(refRes.Cols))
	}
	want, isAgg := normalizeRef(refRes)
	got := normalizeEngine(engRes, isAgg)
	return compareRows(got, want)
}

// CompareEngineResults checks two engine results for multiset equality
// (used by the metamorphic permutation lane). isAgg marks aggregate
// columns by position.
func CompareEngineResults(a, b *exec.Result, isAgg []bool) error {
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("column count: %d vs %d", len(a.Cols), len(b.Cols))
	}
	return compareRows(normalizeEngine(a, isAgg), normalizeEngine(b, isAgg))
}
