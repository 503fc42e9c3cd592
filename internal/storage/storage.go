// Package storage implements LevelHeaded's catalog and base-table
// storage (paper §III-A, §III-B). Attributes are classified by a
// user-defined schema as either keys (the only attributes that may
// join; dictionary-encoded into tries, grouped into join domains that
// share a code space) or annotations (aggregatable values held in flat
// columnar buffers).
package storage

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/qerr"
	"repro/internal/wal"
)

// Kind is the logical type of a column.
type Kind uint8

const (
	Int64 Kind = iota
	Float64
	String
	Date // stored as days since 1970-01-01
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int"
	case Float64:
		return "double"
	case String:
		return "string"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Role classifies an attribute per the LevelHeaded data model.
type Role uint8

const (
	// Key attributes are primary/foreign keys: the only joinable
	// attributes, stored in the trie. Keys cannot be aggregated.
	Key Role = iota
	// Annotation attributes carry data values; they can be aggregated,
	// filtered and grouped on, but never joined.
	Annotation
)

// ColumnDef declares one column of a table schema.
type ColumnDef struct {
	Name string
	Kind Kind
	Role Role
	// Domain names the join domain of a Key column; key columns sharing
	// a domain share one order-preserving dictionary and are therefore
	// join-compatible. Empty means the column name itself.
	Domain string
	// PK marks a single-column primary key. The planner uses it to
	// resolve GROUP BY annotations through the metadata container
	// (paper §IV-A rule 4): the PK vertex code locates the source row.
	PK bool
}

// DomainName resolves the effective join-domain name.
func (c *ColumnDef) DomainName() string {
	if c.Domain != "" {
		return c.Domain
	}
	return c.Name
}

// Schema is an ordered list of column definitions.
type Schema struct {
	Name string
	Cols []ColumnDef
}

// Col returns the definition of the named column, or nil.
func (s *Schema) Col(name string) *ColumnDef {
	for i := range s.Cols {
		if s.Cols[i].Name == name {
			return &s.Cols[i]
		}
	}
	return nil
}

// Column is the typed columnar storage for one attribute.
type Column struct {
	Def ColumnDef
	// Ints holds Int64 and Date values; Floats holds Float64 values.
	// Strs stages String values until Catalog.Freeze encodes them into
	// codes: Strs is nil on every frozen column, whose dictionary codes
	// are its only stored form. Read a String column's values through
	// Str, which decodes after freeze.
	Ints   []int64
	Floats []float64
	Strs   []string

	// codes/dict cache the encoded form, built by Catalog.Freeze:
	// domain-encoded for keys, per-column encoded for string annotations.
	codes  []uint32
	dict   *dict.Dictionary
	floats []float64 // numeric annotation cache (int/date → float64)
}

// Str returns row i of a String column: the staged value before
// freeze, the value decoded through the column's dictionary after.
func (col *Column) Str(i int) string {
	if col.Strs != nil {
		return col.Strs[i]
	}
	return col.dict.DecodeString(col.codes[i])
}

// Table is a base relation: schema plus columnar data.
//
// A Table value plays two roles. The HANDLE is the struct returned by
// Catalog.Create: it owns the mutation state (delta log, published
// generation pointer) and its Cols hold the frozen base arrays. A
// GENERATION is an immutable Table built by a snapshot or compaction:
// base arrays plus folded delta rows, published on the handle's live
// pointer and pinned by epoch snapshots. Executors never see the
// distinction — they receive whichever *Table the snapshot resolves.
type Table struct {
	Schema  Schema
	NumRows int
	Cols    []*Column

	byName map[string]*Column
	frozen bool

	// Mutation state (meaningful on the handle only).
	cat         *Catalog // owning catalog; nil for standalone tables
	mu          sync.Mutex
	delta       *deltaStore           // post-freeze append log
	wal         *wal.Log              // durability sink; nil when not durable
	live        atomic.Pointer[Table] // latest generation; nil ⇒ no deltas ever folded
	lastCompact atomic.Uint64         // epoch of the last compaction

	// Generation metadata (meaningful on generations).
	genSeq      uint64 // unique build sequence, 0 for the handle
	deltaMerged int    // delta-log rows folded into this generation
}

// Frozen reports whether the owning catalog has been frozen. A frozen
// table's base arrays are immutable; appends land in its delta store.
func (t *Table) Frozen() bool { return t.frozen }

// Live returns the freshest published generation of t (t itself when no
// delta rows have ever been folded). Safe to call concurrently.
func (t *Table) Live() *Table {
	if g := t.live.Load(); g != nil {
		return g
	}
	return t
}

// LiveRows reports the row count of the freshest published generation —
// what the planner should cost against, as opposed to NumRows, which on
// a handle counts only base rows.
func (t *Table) LiveRows() int { return t.Live().NumRows }

// Generation returns this table struct's build sequence (0 for a
// handle's base data). Trie caches key on it to separate generations.
func (t *Table) Generation() uint64 { return t.genSeq }

// DeltaRows reports how many appended rows sit in the delta log, i.e.
// have not yet been folded away by Compact. (Rows already visible to
// queries via a snapshot still count until compaction truncates them.)
func (t *Table) DeltaRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.delta == nil {
		return 0
	}
	return t.delta.rows
}

// LastCompactEpoch reports the catalog epoch of this table's most
// recent compaction (0 = never compacted).
func (t *Table) LastCompactEpoch() uint64 { return t.lastCompact.Load() }

// TotalRows reports the rows a fresh snapshot would expose: the live
// generation's rows plus any delta rows not yet folded into it.
func (t *Table) TotalRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.Live()
	n := 0
	if t.delta != nil {
		n = t.delta.rows
	}
	return live.NumRows + (n - live.deltaMerged)
}

// NewTable creates an empty table for the schema.
func NewTable(s Schema) *Table {
	t := &Table{Schema: s, byName: map[string]*Column{}}
	for _, cd := range s.Cols {
		c := &Column{Def: cd}
		t.Cols = append(t.Cols, c)
		t.byName[cd.Name] = c
	}
	return t
}

// Col returns the named column, or nil.
func (t *Table) Col(name string) *Column { return t.byName[name] }

// Append appends one row, before or after freeze. Values must match the
// schema's kinds: int64 for Int64, float64 for Float64, string for
// String, and either int64 (day count) or string ("YYYY-MM-DD") for
// Date. Before freeze the row lands in the base arrays; after freeze it
// lands in the table's delta store and becomes visible to the next
// query without an explicit compaction. Safe for concurrent use.
func (t *Table) Append(vals ...interface{}) error {
	row, err := t.convertRow(vals)
	if err != nil {
		return err
	}
	return t.appendCells([][]cell{row})
}

// AppendBatch appends many rows atomically: every row is type-checked
// before any storage is touched, so a bad row rejects the whole batch.
// Safe for concurrent use, before or after freeze.
func (t *Table) AppendBatch(rows [][]interface{}) error {
	conv := make([][]cell, len(rows))
	for i, r := range rows {
		row, err := t.convertRow(r)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		conv[i] = row
	}
	return t.appendCells(conv)
}

func (t *Table) convertRow(vals []interface{}) ([]cell, error) {
	if len(vals) != len(t.Cols) {
		return nil, fmt.Errorf("storage: %d values for %d columns of %s", len(vals), len(t.Cols), t.Schema.Name)
	}
	row := make([]cell, len(vals))
	for i, c := range t.Cols {
		cv, err := convertCell(t.Schema.Name, &c.Def, vals[i])
		if err != nil {
			return nil, err
		}
		row[i] = cv
	}
	return row, nil
}

// appendCells commits converted rows: into the base arrays before
// freeze, into the delta log after. It synchronizes against Freeze via
// the catalog's freeze lock and against concurrent appenders and
// snapshot builds via the table mutex.
func (t *Table) appendCells(rows [][]cell) error { return t.appendCellsID(rows, "") }

// appendCellsID is appendCells with a client batch id destined for the
// WAL record. When a WAL is attached, the batch is logged (and synced,
// per policy) while holding the table mutex, BEFORE any row is
// committed — a WAL failure rejects the whole batch, so an acked
// append is always on disk and an unacked one is never visible.
func (t *Table) appendCellsID(rows [][]cell, batchID string) error {
	if len(rows) == 0 {
		return nil
	}
	if t.cat != nil {
		t.cat.freezeMu.RLock()
		defer t.cat.freezeMu.RUnlock()
	}
	t.mu.Lock()
	if t.wal != nil {
		if err := t.walAppendLocked(rows, batchID); err != nil {
			t.mu.Unlock()
			return fmt.Errorf("storage: wal append on %s: %w", t.Schema.Name, err)
		}
	}
	frozen := t.frozen
	if frozen {
		if t.delta == nil {
			t.delta = newDeltaStore(len(t.Cols))
		}
		for _, r := range rows {
			t.delta.push(t.Cols, r)
		}
	} else {
		for _, r := range rows {
			for i, c := range t.Cols {
				switch c.Def.Kind {
				case Int64, Date:
					c.Ints = append(c.Ints, r[i].i)
				case Float64:
					c.Floats = append(c.Floats, r[i].f)
				case String:
					c.Strs = append(c.Strs, r[i].s)
				}
			}
			t.NumRows++
		}
	}
	t.mu.Unlock()
	if frozen && t.cat != nil {
		t.cat.noteMutation()
	}
	return nil
}

// loadChunkRows is how many parsed rows LoadDelimitedContext buffers
// between context checks and storage commits.
const loadChunkRows = 1024

// LoadDelimitedContext bulk-loads delimiter-separated rows (e.g. '|'
// for TPC-H .tbl files, ',' for CSV). Trailing delimiters are
// tolerated; fields must match the schema order. The context is checked
// at chunk boundaries (every loadChunkRows rows), so a cancelled load
// returns ctx.Err() promptly; rows from fully committed chunks remain
// appended. Works before and after freeze — post-freeze rows land in
// the delta store like Append.
func (t *Table) LoadDelimitedContext(ctx context.Context, r io.Reader, delim byte) error {
	br := bufio.NewReaderSize(r, 1<<20)
	line := 0
	batch := make([][]cell, 0, loadChunkRows)
	flush := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(batch) == 0 {
			return nil
		}
		if err := t.appendCells(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	for {
		raw, err := br.ReadString('\n')
		if raw != "" {
			line++
			raw = strings.TrimRight(raw, "\r\n")
			if raw == "" {
				if err != nil {
					break
				}
				continue
			}
			raw = strings.TrimSuffix(raw, string(delim))
			fields := strings.Split(raw, string(delim))
			if len(fields) != len(t.Cols) {
				return fmt.Errorf("storage: %s line %d: %d fields for %d columns", t.Schema.Name, line, len(fields), len(t.Cols))
			}
			row := make([]cell, len(t.Cols))
			for i, c := range t.Cols {
				cv, perr := parseCell(&c.Def, fields[i])
				if perr != nil {
					return fmt.Errorf("storage: %s line %d col %s: %v", t.Schema.Name, line, c.Def.Name, perr)
				}
				row[i] = cv
			}
			batch = append(batch, row)
			if len(batch) >= loadChunkRows {
				if ferr := flush(); ferr != nil {
					return ferr
				}
			}
		}
		if err != nil {
			if err == io.EOF {
				return flush()
			}
			return err
		}
	}
	return flush()
}

// SetColumnData installs pre-built columnar data, replacing the current
// contents; all columns must have equal length. Used by generators to
// avoid per-row appends. A String column may instead be given its
// dictionary codes ([]uint32), as a snapshot stores it: the FreezeWith
// that follows must then supply the column's dictionary.
func (t *Table) SetColumnData(data map[string]interface{}) error {
	if t.frozen {
		return &qerr.FrozenTableError{Table: t.Schema.Name, Op: "SetColumnData"}
	}
	n := -1
	for name, raw := range data {
		c := t.byName[name]
		if c == nil {
			return &qerr.UnknownColumnError{Table: t.Schema.Name, Column: name}
		}
		var ln int
		switch v := raw.(type) {
		case []int64:
			if c.Def.Kind != Int64 && c.Def.Kind != Date {
				return fmt.Errorf("storage: %s.%s kind mismatch", t.Schema.Name, name)
			}
			c.Ints = v
			ln = len(v)
		case []float64:
			if c.Def.Kind != Float64 {
				return fmt.Errorf("storage: %s.%s kind mismatch", t.Schema.Name, name)
			}
			c.Floats = v
			ln = len(v)
		case []string:
			if c.Def.Kind != String {
				return fmt.Errorf("storage: %s.%s kind mismatch", t.Schema.Name, name)
			}
			c.Strs, c.codes = v, nil
			ln = len(v)
		case []uint32:
			if c.Def.Kind != String {
				return fmt.Errorf("storage: %s.%s kind mismatch", t.Schema.Name, name)
			}
			c.Strs, c.codes = nil, v
			ln = len(v)
		default:
			return fmt.Errorf("storage: unsupported column data %T for %s.%s", raw, t.Schema.Name, name)
		}
		if n >= 0 && ln != n {
			return fmt.Errorf("storage: ragged columns in %s", t.Schema.Name)
		}
		n = ln
	}
	if len(data) != len(t.Cols) {
		return fmt.Errorf("storage: %d columns supplied for %d in %s", len(data), len(t.Cols), t.Schema.Name)
	}
	t.NumRows = n
	return nil
}
