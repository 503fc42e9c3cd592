package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/qerr"
)

// Catalog owns the base tables, the per-join-domain key dictionaries,
// and the encoded column caches. After Freeze the base arrays are
// immutable and safe for concurrent readers; live appends accumulate in
// per-table delta stores and are published to queries through epoch
// snapshots (see snapshot.go).
type Catalog struct {
	tables  map[string]*Table
	order   []string
	domains map[string]*dict.Dictionary
	frozen  bool

	// onCreate, when set (see OnCreate), observes every successful
	// Create — including ones made directly on the catalog by dataset
	// generators, bypassing the engine facade. The durability layer
	// uses it to attach a WAL to every table no matter who created it.
	onCreate func(*Table) error

	// freezeMu serializes Freeze against concurrent appenders (writers
	// hold the read side; Freeze holds the write side while it scans the
	// base arrays and flips the frozen flags).
	freezeMu sync.RWMutex
	// snapMu serializes snapshot generation builds and compactions —
	// the only code paths that extend domain dictionaries.
	snapMu     sync.Mutex
	snap       atomic.Pointer[Snapshot]
	mutSeq     atomic.Uint64
	epoch      atomic.Uint64
	genCounter atomic.Uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}, domains: map[string]*dict.Dictionary{}}
}

// Create registers an empty table for the schema and returns it.
func (c *Catalog) Create(s Schema) (*Table, error) {
	if c.frozen {
		return nil, &qerr.FrozenTableError{Table: s.Name, Op: "Create"}
	}
	if s.Name == "" {
		return nil, fmt.Errorf("storage: table needs a name")
	}
	if _, dup := c.tables[s.Name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", s.Name)
	}
	seen := map[string]bool{}
	for _, cd := range s.Cols {
		if seen[cd.Name] {
			return nil, fmt.Errorf("storage: duplicate column %q in %s", cd.Name, s.Name)
		}
		seen[cd.Name] = true
		if cd.Role == Key && cd.Kind == Float64 {
			return nil, fmt.Errorf("storage: float keys are not supported (%s.%s)", s.Name, cd.Name)
		}
	}
	t := NewTable(s)
	t.cat = c
	c.tables[s.Name] = t
	c.order = append(c.order, s.Name)
	if c.onCreate != nil {
		if err := c.onCreate(t); err != nil {
			delete(c.tables, s.Name)
			c.order = c.order[:len(c.order)-1]
			return nil, fmt.Errorf("storage: create hook for %s: %w", s.Name, err)
		}
	}
	return t, nil
}

// OnCreate installs a hook observing every subsequent Create (a hook
// error fails the Create and unregisters the table). One hook; calling
// again replaces it.
func (c *Catalog) OnCreate(fn func(*Table) error) { c.onCreate = fn }

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table { return c.tables[name] }

// Tables lists table names in creation order.
func (c *Catalog) Tables() []string { return append([]string(nil), c.order...) }

// Frozen reports whether Freeze has run.
func (c *Catalog) Frozen() bool { return c.frozen }

// Freeze builds the per-domain key dictionaries, encodes every key
// column, encodes string annotation columns with per-column
// dictionaries, and converts numeric annotations to float64 buffers.
// The codes then become a string column's only stored form: its staged
// values (Strs) are dropped.
// It corresponds to the data-statistics / encoding phase that the
// paper's measurements exclude. Freeze is no longer a one-way door for
// writes: rows appended after it land in per-table delta stores and
// surface through epoch snapshots (snapshot.go); Compact folds them
// into the base generation and truncates the delta logs.
func (c *Catalog) Freeze() error { return c.freezeWith(nil, nil) }

// FreezeWith freezes using dictionaries restored from a snapshot
// instead of building fresh ones: provided domain dictionaries (keyed
// by domain name) and string-annotation dictionaries (keyed
// "table.column") are installed as-is. A string column staged as codes
// keeps them, each checked against its dictionary; one staged as
// values (a snapshot written before codes were stored) is encoded
// against it. Because a restored dictionary carries its unsorted tail
// in original first-seen order, the encoded codes are exactly the
// pre-snapshot codes. A value or code missing from a provided
// dictionary means the snapshot is inconsistent: FreezeWith fails
// without freezing. For value-staged columns the caller may fall back
// to a plain Freeze (fresh dictionaries — different codes, same query
// semantics); code-staged columns have no values to rebuild from.
func (c *Catalog) FreezeWith(domains, ann map[string]*dict.Dictionary) error {
	return c.freezeWith(domains, ann)
}

func (c *Catalog) freezeWith(provDomains, provAnn map[string]*dict.Dictionary) error {
	if c.frozen {
		return nil
	}
	c.freezeMu.Lock()
	defer c.freezeMu.Unlock()
	// Collect domain value sets across tables.
	type domainCols struct {
		kind Kind
		cols []*Column
	}
	domains := map[string]*domainCols{}
	for _, name := range c.order {
		t := c.tables[name]
		for _, col := range t.Cols {
			if col.Def.Role != Key {
				continue
			}
			dn := col.Def.DomainName()
			dc := domains[dn]
			if dc == nil {
				dc = &domainCols{kind: col.Def.Kind}
				domains[dn] = dc
			}
			if dc.kind != col.Def.Kind {
				return fmt.Errorf("storage: domain %q mixes kinds %v and %v", dn, dc.kind, col.Def.Kind)
			}
			dc.cols = append(dc.cols, col)
		}
	}
	// Build one order-preserving dictionary per domain. Integer domains
	// whose values are exactly a dense range [min, max] with min >= 0 and
	// small span get the identity-like dictionary via ranks anyway —
	// order preservation is what matters.
	names := make([]string, 0, len(domains))
	for dn := range domains {
		names = append(names, dn)
	}
	sort.Strings(names)
	for _, dn := range names {
		dc := domains[dn]
		var d *dict.Dictionary
		if prov := provDomains[dn]; prov != nil {
			d = prov
		} else {
			switch dc.kind {
			case Int64, Date:
				b := dict.NewBuilder(dict.Int)
				for _, col := range dc.cols {
					for _, v := range col.Ints {
						b.AddInt(v)
					}
				}
				d = b.Build()
			case String:
				d = buildStrings(dc.cols)
			default:
				return fmt.Errorf("storage: unsupported key kind in domain %q", dn)
			}
		}
		c.domains[dn] = d
		for _, col := range dc.cols {
			col.dict = d
			if dc.kind == String {
				if err := encodeStrings(col, d); err != nil {
					return fmt.Errorf("%v in domain %q", err, dn)
				}
				continue
			}
			col.codes = make([]uint32, len(col.Ints))
			for i, v := range col.Ints {
				code, ok := d.EncodeInt(v)
				if !ok {
					return fmt.Errorf("storage: value %d missing from domain %q", v, dn)
				}
				col.codes[i] = code
			}
		}
	}
	// Encode string annotations per column; cache numeric annotations as
	// float64 buffers.
	for _, name := range c.order {
		t := c.tables[name]
		for _, col := range t.Cols {
			if col.Def.Role != Annotation {
				continue
			}
			switch col.Def.Kind {
			case String:
				d := provAnn[name+"."+col.Def.Name]
				if d == nil {
					d = buildStrings([]*Column{col})
				}
				col.dict = d
				if err := encodeStrings(col, d); err != nil {
					return fmt.Errorf("%v in dictionary %s.%s", err, name, col.Def.Name)
				}
			case Float64:
				col.floats = col.Floats
				if col.floats == nil {
					// An empty table has a nil Floats buffer; expression
					// compilation distinguishes "numeric buffer present"
					// from "string annotation" by nil-ness, so freeze an
					// empty (non-nil) buffer to keep zero-row relations
					// filterable.
					col.floats = []float64{}
				}
			case Int64, Date:
				col.floats = make([]float64, len(col.Ints))
				for i, v := range col.Ints {
					col.floats[i] = float64(v)
				}
			}
		}
	}
	for _, t := range c.tables {
		for _, col := range t.Cols {
			if col.Def.Kind == String && len(col.codes) != t.NumRows {
				return fmt.Errorf("storage: %s.%s has %d codes for %d rows", t.Schema.Name, col.Def.Name, len(col.codes), t.NumRows)
			}
		}
	}
	// Codes are now the only stored form of a string column.
	c.frozen = true
	for _, t := range c.tables {
		t.frozen = true
		for _, col := range t.Cols {
			col.Strs = nil
		}
	}
	return nil
}

// buildStrings builds a fresh dictionary over the staged values of
// cols. A column staged as codes adds nothing, so its codes then fail
// encodeStrings' range check: its dictionary must be supplied.
func buildStrings(cols []*Column) *dict.Dictionary {
	b := dict.NewBuilder(dict.String)
	for _, col := range cols {
		for _, v := range col.Strs {
			b.AddString(v)
		}
	}
	return b.Build()
}

// encodeStrings fills a String column's codes from its staged values
// through d. A column staged as codes (SetColumnData with []uint32, as
// a snapshot restores it) keeps them once each is checked against d.
func encodeStrings(col *Column, d *dict.Dictionary) error {
	if col.Strs == nil {
		for _, code := range col.codes {
			if int(code) >= d.Len() {
				return fmt.Errorf("storage: code %d out of range", code)
			}
		}
		if col.codes == nil {
			col.codes = []uint32{}
		}
		return nil
	}
	col.codes = make([]uint32, len(col.Strs))
	for i, v := range col.Strs {
		code, ok := d.EncodeString(v)
		if !ok {
			return fmt.Errorf("storage: value %q missing", v)
		}
		col.codes[i] = code
	}
	return nil
}

// Domain returns the dictionary of the named join domain (post-Freeze).
func (c *Catalog) Domain(name string) *dict.Dictionary { return c.domains[name] }

// KeyCodes returns the domain-encoded codes of a key column.
func (col *Column) KeyCodes() []uint32 { return col.codes }

// Dict returns the dictionary of a key column or string annotation.
func (col *Column) Dict() *dict.Dictionary { return col.dict }

// AnnFloats returns a numeric annotation as float64s (dates as day
// counts). Nil for string annotations.
func (col *Column) AnnFloats() []float64 { return col.floats }

// AnnCodes returns a string annotation's per-column codes.
func (col *Column) AnnCodes() []uint32 {
	if col.Def.Role == Annotation && col.Def.Kind == String {
		return col.codes
	}
	return nil
}
