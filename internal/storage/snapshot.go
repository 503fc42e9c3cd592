package storage

import (
	"context"
	"fmt"

	"repro/internal/dict"
)

// Snapshot pins one consistent view of the catalog: every table whose
// delta rows have been folded into a generation maps to that
// generation. Queries resolve table handles through the snapshot they
// were admitted with, so a query observes one epoch for its whole
// lifetime no matter how many appends or compactions land while it
// runs.
//
// A nil *Snapshot is the static-catalog fast path: no post-freeze
// mutation has ever happened, handles ARE the data, and resolution is
// a branch on the nil pointer.
type Snapshot struct {
	// Epoch is the monotonically increasing publish sequence.
	Epoch uint64

	seq  uint64            // catalog mutation sequence this snapshot covers
	live map[*Table]*Table // handle → pinned generation
}

// Resolve maps a table handle to the generation pinned by this
// snapshot. Tables without folded deltas resolve to themselves.
func (s *Snapshot) Resolve(t *Table) *Table {
	if s == nil {
		return t
	}
	if g, ok := s.live[t]; ok {
		return g
	}
	return t
}

// noteMutation records a post-freeze append; the next Snapshot call
// rebuilds instead of reusing the cached epoch.
func (c *Catalog) noteMutation() { c.mutSeq.Add(1) }

// MutationSeq reports the catalog's post-freeze mutation sequence
// (0 = never mutated).
func (c *Catalog) MutationSeq() uint64 { return c.mutSeq.Load() }

// Epoch reports the latest published snapshot/compaction epoch.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

// DeltaRows sums the not-yet-compacted delta rows across all tables.
func (c *Catalog) DeltaRows() int {
	total := 0
	for _, name := range c.order {
		total += c.tables[name].DeltaRows()
	}
	return total
}

// Snapshot returns the current consistent view of the catalog,
// building (and caching) a new epoch only when appends have landed
// since the last one. Returns nil — the zero-cost static view — while
// the catalog has never seen a post-freeze append.
func (c *Catalog) Snapshot() *Snapshot {
	seq := c.mutSeq.Load()
	if seq == 0 {
		return nil
	}
	if s := c.snap.Load(); s != nil && s.seq == seq {
		return s
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	// Capture the sequence BEFORE reading any delta rows: appends that
	// race with the build may or may not be folded in, but they bumped
	// the sequence past seq, so the next Snapshot call rebuilds and
	// cannot lose them.
	seq = c.mutSeq.Load()
	if s := c.snap.Load(); s != nil && s.seq == seq {
		return s
	}
	s := &Snapshot{Epoch: c.epoch.Add(1), seq: seq, live: map[*Table]*Table{}}
	for _, name := range c.order {
		t := c.tables[name]
		g := c.refreshGeneration(t)
		if g != t {
			s.live[t] = g
		}
	}
	c.snap.Store(s)
	return s
}

// refreshGeneration folds any unfolded delta rows of t into a new
// immutable generation and publishes it on the handle. Caller holds
// snapMu (generation building and domain-dictionary extension are
// serialized engine-wide).
func (c *Catalog) refreshGeneration(t *Table) *Table {
	t.mu.Lock()
	n := 0
	var view []deltaCol
	if t.delta != nil {
		n = t.delta.rows
		view = t.delta.view(n)
	}
	t.mu.Unlock()
	cur := t.Live()
	if cur.deltaMerged >= n {
		return cur
	}
	g := c.buildGeneration(t, cur, view, n)
	t.live.Store(g)
	return g
}

// buildGeneration produces the immutable generation of t that extends
// cur with delta rows [cur.deltaMerged, n). Base arrays are shared
// structurally: each buffer is append-extended, which either reuses
// cur's backing array beyond its length (older readers only see their
// own prefix) or reallocates — both race-free for concurrent readers
// of older generations. A string column extends only its codes. New
// key values are admitted by extending the shared-domain dictionaries
// in place in the catalog, keeping all existing codes stable.
func (c *Catalog) buildGeneration(t *Table, cur *Table, view []deltaCol, n int) *Table {
	from := cur.deltaMerged
	add := n - from
	g := &Table{
		Schema:      t.Schema,
		NumRows:     cur.NumRows + add,
		byName:      map[string]*Column{},
		frozen:      true,
		cat:         c,
		genSeq:      c.genCounter.Add(1),
		deltaMerged: n,
	}
	for i, hc := range t.Cols {
		cc := cur.Cols[i]
		nc := &Column{Def: hc.Def}
		dv := view[i]
		switch {
		case hc.Def.Role == Key:
			dn := hc.Def.DomainName()
			d := c.domains[dn]
			switch hc.Def.Kind {
			case Int64, Date:
				vals := dv.ints[from:n]
				d = c.extendDomainInts(dn, d, vals)
				nc.Ints = append(cc.Ints, vals...)
				nc.codes = appendCodes(cc.codes, vals, nil, d)
			case String:
				vals := dv.strs[from:n]
				d = c.extendDomainStrs(dn, d, vals)
				nc.codes = appendCodes(cc.codes, nil, vals, d)
			}
			nc.dict = d
		case hc.Def.Kind == String: // string annotation: per-column dict
			vals := dv.strs[from:n]
			d := cc.dict
			if needStrs(d, vals) {
				d = d.ExtendStrings(vals)
			}
			nc.dict = d
			nc.codes = appendCodes(cc.codes, nil, vals, d)
		case hc.Def.Kind == Float64:
			vals := dv.floats[from:n]
			// floats aliases Floats, as at freeze: one array per column.
			nc.Floats = append(cc.Floats, vals...)
			nc.floats = nc.Floats
		default: // Int64/Date annotation
			vals := dv.ints[from:n]
			nc.Ints = append(cc.Ints, vals...)
			nc.floats = cc.floats
			for _, v := range vals {
				nc.floats = append(nc.floats, float64(v))
			}
		}
		g.Cols = append(g.Cols, nc)
		g.byName[hc.Def.Name] = nc
	}
	return g
}

func needInts(d *dict.Dictionary, vals []int64) bool {
	for _, v := range vals {
		if _, ok := d.EncodeInt(v); !ok {
			return true
		}
	}
	return false
}

func needStrs(d *dict.Dictionary, vals []string) bool {
	for _, v := range vals {
		if _, ok := d.EncodeString(v); !ok {
			return true
		}
	}
	return false
}

// extendDomainInts admits new integer key values into a shared join
// domain, publishing the extended dictionary catalog-wide so sibling
// tables mint identical codes for identical values.
func (c *Catalog) extendDomainInts(dn string, d *dict.Dictionary, vals []int64) *dict.Dictionary {
	if !needInts(d, vals) {
		return d
	}
	nd := d.ExtendInts(vals)
	c.domains[dn] = nd
	return nd
}

func (c *Catalog) extendDomainStrs(dn string, d *dict.Dictionary, vals []string) *dict.Dictionary {
	if !needStrs(d, vals) {
		return d
	}
	nd := d.ExtendStrings(vals)
	c.domains[dn] = nd
	return nd
}

// appendCodes append-extends a code buffer with the encodings of vals
// (exactly one of ints/strs is non-nil).
func appendCodes(codes []uint32, ints []int64, strs []string, d *dict.Dictionary) []uint32 {
	for _, v := range ints {
		code, ok := d.EncodeInt(v)
		if !ok {
			panic(fmt.Sprintf("storage: value %d missing after domain extension", v))
		}
		codes = append(codes, code)
	}
	for _, v := range strs {
		code, ok := d.EncodeString(v)
		if !ok {
			panic(fmt.Sprintf("storage: value %q missing after domain extension", v))
		}
		codes = append(codes, code)
	}
	return codes
}

// Compact folds every table's delta rows into its base and truncates
// the delta logs — the fold the snapshot path keeps off the hot path.
// Nothing is copied: a compacted table republishes the arrays of the
// generation queries already read under a fresh generation, and later
// appends extend them as they extend any generation. Dictionary codes
// are stable across compaction (tails are never re-sorted), so query
// results are byte-identical before and after. The context is checked
// per table. It returns the number of delta rows folded away and the
// epoch stamped on compacted tables.
func (c *Catalog) Compact(ctx context.Context) (int, uint64, error) {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	total := 0
	epoch := uint64(0)
	for _, name := range c.order {
		if err := ctx.Err(); err != nil {
			return total, epoch, err
		}
		total += c.compactTable(c.tables[name], &epoch)
	}
	if total > 0 {
		// Invalidate the cached snapshot so the next query pins the
		// compacted generations.
		c.noteMutation()
	}
	return total, epoch, nil
}

// compactTable folds one table's delta log into a generation and
// republishes that generation's arrays with deltaMerged reset to 0:
// every row is base data relative to the truncated log. Caller holds
// snapMu.
func (c *Catalog) compactTable(t *Table, epoch *uint64) int {
	t.mu.Lock()
	n := 0
	var view []deltaCol
	if t.delta != nil {
		n = t.delta.rows
		view = t.delta.view(n)
	}
	t.mu.Unlock()
	if n == 0 {
		return 0
	}
	cur := t.Live()
	if cur.deltaMerged < n {
		cur = c.buildGeneration(t, cur, view, n)
	}
	g := &Table{
		Schema:  t.Schema,
		NumRows: cur.NumRows,
		Cols:    cur.Cols,
		byName:  cur.byName,
		frozen:  true,
		cat:     c,
		genSeq:  c.genCounter.Add(1),
	}
	if *epoch == 0 {
		*epoch = c.epoch.Add(1)
	}
	t.mu.Lock()
	t.delta = t.delta.drop(n)
	t.live.Store(g)
	t.mu.Unlock()
	t.lastCompact.Store(*epoch)
	return n
}
