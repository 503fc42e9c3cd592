// Package snapshot persists the catalog to disk and restores it on
// startup — the checkpoint half of the durability story (internal/wal
// is the log half). A snapshot file holds everything needed to rebuild
// the catalog bit-identically: schemas, per-join-domain dictionaries
// (ordered prefix AND unsorted tail, in original order, so restored
// codes equal pre-crash codes), per-column string-annotation
// dictionaries, the columnar arrays of every table's live generation
// (numeric values as they are, string columns as their dictionary
// codes), and the not-yet-folded delta tail rows.
//
// Atomicity: the file is written to a .tmp sibling, fsynced, renamed
// into place, and the directory fsynced — a crash mid-write leaves the
// previous snapshot untouched. Every section carries a CRC32C;
// recovery picks the newest snapshot whose every section validates and
// silently skips corrupt ones (counting them) rather than refusing to
// start.
//
// The per-level columnar layout (arrays section-by-section, levels
// loadable in isolation) is deliberately the format the ROADMAP's
// out-of-core pager wants to mmap later.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dict"
	"repro/internal/faultinject"
	"repro/internal/storage"
	"repro/internal/wal"
)

const (
	fileMagic = "LHSNAP01"
	// MaxSectionBytes bounds one section; a larger length prefix is
	// corruption, not an allocation request.
	MaxSectionBytes = int64(1) << 40
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TableMeta describes one table inside the manifest.
type TableMeta struct {
	Name      string         `json:"name"`
	Schema    storage.Schema `json:"schema"`
	Rows      int            `json:"rows"`
	NTail     int            `json:"n_tail"`
	WALCutoff uint64         `json:"wal_cutoff"`
}

// Manifest is the JSON header section: everything except bulk data.
type Manifest struct {
	Epoch    uint64      `json:"epoch"`
	Tables   []TableMeta `json:"tables"`
	Domains  []string    `json:"domains"`
	AnnDicts []string    `json:"ann_dicts"` // "table.column" names
	BatchIDs []string    `json:"batch_ids,omitempty"`
}

// Path returns the snapshot filename for an epoch.
func Path(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%d.lhsnap", epoch))
}

// ---- binary value encoding -------------------------------------------------

// writeBufSize is the size of the one buffer every section of a
// snapshot streams through, however large the column.
const writeBufSize = 64 << 10

// enc streams a snapshot file's sections through one fixed buffer. A
// section's payload length is known before the payload is encoded, so
// its header goes out first with a zero CRC; the CRC accumulates as the
// buffer drains and is patched into the header when the section ends —
// in the buffer if the header is still there, in the file otherwise.
// The first write error sticks: later writes are skipped and every
// section returns it.
type enc struct {
	f    *os.File
	buf  []byte // pending bytes; never grows past writeBufSize
	off  int64  // file offset of buf[0]
	open bool   // a section's payload is being encoded
	hdr  int64  // file offset of the open section's header
	from int    // start in buf of payload bytes not yet in crc
	crc  uint32
	err  error
}

func newEnc(f *os.File) *enc { return &enc{f: f, buf: make([]byte, 0, writeBufSize)} }

// drain writes the buffered bytes, folding the open section's share of
// them into its CRC first.
func (e *enc) drain() {
	if e.open {
		e.crc = crc32.Update(e.crc, castagnoli, e.buf[e.from:])
		e.from = 0
	}
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.f.Write(e.buf)
	}
	e.off += int64(len(e.buf))
	e.buf = e.buf[:0]
}

// room drains the buffer unless n more bytes fit.
func (e *enc) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.drain()
	}
}

// section writes one section: its header (payload length, CRC32C)
// and the size-byte payload that body encodes.
func (e *enc) section(size int, body func()) error {
	e.room(12)
	e.hdr = e.off + int64(len(e.buf))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(size))
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0)
	e.open, e.from, e.crc = true, len(e.buf), 0
	body()
	e.crc = crc32.Update(e.crc, castagnoli, e.buf[e.from:])
	e.open = false
	if n := e.off + int64(len(e.buf)) - e.hdr - 12; n != int64(size) && e.err == nil {
		e.err = fmt.Errorf("snapshot: section encoded %d bytes, header says %d", n, size)
	}
	if e.hdr >= e.off {
		binary.LittleEndian.PutUint32(e.buf[e.hdr-e.off+8:], e.crc)
	} else if e.err == nil {
		var sum [4]byte
		binary.LittleEndian.PutUint32(sum[:], e.crc)
		_, e.err = e.f.WriteAt(sum[:], e.hdr+8)
	}
	return e.err
}

func (e *enc) u8(v uint8) {
	e.room(1)
	e.buf = append(e.buf, v)
}
func (e *enc) u32(v uint32) {
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *enc) u64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(v string) {
	e.u64(uint64(len(v)))
	raw(e, v)
}

// raw copies bytes through the buffer in buffer-sized pieces.
func raw[T string | []byte](e *enc, v T) {
	for len(v) > 0 {
		e.room(1)
		n := copy(e.buf[len(e.buf):cap(e.buf)], v)
		e.buf = e.buf[:len(e.buf)+n]
		v = v[n:]
	}
}

type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: section data overrun at offset %d", d.off)
	}
}
func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}
func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}
func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a length prefix for elements that each take at least
// size bytes of what follows. A count those bytes cannot hold is
// corruption, so a decoder never allocates more than its input allows.
func (d *dec) count(size int) int {
	n := d.u64()
	if d.err == nil && n > uint64((len(d.buf)-d.off)/size) {
		d.fail()
		return 0
	}
	return int(n)
}
func (d *dec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	v := string(d.buf[d.off : d.off+n])
	d.off += n
	return v
}

// writeDict writes one dictionary section.
func writeDict(e *enc, s dict.Snapshot) error {
	size := 3 + 7*8 + 8*(len(s.Ints)+len(s.Floats)+len(s.TailInts))
	for _, v := range s.Strs {
		size += 8 + len(v)
	}
	for _, v := range s.TailStrs {
		size += 8 + len(v)
	}
	return e.section(size, func() {
		e.u8(uint8(s.Kind))
		e.u8(b2u(s.Identity))
		e.u8(b2u(s.HasNaN))
		e.u64(uint64(s.Base))
		e.u64(uint64(s.N))
		e.u64(uint64(len(s.Ints)))
		for _, v := range s.Ints {
			e.u64(uint64(v))
		}
		e.u64(uint64(len(s.Floats)))
		for _, v := range s.Floats {
			e.f64(v)
		}
		e.u64(uint64(len(s.Strs)))
		for _, v := range s.Strs {
			e.str(v)
		}
		e.u64(uint64(len(s.TailInts)))
		for _, v := range s.TailInts {
			e.u64(uint64(v))
		}
		e.u64(uint64(len(s.TailStrs)))
		for _, v := range s.TailStrs {
			e.str(v)
		}
	})
}

func decodeDict(data []byte) (*dict.Dictionary, error) {
	d := &dec{buf: data}
	var s dict.Snapshot
	s.Kind = dict.Kind(d.u8())
	s.Identity = d.u8() != 0
	s.HasNaN = d.u8() != 0
	base, n := d.u64(), d.u64()
	if base > math.MaxUint32+1 || n > math.MaxUint32+1 {
		return nil, fmt.Errorf("snapshot: dictionary size %d/%d past the code space", base, n)
	}
	s.Base, s.N = int(base), int(n)
	if n := d.count(8); d.err == nil && n > 0 {
		s.Ints = make([]int64, n)
		for i := range s.Ints {
			s.Ints[i] = int64(d.u64())
		}
	}
	if n := d.count(8); d.err == nil && n > 0 {
		s.Floats = make([]float64, n)
		for i := range s.Floats {
			s.Floats[i] = d.f64()
		}
	}
	if n := d.count(8); d.err == nil && n > 0 {
		s.Strs = make([]string, n)
		for i := range s.Strs {
			s.Strs[i] = d.str()
		}
	}
	if n := d.count(8); d.err == nil && n > 0 {
		s.TailInts = make([]int64, n)
		for i := range s.TailInts {
			s.TailInts[i] = int64(d.u64())
		}
	}
	if n := d.count(8); d.err == nil && n > 0 {
		s.TailStrs = make([]string, n)
		for i := range s.TailStrs {
			s.TailStrs[i] = d.str()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return dict.Restore(s)
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Column section tags. A string column is stored as its dictionary
// codes (colCodes); colStrs, one length-prefixed value per row, is what
// snapshots held before that and is still read.
const (
	colInts uint8 = iota
	colFloats
	colStrs
	colCodes
)

// writeColumn writes one column section: a tag, the value count and
// the values, 8 bytes each, or 4 for a string column's codes.
func writeColumn(e *enc, col *storage.Column) error {
	switch col.Def.Kind {
	case storage.Int64, storage.Date:
		return e.section(9+8*len(col.Ints), func() {
			e.u8(colInts)
			e.u64(uint64(len(col.Ints)))
			for _, v := range col.Ints {
				e.u64(uint64(v))
			}
		})
	case storage.Float64:
		return e.section(9+8*len(col.Floats), func() {
			e.u8(colFloats)
			e.u64(uint64(len(col.Floats)))
			for _, v := range col.Floats {
				e.f64(v)
			}
		})
	}
	codes := col.AnnCodes()
	if col.Def.Role == storage.Key {
		codes = col.KeyCodes()
	}
	return e.section(9+4*len(codes), func() {
		e.u8(colCodes)
		e.u64(uint64(len(codes)))
		for _, v := range codes {
			e.u32(v)
		}
	})
}

// decodeColumn decodes one column section of a column of the given
// kind: []int64, []float64, []uint32 codes, or []string values from a
// snapshot written before string columns were stored as codes.
func decodeColumn(data []byte, kind storage.Kind, rows int) (interface{}, error) {
	d := &dec{buf: data}
	tag := d.u8()
	want := colInts
	switch kind {
	case storage.Float64:
		want = colFloats
	case storage.String:
		want = colCodes
		if tag == colStrs {
			want = colStrs
		}
	}
	if d.err == nil && tag != want {
		return nil, fmt.Errorf("snapshot: column tag %d for a %v column", tag, kind)
	}
	size := 8
	if tag == colCodes {
		size = 4
	}
	n := d.count(size)
	if d.err == nil && n != rows {
		return nil, fmt.Errorf("snapshot: column has %d values, manifest says %d rows", n, rows)
	}
	if d.err != nil {
		return nil, d.err
	}
	var out interface{}
	switch tag {
	case colInts:
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(d.u64())
		}
		out = v
	case colFloats:
		v := make([]float64, n)
		for i := range v {
			v[i] = d.f64()
		}
		out = v
	case colStrs:
		v := make([]string, n)
		for i := range v {
			v[i] = d.str()
		}
		out = v
	default:
		v := make([]uint32, n)
		for i := range v {
			v[i] = d.u32()
		}
		out = v
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// writeTail writes a table's unfolded delta rows, row-major.
func writeTail(e *enc, schema storage.Schema, rows [][]interface{}) error {
	size := 8 + 8*len(rows)*len(schema.Cols)
	for _, r := range rows {
		for i, cd := range schema.Cols {
			if cd.Kind == storage.String {
				size += len(r[i].(string))
			}
		}
	}
	return e.section(size, func() {
		e.u64(uint64(len(rows)))
		for _, r := range rows {
			for i, cd := range schema.Cols {
				switch cd.Kind {
				case storage.Int64, storage.Date:
					e.u64(uint64(r[i].(int64)))
				case storage.Float64:
					e.f64(r[i].(float64))
				case storage.String:
					e.str(r[i].(string))
				}
			}
		}
	})
}

func decodeTail(data []byte, schema storage.Schema, want int) ([][]interface{}, error) {
	d := &dec{buf: data}
	n := d.count(max(1, 8*len(schema.Cols)))
	if d.err == nil && n != want {
		return nil, fmt.Errorf("snapshot: tail has %d rows, manifest says %d", n, want)
	}
	rows := make([][]interface{}, 0, n)
	for r := 0; r < n && d.err == nil; r++ {
		row := make([]interface{}, len(schema.Cols))
		for i, cd := range schema.Cols {
			switch cd.Kind {
			case storage.Int64, storage.Date:
				row[i] = int64(d.u64())
			case storage.Float64:
				row[i] = d.f64()
			case storage.String:
				row[i] = d.str()
			}
		}
		rows = append(rows, row)
	}
	if d.err != nil {
		return nil, d.err
	}
	return rows, nil
}

// ---- file I/O --------------------------------------------------------------

// sectionReader walks the section stream of a loaded file.
type sectionReader struct {
	data []byte
	off  int
}

func (r *sectionReader) next() ([]byte, error) {
	if r.off+12 > len(r.data) {
		return nil, fmt.Errorf("snapshot: truncated at section header (offset %d)", r.off)
	}
	n := int64(binary.LittleEndian.Uint64(r.data[r.off:]))
	crc := binary.LittleEndian.Uint32(r.data[r.off+8:])
	if n < 0 || n > MaxSectionBytes || r.off+12+int(n) > len(r.data) {
		return nil, fmt.Errorf("snapshot: truncated section (offset %d, len %d)", r.off, n)
	}
	payload := r.data[r.off+12 : r.off+12+int(n)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("snapshot: section checksum mismatch at offset %d", r.off)
	}
	r.off += 12 + int(n)
	return payload, nil
}

// Write persists a capture atomically and returns the snapshot path.
// batchIDs is the idempotency dedup set (oldest first) to carry across
// restarts. The previous snapshot file is kept as a recovery fallback;
// anything older is pruned.
func Write(dir string, cap *storage.Capture, batchIDs []string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	m := Manifest{Epoch: cap.Epoch, BatchIDs: batchIDs}
	for dn := range cap.Domains {
		m.Domains = append(m.Domains, dn)
	}
	sort.Strings(m.Domains)
	for _, tc := range cap.Tables {
		m.Tables = append(m.Tables, TableMeta{
			Name: tc.Name, Schema: tc.Schema, Rows: tc.Gen.NumRows,
			NTail: len(tc.TailRows), WALCutoff: tc.WALCutoff,
		})
		for _, cd := range tc.Schema.Cols {
			if cd.Role == storage.Annotation && cd.Kind == storage.String {
				m.AnnDicts = append(m.AnnDicts, tc.Name+"."+cd.Name)
			}
		}
	}
	mjson, err := json.Marshal(&m)
	if err != nil {
		return "", err
	}

	final := Path(dir, cap.Epoch)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	werr := func() error {
		if err := faultinject.Err(wal.PointSnapshotWrite); err != nil {
			return err
		}
		e := newEnc(f)
		raw(e, fileMagic)
		if err := e.section(len(mjson), func() { raw(e, mjson) }); err != nil {
			return err
		}
		for _, dn := range m.Domains {
			if err := writeDict(e, cap.Domains[dn].Export()); err != nil {
				return err
			}
		}
		annByName := map[string]*dict.Dictionary{}
		for _, tc := range cap.Tables {
			for _, col := range tc.Gen.Cols {
				if col.Def.Role == storage.Annotation && col.Def.Kind == storage.String {
					annByName[tc.Name+"."+col.Def.Name] = col.Dict()
				}
			}
		}
		for _, name := range m.AnnDicts {
			d := annByName[name]
			if d == nil {
				// Capture of a never-frozen column dict cannot happen (the
				// catalog is frozen), but guard anyway with an empty dict.
				d = dict.NewBuilder(dict.String).Build()
			}
			if err := writeDict(e, d.Export()); err != nil {
				return err
			}
		}
		for _, tc := range cap.Tables {
			for _, col := range tc.Gen.Cols {
				if err := writeColumn(e, col); err != nil {
					return err
				}
			}
			if err := writeTail(e, tc.Schema, tc.TailRows); err != nil {
				return err
			}
		}
		if e.drain(); e.err != nil {
			return e.err
		}
		return f.Sync()
	}()
	if werr != nil {
		cerr := f.Close()
		_ = cerr // the write error is the one worth reporting
		if rerr := os.Remove(tmp); rerr != nil && !os.IsNotExist(rerr) {
			return "", fmt.Errorf("%v (and removing tmp: %v)", werr, rerr)
		}
		return "", werr
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	if err := prune(dir, cap.Epoch); err != nil {
		return "", err
	}
	return final, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// listSnapshots returns snapshot files newest-epoch first.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var epochs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".lhsnap") {
			continue
		}
		e, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".lhsnap"), 10, 64)
		if perr != nil {
			continue
		}
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	return epochs, nil
}

// prune keeps the snapshot for epoch and its immediate predecessor
// (the fallback if the new file later proves unreadable) and removes
// anything older, plus any stale .tmp files.
func prune(dir string, epoch uint64) error {
	epochs, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	kept := 0
	for _, e := range epochs {
		if e > epoch {
			continue
		}
		kept++
		if kept <= 2 {
			continue
		}
		if err := os.Remove(Path(dir, e)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".lhsnap.tmp") && ent.Name() != filepath.Base(Path(dir, epoch))+".tmp" {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// LoadedTable is one table restored from a snapshot.
type LoadedTable struct {
	Meta     TableMeta
	Cols     map[string]interface{} // column name → []int64 / []float64 / []uint32 codes / []string
	TailRows [][]interface{}
}

// Loaded is a fully validated snapshot ready to rebuild a catalog.
type Loaded struct {
	Path     string
	Manifest Manifest
	Domains  map[string]*dict.Dictionary
	AnnDicts map[string]*dict.Dictionary
	Tables   []LoadedTable
}

// load reads and fully validates one snapshot file.
func load(path string) (*Loaded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(path, data)
}

// parse validates and decodes the bytes of a snapshot file.
func parse(path string, data []byte) (*Loaded, error) {
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("snapshot: %s: bad magic", path)
	}
	r := &sectionReader{data: data, off: len(fileMagic)}
	mjson, err := r.next()
	if err != nil {
		return nil, err
	}
	l := &Loaded{Path: path, Domains: map[string]*dict.Dictionary{}, AnnDicts: map[string]*dict.Dictionary{}}
	if err := json.Unmarshal(mjson, &l.Manifest); err != nil {
		return nil, fmt.Errorf("snapshot: %s: manifest: %v", path, err)
	}
	for _, dn := range l.Manifest.Domains {
		sec, err := r.next()
		if err != nil {
			return nil, err
		}
		d, err := decodeDict(sec)
		if err != nil {
			return nil, fmt.Errorf("snapshot: domain %q: %v", dn, err)
		}
		l.Domains[dn] = d
	}
	for _, name := range l.Manifest.AnnDicts {
		sec, err := r.next()
		if err != nil {
			return nil, err
		}
		d, err := decodeDict(sec)
		if err != nil {
			return nil, fmt.Errorf("snapshot: annotation dict %q: %v", name, err)
		}
		l.AnnDicts[name] = d
	}
	for _, tm := range l.Manifest.Tables {
		lt := LoadedTable{Meta: tm, Cols: map[string]interface{}{}}
		for _, cd := range tm.Schema.Cols {
			sec, err := r.next()
			if err != nil {
				return nil, err
			}
			arr, err := decodeColumn(sec, cd.Kind, tm.Rows)
			if err != nil {
				return nil, fmt.Errorf("snapshot: %s.%s: %v", tm.Name, cd.Name, err)
			}
			lt.Cols[cd.Name] = arr
		}
		sec, err := r.next()
		if err != nil {
			return nil, err
		}
		lt.TailRows, err = decodeTail(sec, tm.Schema, tm.NTail)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %s tail: %v", tm.Name, err)
		}
		l.Tables = append(l.Tables, lt)
	}
	return l, nil
}

// Load finds the newest snapshot in dir whose every section validates.
// Corrupt or torn snapshots are skipped (invalid counts them); no
// snapshot at all returns (nil, 0, nil). Recovery's contract is to
// come up: only directory-level I/O failures are errors.
func Load(dir string) (l *Loaded, invalid int, err error) {
	epochs, err := listSnapshots(dir)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range epochs {
		loaded, lerr := load(Path(dir, e))
		if lerr != nil {
			invalid++
			continue
		}
		return loaded, invalid, nil
	}
	return nil, invalid, nil
}

// BuildCatalog rebuilds a frozen catalog from the loaded snapshot.
// String columns stored as codes are installed as they are, next to
// their restored dictionaries; string values from an older snapshot
// are encoded through those dictionaries, which reproduces the exact
// pre-snapshot codes. If the dictionaries prove inconsistent with the
// column data (a cross-section corruption the per-section CRCs cannot
// see), an older snapshot's values fall back to a fresh Freeze —
// different codes, same query results — while codes, having nothing
// to rebuild from, fail. Delta tail rows are re-appended after the
// freeze, landing in the delta store exactly where they lived before
// the snapshot.
func BuildCatalog(l *Loaded) (*storage.Catalog, error) {
	build := func(withDicts bool) (*storage.Catalog, error) {
		cat := storage.NewCatalog()
		for _, lt := range l.Tables {
			t, err := cat.Create(lt.Meta.Schema)
			if err != nil {
				return nil, err
			}
			if err := t.SetColumnData(lt.Cols); err != nil {
				return nil, err
			}
		}
		var err error
		if withDicts {
			err = cat.FreezeWith(l.Domains, l.AnnDicts)
		} else {
			err = cat.Freeze()
		}
		if err != nil {
			return nil, err
		}
		for _, lt := range l.Tables {
			if len(lt.TailRows) == 0 {
				continue
			}
			if err := cat.Table(lt.Meta.Name).AppendBatch(lt.TailRows); err != nil {
				return nil, err
			}
		}
		cat.RestoreEpoch(l.Manifest.Epoch)
		return cat, nil
	}
	cat, err := build(true)
	if err != nil {
		if fresh, ferr := build(false); ferr == nil {
			return fresh, nil
		}
	}
	return cat, err
}

// ---- schema manifest (recovery without a snapshot) -------------------------

// catalogManifest is the catalog.json payload: the schemas needed to
// decode WAL records when no snapshot exists yet.
type catalogManifest struct {
	Tables []storage.Schema `json:"tables"`
}

// WriteCatalogManifest atomically rewrites catalog.json with the
// current table schemas (creation order).
func WriteCatalogManifest(dir string, schemas []storage.Schema) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&catalogManifest{Tables: schemas}, "", "  ")
	if err != nil {
		return err
	}
	final := filepath.Join(dir, "catalog.json")
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		cerr := f.Close()
		_ = cerr
		return err
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		_ = cerr
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// LoadCatalogManifest reads catalog.json; (nil, nil) when absent or
// unparseable (recovery treats a corrupt manifest as no manifest).
func LoadCatalogManifest(dir string) ([]storage.Schema, error) {
	data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var m catalogManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil
	}
	return m.Tables, nil
}
