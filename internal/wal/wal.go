// Package wal implements the per-table write-ahead log behind the
// engine's durability guarantee: every acked append is on disk (and,
// depending on the sync policy, fsynced) BEFORE the row becomes
// visible to queries, so a crash can lose at most unacked work.
//
// A table's log is a sequence of numbered segment files
// (<table>-<seq>.wal). Records are length-prefixed, CRC32C-checksummed
// (Castagnoli — the polynomial every storage engine uses because of
// its hardware support), and epoch-stamped. The format is
// deliberately dumb: no compaction inside a segment, no in-place
// mutation, nothing to fsck. Snapshots rotate the live segment and
// delete fully superseded ones; recovery replays whatever segments
// survive, in sequence order, truncating at the first torn or
// corrupt record rather than refusing to start.
//
// Record layout (little-endian):
//
//	u32 payload length
//	u32 CRC32C(payload)
//	payload:
//	  u64 epoch          catalog epoch at append time
//	  u16 batch-id len   0 when the append carried no client batch id
//	  ..  batch-id bytes
//	  u32 row count
//	  ..  row data       per row, per column, by schema kind:
//	                     int/date → u64 two's complement
//	                     float    → u64 IEEE-754 bits
//	                     string   → u32 len + bytes
//
// Segment header: magic "LHWAL001", u16 table-name length, name bytes,
// u64 segment sequence number.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// SyncMode selects when appended records are fsynced.
type SyncMode uint8

const (
	// SyncAlways fsyncs every committed batch before acking — full
	// durability even across power loss, at per-batch fsync cost.
	SyncAlways SyncMode = iota
	// SyncInterval (group commit) writes each batch immediately (so a
	// process crash loses nothing) but batches fsyncs on a timer — the
	// default: a power failure can lose at most one interval.
	SyncInterval
	// SyncNone never fsyncs; the OS flushes when it pleases. Process
	// crashes still lose nothing (writes hit the page cache), but an
	// OS crash can lose arbitrarily recent acks.
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncMode(%d)", uint8(m))
	}
}

// Policy is a sync mode plus its group-commit interval.
type Policy struct {
	Mode SyncMode
	// Interval is the group-commit period for SyncInterval (<= 0 uses
	// DefaultInterval).
	Interval time.Duration
}

// DefaultInterval is the group-commit period when none is given.
const DefaultInterval = 50 * time.Millisecond

// SyncEvery returns the fsync-per-batch policy.
func SyncEvery() Policy { return Policy{Mode: SyncAlways} }

// GroupCommit returns the batched-fsync policy (d <= 0 uses
// DefaultInterval).
func GroupCommit(d time.Duration) Policy { return Policy{Mode: SyncInterval, Interval: d} }

// NoSync returns the never-fsync policy.
func NoSync() Policy { return Policy{Mode: SyncNone} }

// ParsePolicy parses "always", "interval[:duration]" or "none" (the
// lhserve -sync flag syntax).
func ParsePolicy(s string) (Policy, error) {
	mode, arg, _ := strings.Cut(s, ":")
	switch mode {
	case "always":
		return SyncEvery(), nil
	case "interval", "group":
		if arg == "" {
			return GroupCommit(0), nil
		}
		d, err := time.ParseDuration(arg)
		if err != nil {
			return Policy{}, fmt.Errorf("wal: bad sync interval %q: %v", arg, err)
		}
		return GroupCommit(d), nil
	case "none":
		return NoSync(), nil
	}
	return Policy{}, fmt.Errorf("wal: unknown sync policy %q (want always, interval[:dur], none)", s)
}

// Fault-injection points for the disk failure drills.
const (
	// PointWrite simulates a short write: half the record reaches the
	// file, then the write errors (exercises truncate-back recovery).
	PointWrite = "wal.write"
	// PointSync simulates an fsync error.
	PointSync = "wal.sync"
	// PointReplay makes the replayer treat the next record as corrupt
	// (exercises the truncate-and-count recovery path in-process).
	PointReplay = "wal.replay"
	// PointSnapshotWrite simulates a failed snapshot write (owned by
	// internal/snapshot; declared here so every disk fault point lives
	// in one greppable block).
	PointSnapshotWrite = "snapshot.write"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	segMagic  = "LHWAL001"
	recHeader = 8 // u32 len + u32 crc
	// MaxRecordBytes bounds one record; a length prefix beyond it is
	// treated as corruption, not an allocation request.
	MaxRecordBytes = 1 << 30
)

// Encoder builds one record payload. Values are appended in row-major
// schema order by the caller; the encoder is storage-format agnostic.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a record stamped with the given epoch and
// (possibly empty) client batch id, expecting nrows rows.
func NewEncoder(epoch uint64, batchID string, nrows int) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 64)}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, epoch)
	if len(batchID) > math.MaxUint16 {
		batchID = batchID[:math.MaxUint16]
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(batchID)))
	e.buf = append(e.buf, batchID...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(nrows))
	return e
}

// Int64 appends an integer (or date day-count) value.
func (e *Encoder) Int64(v int64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
}

// Float64 appends a float value by bits.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// String appends a string value.
func (e *Encoder) String(v string) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Record is a decoded record: its stamps plus a cursor over the row
// data, read back with the same call sequence the encoder wrote.
type Record struct {
	Epoch   uint64
	BatchID string
	NRows   int

	data []byte
	off  int
	err  error
}

func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) < 8+2+4 {
		return nil, fmt.Errorf("wal: record payload too short (%d bytes)", len(payload))
	}
	r := &Record{Epoch: binary.LittleEndian.Uint64(payload)}
	idLen := int(binary.LittleEndian.Uint16(payload[8:]))
	if 10+idLen+4 > len(payload) {
		return nil, fmt.Errorf("wal: record batch-id overruns payload")
	}
	r.BatchID = string(payload[10 : 10+idLen])
	r.NRows = int(binary.LittleEndian.Uint32(payload[10+idLen:]))
	r.data = payload[10+idLen+4:]
	return r, nil
}

// Int64 reads the next integer value.
func (r *Record) Int64() int64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// Float64 reads the next float value.
func (r *Record) Float64() float64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// String reads the next string value.
func (r *Record) String() string {
	if r.err != nil || r.off+4 > len(r.data) {
		r.fail()
		return ""
	}
	n := int(binary.LittleEndian.Uint32(r.data[r.off:]))
	r.off += 4
	if n < 0 || r.off+n > len(r.data) {
		r.fail()
		return ""
	}
	v := string(r.data[r.off : r.off+n])
	r.off += n
	return v
}

func (r *Record) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wal: record row data overrun (off %d of %d)", r.off, len(r.data))
	}
}

// Err reports whether any read overran the row data — a record that
// checksummed correctly but disagrees with the schema shape.
func (r *Record) Err() error { return r.err }

// Log is one table's live write-ahead log: the currently open segment
// plus rotation state. Safe for concurrent use; the storage layer
// additionally serializes appends per table.
type Log struct {
	mu     sync.Mutex
	dir    string
	table  string
	policy Policy
	f      *os.File
	seq    uint64
	dirty  bool
	broken error

	// OnSync, when set, observes each fsync's latency (the flush
	// latency histogram on /metrics). Set before first use.
	OnSync func(time.Duration)
	// Stats counters, maintained atomically enough under mu.
	records int64
	bytes   int64
	syncs   int64
}

// segName renders a segment filename. Table names are SQL identifiers
// and safe as path components; defensively, path separators are
// folded anyway.
func segName(table string, seq uint64) string {
	table = strings.Map(func(r rune) rune {
		if r == '/' || r == '\\' || r == 0 {
			return '_'
		}
		return r
	}, table)
	return fmt.Sprintf("%s-%d.wal", table, seq)
}

// Segment names one on-disk WAL segment.
type Segment struct {
	Path string
	Seq  uint64
}

// ListSegments returns the table's segments in ascending sequence
// order.
func ListSegments(dir, table string) ([]Segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	prefix := strings.TrimSuffix(segName(table, 0), "0.wal")
	var segs []Segment
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".wal") {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".wal")
		seq, perr := strconv.ParseUint(seqStr, 10, 64)
		if perr != nil {
			continue
		}
		segs = append(segs, Segment{Path: filepath.Join(dir, name), Seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// Open opens (or creates) the table's live segment: the
// highest-numbered existing segment, or segment 1 of a fresh log.
// Callers are expected to have replayed and truncated torn tails
// first (Replay); Open itself validates only the header.
func Open(dir, table string, policy Policy) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := ListSegments(dir, table)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, table: table, policy: policy, seq: 1}
	if len(segs) > 0 {
		l.seq = segs[len(segs)-1].Seq
		f, err := os.OpenFile(segs[len(segs)-1].Path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f = f
		return l, nil
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment creates and headers segment l.seq. Caller holds mu (or
// is constructing the log).
func (l *Log) openSegment() error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.table, l.seq)), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, len(segMagic)+2+len(l.table)+8)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(l.table)))
	hdr = append(hdr, l.table...)
	hdr = binary.LittleEndian.AppendUint64(hdr, l.seq)
	if _, err := f.Write(hdr); err != nil {
		cerr := f.Close()
		_ = cerr // the write error is the one worth reporting
		return err
	}
	l.f = f
	return nil
}

// Seq reports the live segment's sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Counters reports cumulative (records, bytes, syncs).
func (l *Log) Counters() (records, bytes, syncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records, l.bytes, l.syncs
}

// Append commits one encoded record: length + checksum + payload are
// written with a single Write call, then fsynced per policy. The
// record is the durability point — when Append returns nil, the batch
// is on disk (and synced, under SyncAlways). On a write error the log
// truncates back to the pre-record offset so a torn record never
// precedes later good ones; if even the truncate fails the log is
// marked broken and every subsequent Append fails fast.
func (l *Log) Append(e *Encoder) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("wal: log %s broken by earlier failure: %w", l.table, l.broken)
	}
	payload := e.buf
	rec := make([]byte, 0, recHeader+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castagnoli))
	rec = append(rec, payload...)

	start, err := l.f.Seek(0, 2)
	if err != nil {
		l.broken = err
		return err
	}
	if ferr := faultinject.Err(PointWrite); ferr != nil {
		// Simulated short write: half the record lands, then the device
		// errors. The truncate below must clean it up.
		if _, werr := l.f.Write(rec[:len(rec)/2]); werr != nil {
			err = werr
		} else {
			err = ferr
		}
	} else if _, werr := l.f.Write(rec); werr != nil {
		err = werr
	}
	if err != nil {
		if terr := l.f.Truncate(start); terr != nil {
			l.broken = fmt.Errorf("write failed (%v), truncate failed: %w", err, terr)
		}
		return err
	}
	l.records++
	l.bytes += int64(len(rec))
	l.dirty = true
	if l.policy.Mode == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// Sync fsyncs the live segment if it has unsynced writes. The
// group-commit ticker and Drain call this.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty || l.broken != nil {
		return l.broken
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	t0 := time.Now()
	if err := faultinject.Err(PointSync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.syncs++
	if l.OnSync != nil {
		l.OnSync(time.Since(t0))
	}
	return nil
}

// Rotate syncs and closes the live segment and opens the next one,
// returning the sequence number of the segment rotated away — the
// snapshot's truncation cutoff: every record at or below it is
// covered by the snapshot being taken.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, l.broken
	}
	if l.dirty {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	old := l.seq
	l.seq++
	if err := l.openSegment(); err != nil {
		l.broken = err
		return 0, err
	}
	return old, nil
}

// DeleteThrough removes segments with sequence <= cutoff — called
// after a snapshot covering them has been durably renamed into place.
func DeleteThrough(dir, table string, cutoff uint64) error {
	segs, err := ListSegments(dir, table)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.Seq > cutoff {
			continue
		}
		if err := os.Remove(s.Path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Close final-syncs and closes the live segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var serr error
	if l.dirty && l.broken == nil {
		serr = l.syncLocked()
	}
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// ReplayResult summarizes one segment replay.
type ReplayResult struct {
	Records int // intact records decoded
	Rows    int // rows across them
	// DroppedBytes is the torn/corrupt tail length discarded; nonzero
	// means the segment was truncated at ValidSize.
	DroppedBytes   int64
	DroppedRecords int // at least 1 when DroppedBytes > 0
	ValidSize      int64
}

// Replay streams a segment's intact records through fn in order. The
// first torn or checksum-failing record ends the replay: the file is
// truncated back to the last intact boundary (so future appends never
// follow garbage) and the drop is counted, never surfaced as an
// error — recovery's contract is to come up. A non-nil error from fn
// (or an unreadable file) aborts and IS returned: that's a logic or
// I/O failure, not corruption.
func Replay(path string, fn func(*Record) error) (ReplayResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ReplayResult{}, err
	}
	res, err := parse(data, fn)
	if err != nil || res.DroppedRecords == 0 {
		return res, err
	}
	return res, truncateTo(path, res.ValidSize, &res)
}

// parse streams the intact records of a segment's bytes through fn and
// reports where the intact prefix ends (ValidSize) and what follows it
// (DroppedBytes; DroppedRecords is 1 when anything, or the header, is
// bad). It touches no file: Replay truncates.
func parse(data []byte, fn func(*Record) error) (ReplayResult, error) {
	var res ReplayResult
	// Segment header.
	hdrLen := len(segMagic) + 2
	if len(data) < hdrLen || string(data[:len(segMagic)]) != segMagic {
		// Unrecognizable file: drop it wholesale.
		res.DroppedBytes = int64(len(data))
		res.DroppedRecords = 1
		return res, nil
	}
	nameLen := int(binary.LittleEndian.Uint16(data[len(segMagic):]))
	off := hdrLen + nameLen + 8
	if off > len(data) {
		res.DroppedBytes = int64(len(data))
		res.DroppedRecords = 1
		return res, nil
	}
	valid := int64(off)
	for off < len(data) {
		if off+recHeader > len(data) {
			break // torn length prefix
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if plen < 0 || plen > MaxRecordBytes || off+recHeader+plen > len(data) {
			break // torn payload (or nonsense length = corruption)
		}
		payload := data[off+recHeader : off+recHeader+plen]
		if crc32.Checksum(payload, castagnoli) != crc {
			break // bit rot / torn overwrite
		}
		if faultinject.Err(PointReplay) != nil {
			break // injected corruption
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			break // checksummed but structurally invalid: treat as corrupt
		}
		if err := fn(rec); err != nil {
			return res, err
		}
		if rec.Err() != nil {
			// The consumer overran the row data: schema/record mismatch.
			// Count it as corruption and stop.
			break
		}
		res.Records++
		res.Rows += rec.NRows
		off += recHeader + plen
		valid = int64(off)
	}
	res.ValidSize = valid
	if int64(len(data)) > valid {
		res.DroppedBytes = int64(len(data)) - valid
		res.DroppedRecords = 1
	}
	return res, nil
}

// truncateTo physically truncates the segment at the last intact
// boundary. Failure to truncate is reported — the caller decides
// whether to keep booting (recovery does; the next rotation abandons
// the file anyway).
func truncateTo(path string, n int64, res *ReplayResult) error {
	res.ValidSize = n
	if err := os.Truncate(path, n); err != nil {
		return fmt.Errorf("wal: truncating corrupt tail of %s: %w", path, err)
	}
	return nil
}
