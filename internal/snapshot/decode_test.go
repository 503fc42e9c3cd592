package snapshot

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/storage"
)

// TestCountRejectsOverlongPrefix: a length prefix larger than the bytes
// left errors before anything is allocated for it.
func TestCountRejectsOverlongPrefix(t *testing.T) {
	for _, n := range []uint64{17, 1 << 32, 1<<64 - 1} {
		buf := binary.LittleEndian.AppendUint64(nil, n)
		buf = append(buf, make([]byte, 16)...) // 16 bytes remain
		d := &dec{buf: buf}
		if got := d.count(1); d.err == nil {
			t.Fatalf("count %d with 16 bytes left = %d, want an error", n, got)
		}
	}
	d := &dec{buf: append(binary.LittleEndian.AppendUint64(nil, 16), make([]byte, 16)...)}
	if got := d.count(1); d.err != nil || got != 16 {
		t.Fatalf("count of exactly the bytes left = %d, %v", got, d.err)
	}
	d = &dec{buf: append(binary.LittleEndian.AppendUint64(nil, 3), make([]byte, 16)...)}
	if d.count(8); d.err == nil {
		t.Fatal("3 eight-byte elements in 16 bytes accepted")
	}
}

// TestDecodersRejectOverlongCounts: each section decoder errors on a
// count past its input, one past the end and one far past it.
func TestDecodersRejectOverlongCounts(t *testing.T) {
	for _, n := range []uint64{3, 1 << 32} {
		col := append([]byte{colCodes}, binary.LittleEndian.AppendUint64(nil, n)...)
		col = append(col, make([]byte, 8)...) // room for 2 codes
		if _, err := decodeColumn(col, storage.String, int(n)); err == nil {
			t.Fatalf("decodeColumn accepted %d codes in 8 bytes", n)
		}
		dict := []byte{0, 0, 0}
		dict = binary.LittleEndian.AppendUint64(dict, 0)
		dict = binary.LittleEndian.AppendUint64(dict, 0)
		dict = binary.LittleEndian.AppendUint64(dict, n)
		dict = append(dict, make([]byte, 16)...)
		if _, err := decodeDict(dict); err == nil {
			t.Fatalf("decodeDict accepted %d ints in 16 bytes", n)
		}
		schema := storage.Schema{Cols: []storage.ColumnDef{{Name: "x", Kind: storage.Int64}}}
		tail := append(binary.LittleEndian.AppendUint64(nil, n), make([]byte, 16)...)
		if _, err := decodeTail(tail, schema, int(n)); err == nil {
			t.Fatalf("decodeTail accepted %d rows in 16 bytes", n)
		}
	}
}

// TestStringColumnsStoredAsCodes: a string column's section is its
// codes, 4 bytes per row, and loads back as codes.
func TestStringColumnsStoredAsCodes(t *testing.T) {
	cat := buildCatalog(t)
	col := cat.Table("orders").Live().Col("status")
	n := len(col.AnnCodes())
	sec := encodeSection(t, func(e *enc) error { return writeColumn(e, col) })
	if n == 0 || col.Strs != nil || sec[0] != colCodes || len(sec) != 9+4*n {
		t.Fatalf("string column section: tag %d, %d bytes", sec[0], len(sec))
	}
	got, err := decodeColumn(sec, storage.String, n)
	if err != nil {
		t.Fatal(err)
	}
	codes, ok := got.([]uint32)
	if !ok || len(codes) != len(col.AnnCodes()) {
		t.Fatalf("decoded %T", got)
	}
	for i, c := range col.AnnCodes() {
		if codes[i] != c {
			t.Fatalf("code %d = %d, want %d", i, codes[i], c)
		}
	}
	if _, err := decodeColumn(sec, storage.Int64, n); err == nil {
		t.Fatal("codes accepted for an int column")
	}
}

// encodeSection streams one section through write into a file and
// returns its payload once its header's length and CRC check out.
func encodeSection(tb testing.TB, write func(*enc) error) []byte {
	tb.Helper()
	f, err := os.Create(filepath.Join(tb.TempDir(), "section"))
	if err != nil {
		tb.Fatal(err)
	}
	e := newEnc(f)
	if err := write(e); err != nil {
		tb.Fatal(err)
	}
	if e.drain(); e.err != nil {
		tb.Fatal(e.err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		tb.Fatal(err)
	}
	r := &sectionReader{data: data}
	sec, err := r.next()
	if err != nil || r.off != len(data) {
		tb.Fatalf("section of %d bytes: %v", len(data), err)
	}
	return sec
}

// frame wraps a payload as one section: length, CRC32C, payload.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// sections splits a snapshot file into its section payloads.
func sections(tb testing.TB, data []byte) [][]byte {
	tb.Helper()
	r := &sectionReader{data: data, off: len(fileMagic)}
	var out [][]byte
	for r.off < len(data) {
		sec, err := r.next()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, sec)
	}
	return out
}

// Fuzz input selectors: which decoder a payload is fed to.
const (
	fuzzManifest = iota
	fuzzDict
	fuzzColumn
	fuzzTail
	fuzzDecoders
)

// FuzzSnapshotLoad feeds arbitrary payloads to the snapshot section
// decoders: the manifest (as the first section of a file whose other
// sections come from a real snapshot, so it drives the rest of the
// load), dictionaries, columns of every kind in both string encodings,
// and tails. Seeds are the sections of a small snapshot in the current
// format and of testdata's older one. A decoder returns a value or an
// error: it never panics and never allocates more than its input's
// length allows.
func FuzzSnapshotLoad(f *testing.F) {
	cat := buildCatalog(f)
	capt, err := cat.CaptureForSnapshot(nil)
	if err != nil {
		f.Fatal(err)
	}
	path, err := Write(f.TempDir(), capt, []string{"b1"})
	if err != nil {
		f.Fatal(err)
	}
	current, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	older, err := os.ReadFile("testdata/strings-tag.lhsnap")
	if err != nil {
		f.Fatal(err)
	}
	base := sections(f, current)
	for _, file := range [][]byte{current, older} {
		secs := sections(f, file)
		l, err := parse("seed", file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(fuzzManifest), secs[0])
		i := 1
		for range l.Manifest.Domains {
			f.Add(uint8(fuzzDict), secs[i])
			i++
		}
		for range l.Manifest.AnnDicts {
			f.Add(uint8(fuzzDict), secs[i])
			i++
		}
		for _, tm := range l.Manifest.Tables {
			for range tm.Schema.Cols {
				f.Add(uint8(fuzzColumn), secs[i])
				i++
			}
			f.Add(uint8(fuzzTail), secs[i])
			i++
		}
	}
	tailSchema := capt.Tables[0].Schema
	kinds := []storage.Kind{storage.Int64, storage.Float64, storage.String, storage.Date}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// A payload's own count prefix is the count its caller expects,
		// so a well-formed payload decodes all the way through.
		want := func(at int) int {
			if len(data) < at+8 {
				return 0
			}
			return int(binary.LittleEndian.Uint64(data[at:]))
		}
		switch which % fuzzDecoders {
		case fuzzManifest:
			file := append([]byte(fileMagic), frame(data)...)
			for _, sec := range base[1:] {
				file = append(file, frame(sec)...)
			}
			_, _ = parse("fuzz", file)
		case fuzzDict:
			_, _ = decodeDict(data)
		case fuzzColumn:
			for _, k := range kinds {
				_, _ = decodeColumn(data, k, want(1))
			}
		case fuzzTail:
			_, _ = decodeTail(data, tailSchema, want(0))
		}
		runtime.ReadMemStats(&after)
		// The manifest case also re-decodes the seed snapshot's sections.
		limit := uint64(1<<20 + 64*len(data))
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
	})
}
