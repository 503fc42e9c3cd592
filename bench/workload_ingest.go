package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// flushPolicy is lhserve's default: WAL write per batch, fsync on a
// 50 ms group-commit tick.
func flushPolicy() wal.Policy { return wal.GroupCommit(wal.DefaultInterval) }

// ingestInst is a durable TPC-H engine. One round is an acknowledged
// lineitem batch followed by one query (q6 → q1 → q3 in rotation), with
// a Compact every compactEvery batches; the harness keeps running
// totals of what was acknowledged to check reads against.
type ingestInst struct {
	baseInst
	cfg config
	eng *core.Engine
	dir string
	sz  tpch.Sizes

	batches   int
	rows      int
	qty       float64 // sum(l_quantity) over base + acknowledged rows
	userBytes float64 // payload bytes of the acknowledged rows
	snapBytes float64 // snapshot files written by Compact
	wal0      [3]int64
}

func newIngest(cfg config) (instance, setupParts, error) {
	dir, err := mkTemp(cfg, "ingest-*")
	if err != nil {
		return nil, setupParts{}, err
	}
	in := &ingestInst{cfg: cfg, dir: dir}
	in.eng = core.New(core.WithThreads(cfg.threads), core.WithDurability(dir, flushPolicy()))
	sz, parts, err := populateTPCH(in.eng, cfg.size.sfIngest, cfg.seed)
	if err == nil {
		// Bulk population bypasses the WAL; the initial snapshot makes it
		// durable, as lhserve does on a fresh data directory.
		err = in.eng.Compact(context.Background())
	}
	if err != nil {
		in.close()
		return nil, parts, err
	}
	in.sz, in.rows = sz, sz.Lineitem
	for _, q := range in.eng.Catalog().Table("lineitem").Col("l_quantity").Floats {
		in.qty += q
	}
	in.wal0 = in.walCounters()
	return in, parts, nil
}

func (in *ingestInst) engines() []*core.Engine { return []*core.Engine{in.eng} }

func (in *ingestInst) walCounters() (c [3]int64) {
	if l := in.eng.Catalog().Table("lineitem").WAL(); l != nil {
		c[0], c[1], c[2] = l.Counters()
	}
	return c
}

func (in *ingestInst) round(r *rand.Rand, x *executor) {
	ctx := context.Background()
	batch := lineitemBatch(r, in.sz, in.cfg.size.batchRows)
	id := fmt.Sprintf("b%08d", in.batches)
	in.batches++
	x.do("ingest_batch", opWrite, func() error {
		n, dup, err := in.eng.IngestBatch(ctx, "lineitem", id, batch)
		if err == nil && (dup || n != len(batch)) {
			err = fmt.Errorf("acknowledged %d of %d rows (duplicate=%v)", n, len(batch), dup)
		}
		return err
	})
	in.rows += len(batch)
	for _, row := range batch {
		in.qty += row[4].(float64)
		in.userBytes += float64(11*8 + len(row[8].(string)) + len(row[9].(string)) + len(row[13].(string)))
	}

	name := []string{"q6", "q1", "q3"}[in.batches%3]
	x.query(name, in.eng, paramSQL(name, r), true)

	if in.batches%in.cfg.size.compactEvery == 0 {
		x.do("compact", opMaint, func() error { return in.eng.Compact(ctx) })
		in.snapBytes += newestSnapshotSize(in.dir)
	}
	if in.batches%in.cfg.size.checkEvery == 0 {
		x.check("count/sum after batch "+id, in.checkTotals(in.eng))
	}
}

// checkTotals compares count(*) and sum(l_quantity) over lineitem with
// the running totals of acknowledged rows.
func (in *ingestInst) checkTotals(eng *core.Engine) error {
	res, err := eng.Query("SELECT count(*) as c, sum(l_quantity) as q FROM lineitem")
	if err != nil {
		return err
	}
	c, q := res.Cols[0].Float(0), res.Cols[1].Float(0)
	if c != float64(in.rows) || math.Abs(q-in.qty) > 1e-9*in.qty {
		return fmt.Errorf("count %v sum %v, acknowledged %d rows with sum %v", c, q, in.rows, in.qty)
	}
	return nil
}

// verify: the warm-up rounds have already appended rows the comparator
// engines cannot see, so the paper texts are checked on bi_join/bi_scan;
// here reads are checked against the acknowledged totals.
func (in *ingestInst) verify(x *executor) { x.check("count/sum after set-up", in.checkTotals(in.eng)) }

// finish stops the engine cleanly, reopens its directory and times
// recovery up to the first verified query: every acknowledged row must
// be readable after the restart.
func (in *ingestInst) finish(x *executor) {
	wc := in.walCounters()
	batches := float64(in.batches)
	rows := batches * float64(in.cfg.size.batchRows)
	walBytes := float64(wc[1] - in.wal0[1])
	acks := x.vals(&x.op("ingest_batch", opWrite).ms)
	ackMs := 0.0
	for _, v := range acks {
		ackMs += v
	}
	x.lay["ingest.rows_per_s"] = ratio(float64(len(acks)*in.cfg.size.batchRows), ackMs/1e3)
	x.lay["ingest.ack_ms_p50"] = median(acks)
	x.lay["wal.bytes_per_row"] = ratio(walBytes, rows)
	x.lay["wal.syncs_per_batch"] = ratio(float64(wc[2]-in.wal0[2]), batches)
	x.lay["storage.write_amp"] = ratio(walBytes+in.snapBytes, in.userBytes)
	compacts := x.op("compact", opMaint).ms.v
	x.lay["storage.compact_ms_p50"] = median(compacts)
	x.lay["storage.compact_count"] = float64(len(compacts))

	shutdown(in.eng)
	t0 := time.Now()
	in.eng = core.New(core.WithThreads(in.cfg.threads), core.WithDurability(in.dir, flushPolicy()))
	err := in.eng.RecoveryError()
	if err == nil {
		err = in.checkTotals(in.eng)
	}
	x.lay["ingest.recovery_s"] = time.Since(t0).Seconds()
	x.check("recovery", err)
	x.lay["wal.records_dropped"] = float64(in.eng.Telemetry().Counters()["wal_records_dropped"])
}

// layers times the storage, WAL and snapshot calls an ingest makes, one
// at a time, on scratch copies: nothing here touches the measured engine's
// directory.
func (in *ingestInst) layers(x *executor) {
	tableLayers(x, in.eng, "lineitem", "l_orderkey", "l_suppkey", "l_shipmode")
	r := stream(in.cfg.seed, 5)
	batch := lineitemBatch(r, in.sz, in.cfg.size.batchRows)
	var schema storage.Schema
	for _, s := range tpch.Schemas() {
		if s.Name == "lineitem" {
			schema = s
		}
	}

	// WAL-less append into a fresh table.
	plain := storage.NewTable(schema)
	x.lay["storage.append_us_per_row"] = usOf(timeMedian(9, func() {
		x.checkErr("storage.AppendBatchID", plain.AppendBatchID("", batch))
	})) / float64(len(batch))

	dir, err := mkTemp(in.cfg, "layers-*")
	if err != nil {
		x.check("layers temp dir", err)
		return
	}
	defer rmTemp(dir)

	// One encoded record per batch, appended and fsynced directly.
	log, err := wal.Open(dir, "lineitem", wal.NoSync())
	if err != nil {
		x.check("wal.Open", err)
		return
	}
	rec := wal.NewEncoder(0, "", len(batch))
	for _, row := range batch {
		for _, v := range row {
			switch v := v.(type) {
			case int64:
				rec.Int64(v)
			case float64:
				rec.Float64(v)
			case string:
				rec.String(v)
			}
		}
	}
	x.lay["wal.append_us_p50"] = usOf(timeMedian(9, func() { x.checkErr("wal.Append", log.Append(rec)) }))
	var syncMs []float64
	for i := 0; i < 9; i++ {
		x.checkErr("wal.Append", log.Append(rec))
		t0 := time.Now()
		x.checkErr("wal.Sync", log.Sync())
		syncMs = append(syncMs, msOf(time.Since(t0)))
	}
	x.lay["wal.sync_ms_p50"] = median(syncMs)
	x.checkErr("wal.Close", log.Close())
	segs, err := wal.ListSegments(dir, "lineitem")
	x.checkErr("wal.ListSegments", err)
	t0 := time.Now()
	for _, s := range segs {
		_, err := wal.Replay(s.Path, func(rec *wal.Record) error {
			_, err := plain.DecodeWALRecord(rec)
			return err
		})
		x.checkErr("wal.Replay", err)
	}
	x.lay["wal.replay_ms"] = msOf(time.Since(t0))

	// Snapshot of the engine's catalog as it stands, written to and
	// loaded from the scratch directory.
	capture, err := in.eng.Catalog().CaptureForSnapshot(nil)
	if err != nil {
		x.check("CaptureForSnapshot", err)
		return
	}
	t0 = time.Now()
	path, err := snapshot.Write(dir, capture, nil)
	x.lay["snapshot.write_ms"] = msOf(time.Since(t0))
	x.checkErr("snapshot.Write", err)
	if fi, err := os.Stat(path); err == nil {
		total := 0
		for _, name := range in.eng.Catalog().Tables() {
			total += in.eng.Catalog().Table(name).TotalRows()
		}
		x.lay["snapshot.bytes_per_row"] = ratio(float64(fi.Size()), float64(total))
	}
	t0 = time.Now()
	_, _, err = snapshot.Load(dir)
	x.lay["snapshot.load_ms"] = msOf(time.Since(t0))
	x.checkErr("snapshot.Load", err)
}

func (in *ingestInst) close() {
	if in.eng != nil {
		shutdown(in.eng)
		in.eng = nil
	}
	if in.dir != "" {
		rmTemp(in.dir)
		in.dir = ""
	}
}

// newestSnapshotSize is the size of the newest snapshot file in dir.
func newestSnapshotSize(dir string) float64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.lhsnap"))
	var newest os.FileInfo
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && (newest == nil || fi.ModTime().After(newest.ModTime())) {
			newest = fi
		}
	}
	if newest == nil {
		return 0
	}
	return float64(newest.Size())
}
