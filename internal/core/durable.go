package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/snapshot"
	"repro/internal/storage"
	"repro/internal/wal"
)

// This file is the engine side of the durability subsystem: the
// WithDurability option, startup recovery (snapshot restore + WAL
// replay), the group-commit syncer, snapshot writing on Compact, the
// idempotency dedup set behind X-Batch-Id, and the durability
// counters on /metrics.

// dedupCapacity bounds the batch-id idempotency set: a FIFO of the
// most recent ids. Retries normally arrive within seconds of the
// original, so a few thousand ids of history is plenty; the bound
// keeps adversarial id streams from growing memory without limit.
const dedupCapacity = 4096

// durState carries everything durability adds to an Engine.
type durState struct {
	dir    string
	policy wal.Policy

	mu   sync.Mutex
	wals map[string]*wal.Log // table → live log

	dedupMu  sync.Mutex
	dedup    map[string]struct{}
	dedupLRU []string // FIFO eviction order

	flushHist obs.Histogram

	// Recovery + runtime counters.
	recovered        atomic.Bool // recovery restored at least one table
	recoveryNs       atomic.Int64
	recoveryErr      atomic.Pointer[string]
	replayedRecords  atomic.Int64
	replayedRows     atomic.Int64
	droppedRecords   atomic.Int64
	droppedBytes     atomic.Int64
	snapshotsWritten atomic.Int64
	snapshotErrors   atomic.Int64
	snapshotInvalid  atomic.Int64
	dedupHits        atomic.Int64
	syncErrors       atomic.Int64
}

// WithDurability enables crash durability rooted at dir: every append
// is written to a per-table WAL (synced per policy) before it becomes
// visible, Compact additionally persists an atomic catalog snapshot,
// and engine construction recovers the newest valid snapshot plus WAL
// tails. Corrupt tails are truncated and counted — recovery always
// comes up.
func WithDurability(dir string, policy wal.Policy) Option {
	return func(e *Engine) {
		e.dur = &durState{dir: dir, policy: policy, wals: map[string]*wal.Log{},
			dedup: map[string]struct{}{}}
	}
}

// Durable reports whether the engine was built with WithDurability.
func (e *Engine) Durable() bool { return e.dur != nil }

// Recovered reports whether startup recovery restored any tables (the
// lhserve signal to skip regenerating data).
func (e *Engine) Recovered() bool { return e.dur != nil && e.dur.recovered.Load() }

// RecoveryError reports the startup recovery failure, if any. A
// non-nil error means durability is degraded (the engine came up
// empty or partially restored): the data directory itself was
// unusable, or the newest snapshot passed its checksums but would not
// rebuild, so the rows only it held are missing. Corruption a checksum
// catches never surfaces here — it is truncated and counted instead.
func (e *Engine) RecoveryError() error {
	if e.dur == nil {
		return nil
	}
	if s := e.dur.recoveryErr.Load(); s != nil {
		return fmt.Errorf("%s", *s)
	}
	return nil
}

// DataDir reports the durability root ("" when not durable).
func (e *Engine) DataDir() string {
	if e.dur == nil {
		return ""
	}
	return e.dur.dir
}

// recoverStartup restores the catalog from disk. Called once from New
// before the engine is visible to any caller; failures are recorded,
// not returned — the engine comes up (possibly empty) regardless.
func (e *Engine) recoverStartup() {
	d := e.dur
	t0 := time.Now()
	defer func() { d.recoveryNs.Store(int64(time.Since(t0))) }()
	fail := func(err error) {
		s := err.Error()
		d.recoveryErr.Store(&s)
	}

	loaded, invalid, err := snapshot.Load(d.dir)
	d.snapshotInvalid.Add(int64(invalid))
	if err != nil {
		fail(fmt.Errorf("durability: reading snapshots in %s: %w", d.dir, err))
		return
	}
	cutoffs := map[string]uint64{}
	if loaded != nil {
		cat, berr := snapshot.BuildCatalog(loaded)
		if berr != nil {
			// The snapshot validated but would not rebuild (e.g. codes past
			// their dictionary, or a schema the storage layer now rejects).
			// The WAL segments it covered are gone, so coming up from the
			// WAL alone loses its rows: report that, and come up anyway.
			// Epochs continue past the rejected file's, so the next
			// snapshot supersedes it instead of losing to it at the next
			// start.
			d.snapshotInvalid.Add(1)
			fail(fmt.Errorf("durability: snapshot %s passed its checksums but did not rebuild; "+
				"its rows are not restored: %w", loaded.Path, berr))
			e.cat.RestoreEpoch(loaded.Manifest.Epoch)
			loaded = nil
		} else {
			e.cat = cat
			for _, tm := range loaded.Manifest.Tables {
				cutoffs[tm.Name] = tm.WALCutoff
			}
			for _, id := range loaded.Manifest.BatchIDs {
				d.noteBatchID(id)
			}
			d.recovered.Store(true)
		}
	}
	if loaded == nil {
		// No (valid) snapshot: rebuild empty tables from the schema
		// manifest so WAL records can be decoded.
		schemas, merr := snapshot.LoadCatalogManifest(d.dir)
		if merr != nil {
			fail(fmt.Errorf("durability: reading catalog manifest: %w", merr))
			return
		}
		for _, s := range schemas {
			if _, cerr := e.cat.Create(s); cerr != nil {
				fail(fmt.Errorf("durability: recreating table %s: %w", s.Name, cerr))
				return
			}
			d.recovered.Store(true)
		}
	}

	// Replay WAL tails table by table, oldest segment first. The WAL is
	// not attached yet, so replayed rows are not re-logged.
	for _, name := range e.cat.Tables() {
		t := e.cat.Table(name)
		// Segments fully covered by the snapshot may survive a crash
		// between snapshot rename and truncation: drop them first.
		if derr := wal.DeleteThrough(d.dir, name, cutoffs[name]); derr != nil {
			fail(fmt.Errorf("durability: pruning covered wal segments of %s: %w", name, derr))
			return
		}
		segs, lerr := wal.ListSegments(d.dir, name)
		if lerr != nil {
			fail(fmt.Errorf("durability: listing wal segments of %s: %w", name, lerr))
			return
		}
		for _, seg := range segs {
			res, rerr := wal.Replay(seg.Path, func(r *wal.Record) error {
				rows, derr := t.DecodeWALRecord(r)
				if derr != nil {
					return derr
				}
				if r.BatchID != "" {
					d.noteBatchID(r.BatchID)
				}
				return t.AppendBatch(rows)
			})
			d.replayedRecords.Add(int64(res.Records))
			d.replayedRows.Add(int64(res.Rows))
			if res.DroppedRecords > 0 {
				d.droppedRecords.Add(int64(res.DroppedRecords))
				d.droppedBytes.Add(res.DroppedBytes)
			}
			if rerr != nil {
				// A record decoded but failed to apply (schema drift), or
				// the truncate of a corrupt tail failed. Stop replaying this
				// table — later records may depend on the failed one — but
				// still come up with what applied cleanly.
				d.droppedRecords.Add(1)
				break
			}
			if res.Records > 0 {
				d.recovered.Store(true)
			}
		}
	}

	// Persist the (possibly restored) schema set and attach fresh WALs.
	if werr := e.writeCatalogManifest(); werr != nil {
		fail(fmt.Errorf("durability: writing catalog manifest: %w", werr))
		return
	}
	for _, name := range e.cat.Tables() {
		if aerr := e.attachWAL(name); aerr != nil {
			fail(fmt.Errorf("durability: opening wal for %s: %w", name, aerr))
			return
		}
	}
}

// attachWAL opens (resuming or creating) the table's log and attaches
// it as the append sink.
func (e *Engine) attachWAL(table string) error {
	d := e.dur
	l, err := wal.Open(d.dir, table, d.policy)
	if err != nil {
		return err
	}
	l.OnSync = d.flushHist.Record
	d.mu.Lock()
	d.wals[table] = l
	d.mu.Unlock()
	e.cat.Table(table).SetWAL(l)
	return nil
}

// writeCatalogManifest atomically rewrites catalog.json with the
// current schemas.
func (e *Engine) writeCatalogManifest() error {
	var schemas []storage.Schema
	for _, name := range e.cat.Tables() {
		schemas = append(schemas, e.cat.Table(name).Schema)
	}
	return snapshot.WriteCatalogManifest(e.dur.dir, schemas)
}

// registerDurableTable is the CreateTable hook: persist the schema
// manifest (so a crash before the first snapshot can still decode this
// table's WAL) and attach a fresh WAL.
func (e *Engine) registerDurableTable(name string) error {
	if err := e.writeCatalogManifest(); err != nil {
		return err
	}
	return e.attachWAL(name)
}

// startGroupCommit runs the group-commit flusher when the policy asks
// for interval syncing. bgCtx cancellation (BeginShutdown) stops it;
// Drain's final sync covers anything still unflushed.
func (e *Engine) startGroupCommit() {
	d := e.dur
	if d.policy.Mode != wal.SyncInterval {
		return
	}
	iv := d.policy.Interval
	if iv <= 0 {
		iv = wal.DefaultInterval
	}
	e.bgWG.Add(1)
	go func() {
		defer e.bgWG.Done()
		tick := time.NewTicker(iv)
		defer tick.Stop()
		for {
			select {
			case <-e.bgCtx.Done():
				return
			case <-tick.C:
				e.syncWALs()
			}
		}
	}()
}

// syncWALs fsyncs every dirty log (group commit / drain barrier).
func (e *Engine) syncWALs() {
	d := e.dur
	d.mu.Lock()
	logs := make([]*wal.Log, 0, len(d.wals))
	for _, l := range d.wals {
		logs = append(logs, l)
	}
	d.mu.Unlock()
	for _, l := range logs {
		if err := l.Sync(); err != nil {
			d.syncErrors.Add(1)
		}
	}
}

// writeSnapshot persists the catalog after a compaction: capture (each
// table's WAL rotated under the same mutex appends commit under),
// write-temp-fsync-rename, then truncate the covered segments. Called
// with compactMu held, so captures never interleave.
func (e *Engine) writeSnapshot() error {
	d := e.dur
	cap, err := e.cat.CaptureForSnapshot(func(table string) (uint64, error) {
		d.mu.Lock()
		l := d.wals[table]
		d.mu.Unlock()
		if l == nil {
			return 0, nil
		}
		return l.Rotate()
	})
	if err != nil {
		d.snapshotErrors.Add(1)
		return err
	}
	if _, err := snapshot.Write(d.dir, cap, d.batchIDs()); err != nil {
		// The rotated segments survive; recovery replays them over the
		// previous snapshot, so nothing acked is at risk.
		d.snapshotErrors.Add(1)
		return err
	}
	d.snapshotsWritten.Add(1)
	for _, tc := range cap.Tables {
		if tc.WALCutoff == 0 {
			continue
		}
		if err := wal.DeleteThrough(d.dir, tc.Name, tc.WALCutoff); err != nil {
			// Non-fatal: the segments are covered by the snapshot and will
			// be pruned by the next recovery or snapshot.
			d.snapshotErrors.Add(1)
			return err
		}
	}
	return nil
}

// noteBatchID records one client batch id in the bounded FIFO dedup
// set. Reports whether the id was already present.
func (d *durState) noteBatchID(id string) bool {
	d.dedupMu.Lock()
	defer d.dedupMu.Unlock()
	if _, dup := d.dedup[id]; dup {
		return true
	}
	d.dedup[id] = struct{}{}
	d.dedupLRU = append(d.dedupLRU, id)
	if len(d.dedupLRU) > dedupCapacity {
		old := d.dedupLRU[0]
		d.dedupLRU = d.dedupLRU[1:]
		delete(d.dedup, old)
	}
	return false
}

// dropBatchID removes a reserved id after a failed append so the
// client's retry is not treated as a duplicate.
func (d *durState) dropBatchID(id string) {
	d.dedupMu.Lock()
	defer d.dedupMu.Unlock()
	delete(d.dedup, id)
	for i, v := range d.dedupLRU {
		if v == id {
			d.dedupLRU = append(d.dedupLRU[:i], d.dedupLRU[i+1:]...)
			break
		}
	}
}

// batchIDs returns the dedup set oldest-first (snapshot persistence).
func (d *durState) batchIDs() []string {
	d.dedupMu.Lock()
	defer d.dedupMu.Unlock()
	return append([]string(nil), d.dedupLRU...)
}

// IngestBatch is IngestRows carrying a client batch id for idempotent
// retries: if the id was already ingested (this process or any
// recovered WAL/snapshot history in the dedup window), the batch is
// acked as a duplicate without touching storage. dup reports that
// outcome. An empty id degrades to plain IngestRows.
func (e *Engine) IngestBatch(ctx context.Context, table, batchID string, rows [][]interface{}) (int, bool, error) {
	if batchID == "" || e.dur == nil {
		n, err := e.IngestRows(ctx, table, rows)
		return n, false, err
	}
	t := e.cat.Table(table)
	if t == nil {
		return 0, false, &qerr.UnknownTableError{Name: table}
	}
	// Reserve the id before appending: a concurrent retry of the same id
	// sees the reservation and acks as duplicate instead of double-
	// ingesting. A failed append releases the reservation so a later
	// retry can succeed.
	if e.dur.noteBatchID(batchID) {
		e.dur.dedupHits.Add(1)
		return 0, true, nil
	}
	release, err := e.gov.Acquire(ctx, 1)
	if err != nil {
		e.dur.dropBatchID(batchID)
		return 0, false, err
	}
	defer release()
	if err := t.AppendBatchID(batchID, rows); err != nil {
		e.dur.dropBatchID(batchID)
		return 0, false, err
	}
	e.maybeAutoCompact()
	return len(rows), false, nil
}

// durCounters exports the durability state on /metrics.
func (e *Engine) durCounters() map[string]int64 {
	d := e.dur
	if d == nil {
		return nil
	}
	var records, bytes, syncs int64
	d.mu.Lock()
	for _, l := range d.wals {
		r, b, s := l.Counters()
		records += r
		bytes += b
		syncs += s
	}
	d.mu.Unlock()
	m := map[string]int64{
		"wal_records_total":       records,
		"wal_bytes_total":         bytes,
		"wal_syncs_total":         syncs,
		"wal_sync_errors_total":   d.syncErrors.Load(),
		"wal_records_dropped":     d.droppedRecords.Load(),
		"wal_bytes_dropped":       d.droppedBytes.Load(),
		"wal_replayed_records":    d.replayedRecords.Load(),
		"wal_replayed_rows":       d.replayedRows.Load(),
		"snapshots_written_total": d.snapshotsWritten.Load(),
		"snapshot_errors_total":   d.snapshotErrors.Load(),
		"snapshot_invalid_total":  d.snapshotInvalid.Load(),
		"recovery_ns":             d.recoveryNs.Load(),
		"batch_dedup_hits":        d.dedupHits.Load(),
		"batch_dedup_size":        int64(len(d.batchIDs())),
		"durability_degraded":     0,
		"wal_flush_p50_ns":        0,
		"wal_flush_p95_ns":        0,
		"wal_flush_p99_ns":        0,
	}
	if d.recoveryErr.Load() != nil {
		m["durability_degraded"] = 1
	}
	if hs := d.flushHist.Snapshot(); hs.Count > 0 {
		m["wal_flush_p50_ns"] = hs.Quantile(0.50)
		m["wal_flush_p95_ns"] = hs.Quantile(0.95)
		m["wal_flush_p99_ns"] = hs.Quantile(0.99)
	}
	return m
}
