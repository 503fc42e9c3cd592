package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func obsFor(fp uint64, durNs int64) *QueryStats {
	return &QueryStats{
		Fingerprint:     fp,
		FingerprintText: fmt.Sprintf("select ? -- %d", fp),
		Phases:          Phases{Total: time.Duration(durNs)},
		RowsOut:         3,
		AllocBytes:      100,
		RootOrder:       []string{"a", "b"},
		NodeCosts:       []NodeCost{{Est: 10, Actual: 20}},
	}
}

func TestStatementStoreAccumulates(t *testing.T) {
	st := NewStatementStore(8)
	st.Record(obsFor(1, 1000), nil)
	st.Record(obsFor(1, 3000), nil)
	st.Record(obsFor(1, 2000), errors.New("boom"))

	snaps := st.Snapshots("", 0)
	if len(snaps) != 1 {
		t.Fatalf("len(snaps) = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Calls != 3 || s.Errors != 1 || s.Rows != 9 {
		t.Errorf("calls/errors/rows = %d/%d/%d, want 3/1/9", s.Calls, s.Errors, s.Rows)
	}
	if s.TotalNs != 6000 || s.MeanNs != 2000 || s.MaxNs != 3000 {
		t.Errorf("total/mean/max = %d/%d/%d, want 6000/2000/3000", s.TotalNs, s.MeanNs, s.MaxNs)
	}
	if s.EstCost != 30 || s.ActualCost != 60 || s.CostRatio != 2 {
		t.Errorf("est/actual/ratio = %g/%g/%g, want 30/60/2", s.EstCost, s.ActualCost, s.CostRatio)
	}
	if s.PlanChanges != 0 {
		t.Errorf("plan changes = %d, want 0 (order never moved)", s.PlanChanges)
	}
	if s.FingerprintHex != "0000000000000001" {
		t.Errorf("hex = %q", s.FingerprintHex)
	}
	if s.FirstSeen.IsZero() || s.LastSeen.Before(s.FirstSeen) {
		t.Errorf("first/last seen not monotone: %v / %v", s.FirstSeen, s.LastSeen)
	}
}

func TestStatementStoreIgnoresZeroFingerprint(t *testing.T) {
	st := NewStatementStore(8)
	st.Record(obsFor(0, 1000), nil)
	if st.Len() != 0 {
		t.Fatalf("len = %d after fingerprint-0 record, want 0", st.Len())
	}
	// A nil store is a no-op everywhere (engines without telemetry).
	var nilStore *StatementStore
	nilStore.Record(obsFor(1, 1), nil)
	if nilStore.Len() != 0 || nilStore.Snapshots("", 0) != nil {
		t.Error("nil store should no-op")
	}
}

func TestStatementStoreLRUEviction(t *testing.T) {
	st := NewStatementStore(4)
	for fp := uint64(1); fp <= 6; fp++ {
		st.Record(obsFor(fp, 1000), nil)
	}
	if st.Len() != 4 {
		t.Fatalf("len = %d, want cap 4", st.Len())
	}
	if st.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", st.Evicted())
	}
	// 1 and 2 were the least recently used; 3..6 survive.
	alive := map[string]bool{}
	for _, s := range st.Snapshots("", 0) {
		alive[s.FingerprintHex] = true
	}
	for _, want := range []uint64{3, 4, 5, 6} {
		if !alive[FingerprintHex(want)] {
			t.Errorf("fingerprint %d evicted, want it kept", want)
		}
	}
	// Touching an old entry protects it from the next eviction.
	st.Record(obsFor(3, 1000), nil)
	st.Record(obsFor(7, 1000), nil)
	alive = map[string]bool{}
	for _, s := range st.Snapshots("", 0) {
		alive[s.FingerprintHex] = true
	}
	if !alive[FingerprintHex(3)] {
		t.Error("recently-touched fingerprint 3 was evicted")
	}
	if alive[FingerprintHex(4)] {
		t.Error("LRU fingerprint 4 survived eviction")
	}
}

func TestStatementStorePlanDrift(t *testing.T) {
	st := NewStatementStore(8)
	o := obsFor(1, 1000)
	o.SnapshotEpoch = 1
	st.Record(o, nil)
	o.SnapshotEpoch = 2
	st.Record(o, nil) // same order: no drift
	o.RootOrder = []string{"b", "a"}
	o.SnapshotEpoch = 3
	st.Record(o, nil) // order flipped: drift
	s := st.Snapshots("", 0)[0]
	if s.PlanChanges != 1 {
		t.Fatalf("plan changes = %d, want 1", s.PlanChanges)
	}
	if s.LastChangeEpoch != 3 {
		t.Errorf("last change epoch = %d, want 3", s.LastChangeEpoch)
	}
	if got := s.LastOrder; len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Errorf("last order = %v, want [b a]", got)
	}
	if c := st.Counters()["statement_plan_changes"]; c != 1 {
		t.Errorf("statement_plan_changes counter = %d, want 1", c)
	}
}

func TestStatementStoreSortAndLimit(t *testing.T) {
	st := NewStatementStore(8)
	for fp := uint64(1); fp <= 3; fp++ {
		for i := uint64(0); i < fp; i++ { // fp N gets N calls of N*1000ns
			st.Record(obsFor(fp, int64(fp*1000)), nil)
		}
	}
	byTime := st.Snapshots("time", 0)
	if byTime[0].FingerprintHex != FingerprintHex(3) {
		t.Errorf("top by time = %s, want fingerprint 3", byTime[0].FingerprintHex)
	}
	byCalls := st.Snapshots("calls", 2)
	if len(byCalls) != 2 {
		t.Fatalf("limit 2 returned %d", len(byCalls))
	}
	if byCalls[0].Calls < byCalls[1].Calls {
		t.Errorf("calls not descending: %d then %d", byCalls[0].Calls, byCalls[1].Calls)
	}
	// Unknown sort keys fall back to the default ordering rather than
	// erroring (HTTP validates before calling).
	if got := st.Snapshots("bogus", 0); len(got) != 3 {
		t.Errorf("unknown key returned %d snapshots, want 3", len(got))
	}
}

func TestStatementSnapshotMerge(t *testing.T) {
	st1 := NewStatementStore(8)
	st2 := NewStatementStore(8)
	st1.Record(obsFor(1, 1000), nil)
	o := obsFor(1, 5000)
	o.MemHighWater = 777
	st2.Record(o, nil)
	a := st1.Snapshots("", 0)[0]
	b := st2.Snapshots("", 0)[0]
	a.Merge(&b)
	if a.Calls != 2 || a.TotalNs != 6000 || a.MeanNs != 3000 {
		t.Errorf("merged calls/total/mean = %d/%d/%d, want 2/6000/3000", a.Calls, a.TotalNs, a.MeanNs)
	}
	if a.MaxNs != 5000 || a.MemHighWater != 777 {
		t.Errorf("merged max/mem = %d/%d, want 5000/777", a.MaxNs, a.MemHighWater)
	}
	if a.Hist == nil || a.Hist.Count != 2 {
		t.Errorf("merged histogram count = %v, want 2", a.Hist)
	}
}

func TestStatementSnapshotJSON(t *testing.T) {
	st := NewStatementStore(8)
	st.Record(obsFor(1, 1000), nil)
	b, err := json.Marshal(st.Snapshots("", 0)[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fingerprint", "query", "calls", "total_ns", "mean_ns", "p95_ns", "est_cost", "cost_ratio", "last_order"} {
		if _, ok := m[k]; !ok {
			t.Errorf("JSON missing key %q: %s", k, b)
		}
	}
	if _, leaked := m["Hist"]; leaked {
		t.Error("histogram leaked into JSON")
	}
}

// TestStatementStoreConcurrent hammers Record/Snapshots/Reset from many
// goroutines; run with -race (make telemetry-race / make race).
func TestStatementStoreConcurrent(t *testing.T) {
	st := NewStatementStore(16)
	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fp := uint64(1 + (i+w)%32) // twice the cap: constant eviction
				o := obsFor(fp, int64(1000+i))
				if i%7 == 0 {
					o.RootOrder = []string{"b", "a"} // drive plan-drift updates
				}
				st.Record(o, nil)
				if i%13 == 0 {
					for _, s := range st.Snapshots("calls", 4) {
						_ = s.CostRatio
					}
				}
				if i%101 == 0 {
					_ = st.Len()
					_ = st.Counters()
				}
			}
		}(w)
	}
	wg.Wait()
	if st.Len() > 16 {
		t.Errorf("len = %d exceeds cap 16", st.Len())
	}
}
