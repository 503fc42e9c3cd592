package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundary checks that values on and around every bucket
// boundary land in the bucket whose [lo, hi) range contains them.
func TestBucketBoundary(t *testing.T) {
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if hi <= lo {
			t.Fatalf("bucket %d: bounds [%d, %d)", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
		if hi < math.MaxInt64 {
			if got := bucketIndex(hi); got != i+1 {
				t.Fatalf("bucketIndex(hi=%d) = %d, want %d", hi, got, i+1)
			}
		}
	}
	// Bounds tile the value space with no gaps.
	var prevHi int64
	for i := 0; i < histNumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if i > 0 && lo != prevHi {
			t.Fatalf("gap before bucket %d: prev hi %d, lo %d", i, prevHi, lo)
		}
		prevHi = hi
	}
}

// TestQuantileKnownDistribution records a known uniform set and checks
// each quantile estimate lies within one bucket width of the truth.
func TestQuantileKnownDistribution(t *testing.T) {
	h := &Histogram{}
	const n = 10_000
	for i := 1; i <= n; i++ {
		h.RecordNs(int64(i) * 1000) // 1µs .. 10ms uniform
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d", s.Count)
	}
	for _, q := range []float64{0.10, 0.50, 0.90, 0.95, 0.99, 1.0} {
		want := int64(q*n) * 1000
		got := s.Quantile(q)
		_, hi := BucketBounds(bucketIndex(want))
		lo, _ := BucketBounds(bucketIndex(want))
		width := hi - lo
		if got < want-width || got > want+width {
			t.Fatalf("q%.2f = %d ns, want %d ± %d", q, got, want, width)
		}
	}
	if s.MaxNs != n*1000 {
		t.Fatalf("max = %d", s.MaxNs)
	}
	if mean := s.MeanNs(); mean < 4_900_000 || mean > 5_200_000 {
		t.Fatalf("mean = %d", mean)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := &Histogram{}
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	h.Record(42 * time.Microsecond)
	s := h.Snapshot()
	lo, hi := BucketBounds(bucketIndex(42_000))
	if q := s.Quantile(0.5); q < lo || q >= hi {
		t.Fatalf("single-sample p50 = %d, want in [%d, %d)", q, lo, hi)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 100; i++ {
		a.RecordNs(1000)
		b.RecordNs(1_000_000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count = %d", s.Count)
	}
	if s.SumNs != 100*1000+100*1_000_000 {
		t.Fatalf("merged sum = %d", s.SumNs)
	}
	if s.MaxNs != 1_000_000 {
		t.Fatalf("merged max = %d", s.MaxNs)
	}
	// p25 in the low mode, p75 in the high mode.
	if q := s.Quantile(0.25); q > 2000 {
		t.Fatalf("p25 = %d", q)
	}
	if q := s.Quantile(0.75); q < 900_000 {
		t.Fatalf("p75 = %d", q)
	}
}

// TestConcurrentRecordSnapshot hammers Record from many goroutines
// while snapshotting; run under -race this proves the lock-free path
// is race-clean, and the final snapshot must account for every record.
func TestConcurrentRecordSnapshot(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				s.Quantile(0.99)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < per; i++ {
				h.RecordNs(int64(w*1000 + i))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*per)
	}
}
