package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear over nanoseconds: each power-of-two
// octave is split into 2^histSubBits equal-width linear buckets, so
// relative bucket width (and therefore worst-case quantile error) is
// 2^-histSubBits ≈ 6%. Values below 2^histSubBits ns get exact unit
// buckets. Recording is one atomic add on the bucket plus two on the
// count/sum — lock-free and wait-free, safe from any goroutine.
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits // 16
	// 63-bit values: blocks 0..(63-histSubBits), histSubBuckets each.
	histNumBuckets = (64 - histSubBits) * histSubBuckets
)

// Histogram is a fixed-size log-linear latency histogram.
type Histogram struct {
	counts [histNumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // total ns
	max    atomic.Int64
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the leading bit
	sub := (v >> (uint(exp) - histSubBits)) & (histSubBuckets - 1)
	return (exp-histSubBits+1)<<histSubBits + int(sub)
}

// BucketBounds reports bucket i's half-open value range [lo, hi) in ns.
func BucketBounds(i int) (lo, hi int64) {
	block := i >> histSubBits
	sub := int64(i & (histSubBuckets - 1))
	if block == 0 {
		return sub, sub + 1
	}
	width := int64(1) << uint(block-1)
	lo = (histSubBuckets + sub) << uint(block-1)
	hi = lo + width
	if hi < lo { // top bucket: lo+width overflows int64
		hi = math.MaxInt64
	}
	return lo, hi
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) { h.RecordNs(int64(d)) }

// RecordNs adds one observation in nanoseconds.
func (h *Histogram) RecordNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistSnapshot is a point-in-time copy of a histogram, mergeable and
// safe to read without synchronization. Concurrent recording makes a
// snapshot slightly torn (count vs buckets may differ by in-flight
// records); quantiles use the bucket sum so they stay self-consistent.
type HistSnapshot struct {
	Counts [histNumBuckets]uint64
	Count  uint64
	SumNs  int64
	MaxNs  int64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{SumNs: h.sum.Load(), MaxNs: h.max.Load()}
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	s.Count = total
	return s
}

// Merge folds another snapshot into s.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNs += o.SumNs
	if o.MaxNs > s.MaxNs {
		s.MaxNs = o.MaxNs
	}
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in nanoseconds: the
// midpoint of the bucket containing the rank, so the error is at most
// half a bucket width. Returns 0 on an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			lo, hi := BucketBounds(i)
			return lo + (hi-lo)/2
		}
	}
	return s.MaxNs
}

// MeanNs reports the mean observation (0 on empty).
func (s *HistSnapshot) MeanNs() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNs / int64(s.Count)
}
