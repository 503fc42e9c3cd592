package sketch

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestHashCanonicalization(t *testing.T) {
	const seed = 42
	if HashFloat(seed, 0.0) != HashFloat(seed, math.Copysign(0, -1)) {
		t.Error("-0.0 and +0.0 must hash together")
	}
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	if HashFloat(seed, math.NaN()) != HashFloat(seed, nan2) {
		t.Error("NaN payloads must hash together")
	}
	if HashInt(seed, 7) == HashInt(seed+1, 7) {
		t.Error("seed must matter")
	}
	if HashString(seed, "") == HashString(seed, "a") {
		t.Error("strings must hash apart")
	}
	// Determinism across calls.
	if HashValue(seed, int64(9)) != HashInt(seed, 9) {
		t.Error("HashValue(int64) must match HashInt")
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1000, 50000, 500000} {
		h := NewHLL(DefaultHLLPrecision)
		for i := 0; i < n; i++ {
			h.AddHash(HashInt(1, int64(i)))
		}
		est := h.Estimate()
		// 5 standard errors plus small-n slack: the difftest lane promises
		// this envelope, so pin it here at several regimes.
		tol := 5*h.StdError()*float64(n) + 3
		if math.Abs(est-float64(n)) > tol {
			t.Errorf("n=%d: estimate %.1f off by more than %.1f", n, est, tol)
		}
	}
}

func TestHLLDuplicatesDontCount(t *testing.T) {
	h := NewHLL(DefaultHLLPrecision)
	for i := 0; i < 10000; i++ {
		h.AddHash(HashInt(1, int64(i%10)))
	}
	if est := h.Estimate(); math.Abs(est-10) > 2 {
		t.Errorf("10 distinct seen 1000×: estimate %.2f", est)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b, both := NewHLL(12), NewHLL(12), NewHLL(12)
	for i := 0; i < 5000; i++ {
		x := HashInt(1, int64(i))
		both.AddHash(x)
		if i%2 == 0 {
			a.AddHash(x)
		} else {
			b.AddHash(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != both.Estimate() {
		t.Errorf("merged estimate %.1f != single-stream %.1f", a.Estimate(), both.Estimate())
	}
	if err := a.Merge(NewHLL(11)); err == nil {
		t.Error("precision mismatch must error")
	}
}

func TestReservoirBasics(t *testing.T) {
	r := NewReservoir(64, 7)
	for i := 0; i < 10000; i++ {
		r.Add(int32(i))
	}
	if len(r.IDs()) != 64 || r.N() != 10000 {
		t.Fatalf("size=%d n=%d", len(r.IDs()), r.N())
	}
	// Determinism: same seed, same stream ⇒ identical sample.
	r2 := NewReservoir(64, 7)
	for i := 0; i < 10000; i++ {
		r2.Add(int32(i))
	}
	if !slices.Equal(r.IDs(), r2.IDs()) {
		t.Fatal("reservoir is not deterministic")
	}
	// Short streams are kept whole.
	r3 := NewReservoir(64, 7)
	for i := 0; i < 10; i++ {
		r3.Add(int32(i))
	}
	if len(r3.IDs()) != 10 {
		t.Fatalf("short stream: %d rows kept", len(r3.IDs()))
	}
}

// TestReservoirGoldenMembership pins which rows seed 7 keeps out of a
// 10 000-row stream at k = 64, slot by slot: the ids a reservoir of
// decoded rows kept before the sample became row ids. A change to the
// RNG or the replacement rule moves every approximate answer.
func TestReservoirGoldenMembership(t *testing.T) {
	golden := []int32{
		9529, 1730, 2205, 2230, 7725, 2507, 2720, 1502, 8612, 6219, 7060, 7160, 8771, 8287, 6467, 6246,
		537, 1060, 8188, 3925, 9950, 2055, 2212, 8506, 9609, 5356, 1169, 5786, 726, 7851, 3630, 2020,
		6214, 4854, 2338, 792, 1816, 37, 7643, 7364, 2393, 7051, 330, 4267, 4378, 9918, 3072, 7698,
		7462, 6055, 2235, 7539, 8064, 2661, 1401, 9560, 5996, 4588, 312, 5678, 6032, 5454, 9704, 6228,
	}
	r := NewReservoir(64, 7)
	for i := 0; i < 10000; i++ {
		r.Add(int32(i))
	}
	if !slices.Equal(r.IDs(), golden) {
		t.Fatalf("sample = %v, want %v", r.IDs(), golden)
	}
}

func TestReservoirRoughlyUniform(t *testing.T) {
	// Each of 1000 rows should land in a k=100 sample with p≈0.1;
	// counting hits over many seeds, the first and second halves of the
	// stream must be hit about equally (no recency/oldness bias).
	const n, k, trials = 1000, 100, 200
	firstHalf := 0
	total := 0
	for s := 0; s < trials; s++ {
		r := NewReservoir(k, uint64(s))
		for i := 0; i < n; i++ {
			r.Add(int32(i))
		}
		for _, id := range r.IDs() {
			total++
			if id < n/2 {
				firstHalf++
			}
		}
	}
	frac := float64(firstHalf) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("first-half fraction %.3f, want ≈0.5", frac)
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := NewHLL(DefaultHLLPrecision)
	for i := 0; i < b.N; i++ {
		h.AddHash(HashInt(1, int64(i)))
	}
}

func ExampleHLL() {
	h := NewHLL(12)
	for i := 0; i < 3; i++ {
		h.AddHash(HashInt(1, int64(i)))
	}
	fmt.Printf("%.0f\n", h.Estimate())
	// Output: 3
}
