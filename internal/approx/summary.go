package approx

import (
	"math"
	"slices"

	"repro/internal/sketch"
	"repro/internal/storage"
)

// ValueHashSeed is the fixed seed of every per-column value hash: the
// sketches and their point queries must agree on it, and keeping it
// constant makes summaries reproducible across processes.
const ValueHashSeed = 0x1e7e17ead

// DefaultSampleRows is the default reservoir capacity per table.
const DefaultSampleRows = 4096

// Summary is one table's approximate-tier state: per-column HLL
// cardinality sketches and a uniform reservoir sample of row ids.
// It is built lazily on first approximate use, extended incrementally
// as a table's snapshot row count grows (generations fold delta rows
// strictly after the base prefix, so rows [Rows, n) are exactly the
// unseen suffix), and invalidated when the covered prefix shrinks or
// the schema changes. Rows are immutable and appends and compaction
// keep row order, so a sampled id names the same row in every later
// generation.
// Not safe for concurrent mutation — the engine serializes access.
type Summary struct {
	Table string
	// Gen and Epoch record the generation/epoch last folded in (for
	// observability; coverage is tracked by Rows).
	Gen   uint64
	Epoch uint64
	// Rows is the prefix of the table's snapshot rows covered.
	Rows int

	Sample *sketch.Reservoir
	HLLs   []*sketch.HLL
}

// seedFor derives the reservoir seed from the table name, so rebuilds
// are reproducible per table.
func seedFor(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// NewSummary allocates an empty summary for a table's schema.
func NewSummary(sch *storage.Schema, sampleRows int) *Summary {
	if sampleRows <= 0 {
		sampleRows = DefaultSampleRows
	}
	s := &Summary{Table: sch.Name, Sample: sketch.NewReservoir(sampleRows, seedFor(sch.Name))}
	for range sch.Cols {
		s.HLLs = append(s.HLLs, sketch.NewHLL(sketch.DefaultHLLPrecision))
	}
	return s
}

// Covers reports whether the summary can be extended to t (same arity,
// row prefix not shrunk). A false return means rebuild.
func (s *Summary) Covers(t *storage.Table) bool {
	return len(s.HLLs) == len(t.Schema.Cols) && s.Rows <= t.NumRows
}

// Extend folds rows [s.Rows, t.NumRows) of a snapshot-resolved table
// into the summary. Building from scratch is Extend on a fresh summary.
func (s *Summary) Extend(t *storage.Table, epoch uint64) {
	for ri := int32(s.Rows); ri < int32(t.NumRows); ri++ {
		for ci, c := range t.Cols {
			s.HLLs[ci].AddHash(hashCell(c, ri))
		}
		s.Sample.Add(ri)
	}
	s.Rows = t.NumRows
	s.Gen = t.Generation()
	s.Epoch = epoch
}

// hashCell hashes one typed cell under ValueHashSeed; floats hash by
// their dict.CanonFloat class, as the engine's codes compare them.
func hashCell(c *storage.Column, r int32) uint64 {
	switch c.Def.Kind {
	case storage.Float64:
		return sketch.HashFloat(ValueHashSeed, c.Floats[r])
	case storage.String:
		return sketch.HashString(ValueHashSeed, c.Str(int(r)))
	}
	return sketch.HashInt(ValueHashSeed, c.Ints[r])
}

// SampleIDs returns the sampled row ids in ascending order, copied, so
// the result stays valid across later Extends.
func (s *Summary) SampleIDs() []int32 {
	ids := slices.Clone(s.Sample.IDs())
	slices.Sort(ids)
	return ids
}

// Bytes estimates the summary's footprint: the sketches plus 4 bytes per
// sampled row id.
func (s *Summary) Bytes() int {
	n := 4 * len(s.Sample.IDs())
	for _, h := range s.HLLs {
		n += h.Bytes()
	}
	return n
}

// --- error-bound math ---

// Confidence is the advertised probability that every reported error
// bound holds. The estimator coefficients below are chosen well past
// the quantile this implies (≈5σ and Hoeffding at δ≈1e-7), so a
// deterministic difftest sweep holds the envelope with margin.
const Confidence = 0.999

const (
	// hoeff is ln(2/δ)/2 at δ≈1e-7: the Hoeffding coefficient of the
	// sample-count bound N·√(hoeff/k).
	hoeff = 8.4
	// zScore is the CLT multiplier of the sample sum/avg bounds.
	zScore = 5.0
	// missLn is ln(1/δ) at δ≈1e-7: a group entirely absent from a
	// k-sample has true count ≤ N·missLn/k with probability 1-δ.
	missLn = 16.1
)

// countBound is the absolute error bound of a scaled sample count.
func countBound(n int, k int) float64 {
	if k <= 0 {
		return float64(n)
	}
	return float64(n) * math.Sqrt(hoeff/float64(k))
}

// sumBound is the absolute error bound of a scaled sample sum, from
// the sample standard deviation of the per-row contributions plus a
// heavy-tail slack term.
func sumBound(n, k int, sum, sumsq, maxAbs float64) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	kk := float64(k)
	mean := sum / kk
	varc := sumsq/kk - mean*mean
	if varc < 0 {
		varc = 0
	}
	return zScore*float64(n)*math.Sqrt(varc)/math.Sqrt(kk) + zScore*float64(n)*(maxAbs+1)/kk
}

// avgBound is the absolute error bound of a conditional sample mean
// over kMatch matching rows.
func avgBound(kMatch int, sum, sumsq, maxAbs float64) float64 {
	if kMatch <= 0 {
		return 0 // no matching rows: the NaN convention is exact
	}
	kk := float64(kMatch)
	mean := sum / kk
	varc := sumsq/kk - mean*mean
	if varc < 0 {
		varc = 0
	}
	return zScore*math.Sqrt(varc)/math.Sqrt(kk) + zScore*2*(maxAbs+1)/kk
}

// hllBound is the absolute error bound of an HLL estimate.
func hllBound(h *sketch.HLL, est float64) float64 {
	return 3 + zScore*h.StdError()*est
}

// MissBound is the largest true count a group entirely absent from the
// sample may have (with probability Confidence): the group-route
// completeness guarantee.
func MissBound(n, k int) float64 {
	if k <= 0 {
		return float64(n)
	}
	return float64(n) * missLn / float64(k)
}
