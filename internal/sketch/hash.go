// Package sketch implements the probabilistic summaries behind the
// approximate query tier: HyperLogLog for COUNT(DISTINCT) and seeded
// reservoir samples of base rows. In the paper's framing (LevelHeaded §III) these are just
// another annotation shape over the same relations — a lossy semiring
// fold that trades bounded error for sublinear evaluation work.
//
// Everything here is deterministic: hashing is seeded splitmix64 over
// dict.CanonFloat classes (so -0.0 and +0.0 collapse and every NaN
// payload is one value, as everywhere else in the engine), and the
// reservoir RNG is a seeded splitmix64 stream. Two builds over the same
// rows produce identical sketches, which the difftest lane relies on.
package sketch

import "repro/internal/dict"

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit
// permutation (Steele et al.). Used both as a value-hash finalizer and
// as the reservoir RNG step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashInt hashes an int64 value under seed.
func HashInt(seed uint64, v int64) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(v)))
}

// HashFloat hashes a float64 value under seed; values of one
// dict.CanonFloat class hash alike.
func HashFloat(seed uint64, f float64) uint64 {
	return splitmix64(seed ^ splitmix64(dict.CanonFloatBits(f)))
}

// HashString hashes a string value under seed (FNV-1a folded through
// the splitmix finalizer so short strings still spread).
func HashString(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return splitmix64(seed ^ h)
}

// HashValue hashes a decoded cell (int64, float64 or string). Note that
// int64 and float64 cells hash apart even for equal magnitudes — a
// column has one storage kind, so cross-kind equality never arises
// within one sketch.
func HashValue(seed uint64, v any) uint64 {
	switch x := v.(type) {
	case int64:
		return HashInt(seed, x)
	case float64:
		return HashFloat(seed, x)
	case string:
		return HashString(seed, x)
	}
	return splitmix64(seed)
}
