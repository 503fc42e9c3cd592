package sketch

// Reservoir is algorithm-R uniform row sampling (Vitter 1985) with a
// seeded splitmix64 RNG: after n observations each row is retained with
// probability k/n, independent of arrival order, and two reservoirs fed
// the same stream under the same seed are identical. It keeps row ids,
// not rows: the RNG never reads a row, so the sample a seed picks from a
// stream does not depend on what the rows hold. Not safe for concurrent
// mutation.
type Reservoir struct {
	k   int
	n   uint64
	ids []int32
	rng uint64
}

// NewReservoir returns an empty reservoir holding at most k row ids.
func NewReservoir(k int, seed uint64) *Reservoir {
	return &Reservoir{k: k, ids: make([]int32, 0, min(k, 1024)), rng: splitmix64(seed | 1)}
}

func (r *Reservoir) next() uint64 {
	r.rng = splitmix64(r.rng)
	return r.rng
}

// Add observes one row.
func (r *Reservoir) Add(id int32) {
	r.n++
	if len(r.ids) < r.k {
		r.ids = append(r.ids, id)
		return
	}
	if j := r.next() % r.n; j < uint64(r.k) {
		r.ids[j] = id
	}
}

// IDs returns the current sample, in reservoir slot order. The slice is
// owned by the reservoir; callers must copy it before retaining it
// across Adds.
func (r *Reservoir) IDs() []int32 { return r.ids }

// N reports the total number of rows observed.
func (r *Reservoir) N() uint64 { return r.n }
