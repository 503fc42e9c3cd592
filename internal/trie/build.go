package trie

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/qerr"
	"repro/internal/set"
)

// CombineFunc merges the annotation values of two rows that share the
// same full key tuple (e.g. + for SUM annotations, min for MIN).
type CombineFunc func(a, b float64) float64

// Sum is the default CombineFunc.
func Sum(a, b float64) float64 { return a + b }

// AnnSpec describes one annotation column to attach during Build.
type AnnSpec struct {
	Name string
	// Level is the trie level the buffer hangs off (usually the last).
	Level int
	Kind  AnnKind
	// F64 / Codes hold one value per input row, matching Kind.
	F64   []float64
	Codes []uint32
	// Combine merges duplicate key tuples; nil means Sum. Only meaningful
	// for F64 annotations on the last level — elsewhere the key prefix is
	// assumed to functionally determine the value and the first is kept.
	Combine CombineFunc
}

// BuildInput is the columnar input to Build. All key columns and
// annotation columns must have the same length.
type BuildInput struct {
	Attrs []string   // key attribute name per level, outermost first
	Keys  [][]uint32 // Keys[level][row]: encoded key values
	Anns  []AnnSpec
	// Threads bounds sort/build parallelism; 0 means GOMAXPROCS.
	Threads int
}

// Build sorts the rows lexicographically by the key columns and
// constructs the trie level by level, deduplicating identical key tuples
// by combining their annotations (the AJAR pre-aggregation that makes
// annotations 1-1 with last-level trie elements, paper §II-C, §III-B).
func Build(in BuildInput) (*Trie, error) {
	faultinject.Fire(faultinject.PointTrieBuild)
	k := len(in.Keys)
	if k == 0 {
		return nil, fmt.Errorf("trie: no key columns")
	}
	if len(in.Attrs) != k {
		return nil, fmt.Errorf("trie: %d attrs for %d key columns", len(in.Attrs), k)
	}
	n := len(in.Keys[0])
	for i, col := range in.Keys {
		if len(col) != n {
			return nil, fmt.Errorf("trie: key column %d has %d rows, want %d", i, len(col), n)
		}
	}
	if err := checkAnns(in.Anns, k, n, ""); err != nil {
		return nil, err
	}

	order := sortRows(in.Keys, n, in.Threads)

	t := &Trie{
		Attrs:      append([]string(nil), in.Attrs...),
		Levels:     make([]*Level, k),
		Anns:       make(map[string]*Annotation, len(in.Anns)),
		SourceRows: n,
	}

	// Per-level flattened element values and set boundaries.
	vals := make([][]uint32, k)
	ends := make([][]int32, k) // closed set boundaries (end offsets into vals)

	anns := make([]*Annotation, len(in.Anns))
	combines := make([]CombineFunc, len(in.Anns))
	for i, a := range in.Anns {
		anns[i] = &Annotation{Name: a.Name, Level: a.Level, Kind: a.Kind}
		combines[i] = a.Combine
		if combines[i] == nil {
			combines[i] = Sum
		}
		t.Anns[a.Name] = anns[i]
	}

	if n > 0 {
		// The dedup/emit scan parallelizes across level-0 partitions:
		// rows with equal full keys share the level-0 key, so duplicate
		// combination stays region-local, and each region boundary is
		// exactly a sequential-scan "new set at every level" event.
		regions := splitLevel0(in.Keys[0], order, buildThreads(in.Threads))
		if len(regions) == 1 {
			for d := 0; d < k; d++ {
				vals[d] = make([]uint32, 0, minInt(n, 1024))
				ends[d] = make([]int32, 0, 16)
			}
			aF := make([][]float64, len(in.Anns))
			aC := make([][]uint32, len(in.Anns))
			scanRegion(in, combines, order, k, vals, ends, aF, aC)
			for ai := range anns {
				anns[ai].F64 = aF[ai]
				anns[ai].Codes = aC[ai]
			}
		} else {
			type regionOut struct {
				vals [][]uint32
				ends [][]int32
				aF   [][]float64
				aC   [][]uint32
			}
			outs := make([]regionOut, len(regions))
			var wg sync.WaitGroup
			// Panics in region workers re-raise on the caller after the
			// join, where the query-boundary barrier converts them.
			var pc qerr.PanicCell
			for ri, reg := range regions {
				wg.Add(1)
				go func(ri, lo, hi int) {
					defer wg.Done()
					defer pc.Recover()
					o := &outs[ri]
					o.vals = make([][]uint32, k)
					o.ends = make([][]int32, k)
					o.aF = make([][]float64, len(in.Anns))
					o.aC = make([][]uint32, len(in.Anns))
					scanRegion(in, combines, order[lo:hi], k, o.vals, o.ends, o.aF, o.aC)
				}(ri, reg[0], reg[1])
			}
			wg.Wait()
			pc.Repanic()
			// Concatenate region outputs, shifting set boundaries by the
			// preceding regions' value counts.
			for lvl := 0; lvl < k; lvl++ {
				total, nEnds := 0, 0
				for _, o := range outs {
					total += len(o.vals[lvl])
					nEnds += len(o.ends[lvl])
				}
				vals[lvl] = make([]uint32, 0, total)
				ends[lvl] = make([]int32, 0, nEnds+1)
				for _, o := range outs {
					off := int32(len(vals[lvl]))
					vals[lvl] = append(vals[lvl], o.vals[lvl]...)
					for _, e := range o.ends[lvl] {
						ends[lvl] = append(ends[lvl], off+e)
					}
				}
			}
			for ai := range anns {
				total := 0
				for _, o := range outs {
					total += len(o.aF[ai]) + len(o.aC[ai])
				}
				switch anns[ai].Kind {
				case F64:
					anns[ai].F64 = make([]float64, 0, total)
					for _, o := range outs {
						anns[ai].F64 = append(anns[ai].F64, o.aF[ai]...)
					}
				case Code:
					anns[ai].Codes = make([]uint32, 0, total)
					for _, o := range outs {
						anns[ai].Codes = append(anns[ai].Codes, o.aC[ai]...)
					}
				}
			}
		}
		// scanRegion closes levels 1..k-1 at each region end; the level-0
		// close spans the whole trie.
		ends[0] = append(ends[0], int32(len(vals[0])))
	} else {
		for lvl := 0; lvl < k; lvl++ {
			ends[lvl] = append(ends[lvl], 0)
		}
	}

	for d := 0; d < k; d++ {
		t.Levels[d] = buildLevel(vals[d], ends[d], in.Threads)
	}
	t.NumTuples = t.Levels[k-1].NumElems()

	// Sanity: each level's set count equals the previous level's elements.
	for d := 1; d < k; d++ {
		if len(t.Levels[d].Sets) != t.Levels[d-1].NumElems() && n > 0 {
			return nil, fmt.Errorf("trie: level %d has %d sets for %d parents",
				d, len(t.Levels[d].Sets), t.Levels[d-1].NumElems())
		}
	}
	return t, nil
}

// checkAnns validates annotation specs against k key levels and n
// input rows: a level in range, one value per row, and a name no other
// annotation (nor reserved, when non-empty) has.
func checkAnns(anns []AnnSpec, k, n int, reserved string) error {
	names := make(map[string]bool, len(anns))
	for _, a := range anns {
		if a.Level < 0 || a.Level >= k {
			return fmt.Errorf("trie: annotation %q at level %d of %d", a.Name, a.Level, k)
		}
		if a.Kind == F64 && len(a.F64) != n {
			return fmt.Errorf("trie: annotation %q has %d values, want %d", a.Name, len(a.F64), n)
		}
		if a.Kind == Code && len(a.Codes) != n {
			return fmt.Errorf("trie: annotation %q has %d codes, want %d", a.Name, len(a.Codes), n)
		}
		if names[a.Name] || (reserved != "" && a.Name == reserved) {
			return fmt.Errorf("trie: duplicate annotation %q", a.Name)
		}
		names[a.Name] = true
	}
	return nil
}

// buildThreads resolves the parallelism bound for Build's scans.
func buildThreads(threads int) int {
	if threads <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return threads
}

// splitLevel0 partitions the sorted row order into contiguous regions
// aligned to level-0 key boundaries, so duplicate tuples (which share
// every key column, in particular level 0) never straddle regions.
func splitLevel0(col0 []uint32, order []int32, threads int) [][2]int {
	n := len(order)
	if threads <= 1 || n < 1<<14 {
		return [][2]int{{0, n}}
	}
	regions := make([][2]int, 0, threads)
	chunk := (n + threads - 1) / threads
	lo := 0
	for lo < n {
		hi := lo + chunk
		if hi >= n {
			hi = n
		} else {
			for hi < n && col0[order[hi]] == col0[order[hi-1]] {
				hi++
			}
		}
		regions = append(regions, [2]int{lo, hi})
		lo = hi
	}
	return regions
}

// scanRegion runs the dedup/emit scan over one contiguous region of the
// sorted row order, appending into the caller's per-level vals/ends and
// per-annotation buffers. It closes the sets of levels 1..k-1 at the
// region end (the level-0 close spans regions and is the caller's).
func scanRegion(in BuildInput, combines []CombineFunc, order []int32, k int,
	vals [][]uint32, ends [][]int32, aF [][]float64, aC [][]uint32) {
	emit := func(r int32, d int) {
		for lvl := d; lvl < k; lvl++ {
			vals[lvl] = append(vals[lvl], in.Keys[lvl][r])
			for ai := range in.Anns {
				a := &in.Anns[ai]
				if a.Level != lvl {
					continue
				}
				switch a.Kind {
				case F64:
					aF[ai] = append(aF[ai], a.F64[r])
				case Code:
					aC[ai] = append(aC[ai], a.Codes[r])
				}
			}
		}
	}
	prev := order[0]
	emit(prev, 0)
	for _, r := range order[1:] {
		// First level at which this row differs from the previous one.
		d := 0
		for d < k && in.Keys[d][r] == in.Keys[d][prev] {
			d++
		}
		if d == k {
			// Full duplicate key tuple: combine last-level annotations.
			for ai := range in.Anns {
				a := &in.Anns[ai]
				if a.Level == k-1 && a.Kind == F64 {
					last := len(aF[ai]) - 1
					aF[ai][last] = combines[ai](aF[ai][last], a.F64[r])
				}
			}
			prev = r
			continue
		}
		// Levels below d get new sets (their parent changed).
		for lvl := d + 1; lvl < k; lvl++ {
			ends[lvl] = append(ends[lvl], int32(len(vals[lvl])))
		}
		emit(r, d)
		prev = r
	}
	for lvl := 1; lvl < k; lvl++ {
		ends[lvl] = append(ends[lvl], int32(len(vals[lvl])))
	}
}

// buildLevel splits the flattened values at the recorded boundaries into
// per-parent sets, builds rank indexes, and detects full density.
func buildLevel(vals []uint32, ends []int32, threads int) *Level {
	l := &Level{
		Sets:   make([]set.Set, len(ends)),
		Starts: make([]int32, len(ends)+1),
		Dense:  true,
	}
	// Starts are prefix sums of set cardinalities (= segment lengths,
	// since segments hold distinct sorted values).
	var start int32
	var elems int32
	for i, end := range ends {
		l.Starts[i] = elems
		elems += end - start
		start = end
	}
	l.Starts[len(ends)] = elems
	// Set construction (layout choice, bitset fill, rank indexes) is
	// independent per parent and parallelizes cleanly.
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if len(ends) < 1024 || threads <= 1 {
		threads = 1
	}
	var dense [64]bool
	if threads > len(dense) {
		threads = len(dense)
	}
	chunk := (len(ends) + threads - 1) / threads
	var wg sync.WaitGroup
	var pc qerr.PanicCell
	for t := 0; t < threads; t++ {
		lo, hi := t*chunk, (t+1)*chunk
		if hi > len(ends) {
			hi = len(ends)
		}
		if lo >= hi {
			dense[t] = true
			continue
		}
		wg.Add(1)
		go func(t, lo, hi int) {
			defer wg.Done()
			defer pc.Recover()
			allDense := true
			for i := lo; i < hi; i++ {
				var s0 int32
				if i > 0 {
					s0 = ends[i-1]
				}
				s := set.FromSorted(vals[s0:ends[i]])
				s.BuildRankIndex()
				l.Sets[i] = s
				if s.Card() > 0 && (s.Layout() != set.Bitset || int(s.Max()-s.Min())+1 != s.Card()) {
					allDense = false
				}
			}
			dense[t] = allDense
		}(t, lo, hi)
	}
	wg.Wait()
	pc.Repanic()
	for t := 0; t < threads; t++ {
		if !dense[t] {
			l.Dense = false
		}
	}
	return l
}

// sortRows returns row indices ordered lexicographically by the key
// columns. It uses a parallel LSD radix sort on 8-bit digits: each pass
// computes per-worker digit histograms, derives stable global offsets,
// and scatters in parallel — near-linear on the multi-million-row
// benchmark inputs.
func sortRows(keys [][]uint32, n, threads int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	if n < 256 {
		// Hand-rolled insertion sort: no reflection, no allocation, and
		// O(n) on the near-sorted child-node outputs that dominate the
		// small-input case.
		insertionSortRows(keys, order)
		return order
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n/(1<<14)+1 {
		threads = n/(1<<14) + 1
	}
	tmp := make([]int32, n)
	counts := make([][256]int, threads)
	chunk := (n + threads - 1) / threads
	var pc qerr.PanicCell
	for colIdx := len(keys) - 1; colIdx >= 0; colIdx-- {
		col := keys[colIdx]
		maxV := uint32(0)
		for _, v := range col {
			if v > maxV {
				maxV = v
			}
		}
		for shift := uint(0); shift < 32; shift += 8 {
			if shift > 0 && maxV>>shift == 0 {
				break
			}
			// Per-worker histograms.
			var wg sync.WaitGroup
			for t := 0; t < threads; t++ {
				lo, hi := t*chunk, (t+1)*chunk
				if hi > n {
					hi = n
				}
				wg.Add(1)
				go func(t, lo, hi int) {
					defer wg.Done()
					defer pc.Recover()
					c := &counts[t]
					for i := range c {
						c[i] = 0
					}
					for _, r := range order[lo:hi] {
						c[(col[r]>>shift)&0xff]++
					}
				}(t, lo, hi)
			}
			wg.Wait()
			pc.Repanic()
			// Stable global offsets: digit-major, then worker order.
			sum := 0
			for d := 0; d < 256; d++ {
				for t := 0; t < threads; t++ {
					c := counts[t][d]
					counts[t][d] = sum
					sum += c
				}
			}
			// Parallel stable scatter.
			for t := 0; t < threads; t++ {
				lo, hi := t*chunk, (t+1)*chunk
				if hi > n {
					hi = n
				}
				wg.Add(1)
				go func(t, lo, hi int) {
					defer wg.Done()
					defer pc.Recover()
					c := &counts[t]
					for _, r := range order[lo:hi] {
						d := (col[r] >> shift) & 0xff
						tmp[c[d]] = r
						c[d]++
					}
				}(t, lo, hi)
			}
			wg.Wait()
			pc.Repanic()
			order, tmp = tmp, order
		}
	}
	return order
}

// insertionSortRows sorts order lexicographically by the key columns.
func insertionSortRows(keys [][]uint32, order []int32) {
	for i := 1; i < len(order); i++ {
		r := order[i]
		j := i - 1
		for j >= 0 && rowLess(keys, r, order[j]) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = r
	}
}

func rowLess(keys [][]uint32, a, b int32) bool {
	for _, col := range keys {
		va, vb := col[a], col[b]
		if va != vb {
			return va < vb
		}
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
