// Access-path selection for the hybrid binary/WCOJ executor. It runs on
// the order Choose picked by its binding estimate, and prices the two
// paths of that order on the §V scale, not on the estimate: the §V
// icost sum prices the generic WCOJ path; the binary hash-join path
// over lazily-built generalized hash tries is priced with the same
// vertex weights but membership-probe constants plus a build-side term:
// a WCOJ node pays a full trie build for every relation it touches —
// every counting-bucket level plus Full's conversion to per-parent sets
// — while the binary path pays only the lazy build of the levels it
// actually probes. The build term counts only filtered relations: an
// unfiltered trie is cached whole and amortizes to zero across queries.
// A filtered relation pays a build per query, cold a direct build and
// warm a one-pass derive from its cached base order (on either path);
// the term prices the direct build, so it overstates the warm case, and
// the constants stay as calibrated until the cost model is refit.
package costopt

import (
	"fmt"

	"repro/internal/ghd"
	"repro/internal/planner"
)

// Access-path labels, shared with exec/telemetry/EXPLAIN.
const (
	PathWCOJ   = "wcoj"
	PathBinary = "binary"
)

// Cost constants of the binary path, on the same scale as the Fig. 5a
// icost constants. A lazy-trie membership probe is a dense-array lookup
// at level 0 and a short binary search below, i.e. bitset-probe class
// work per element. The build constants express that the counting-bucket
// levels alone are cheap next to a full build, which adds Full's set
// conversion (layout choice, bitset fill, rank indexes) to the same
// levels. Their values were fitted against the former radix-sort build
// and stay until the cost model is refit.
const (
	costLazyProbe   = 2
	costSortBuild   = 6
	costBucketBuild = 2
)

// Drift correction bounds: the observed cost_ratio (actual/estimated,
// PR 7's statement audit) recalibrates the intersection-side estimate,
// clamped so one outlier measurement cannot flip every plan.
const (
	driftMin = 0.5
	driftMax = 2.0
)

// PathInfo is the access-path decision for one GHD node.
type PathInfo struct {
	Path    string // PathWCOJ or PathBinary
	Acyclic bool
	// WCOJCost / BinaryCost are the two priced alternatives (exec +
	// build terms, drift-corrected on the WCOJ side).
	WCOJCost   float64
	BinaryCost float64
	// ProbeCost is the binary path's exec-side term alone (no build):
	// the estimate the runtime audit compares observed probes against,
	// so binary-node cost ratios calibrate the probe model, not the
	// amortized build.
	ProbeCost float64
	// Drift is the clamped cost_ratio correction applied (1 = none).
	Drift float64
}

// String renders the decision for EXPLAIN output.
func (pi *PathInfo) String() string {
	s := fmt.Sprintf("access path=%s (icost: binary=%.0f wcoj=%.0f", pi.Path, pi.BinaryCost, pi.WCOJCost)
	if !pi.Acyclic {
		s += ", cyclic core"
	}
	if pi.Drift != 1 {
		s += fmt.Sprintf(", drift×%.2f", pi.Drift)
	}
	return s + ")"
}

// ClassifyPaths picks an access path for every node of a chosen plan:
// α-acyclic bags (GYO reduction over the node's relation and
// child-result edges) whose build savings beat the WCOJ estimate run as
// a binary hash-join chain over lazy tries; everything else keeps the
// WCOJ path. drift is the statement's observed cost_ratio (0 when
// unknown). The decision is a pure cost choice — the binary navigator
// is value-identical to WCOJ on any shape — so misclassification can
// only cost time, never correctness.
func ClassifyPaths(p *planner.Plan, ch *Choice, drift float64) map[*ghd.Node]*PathInfo {
	out := make(map[*ghd.Node]*PathInfo, len(ch.Orders))
	if p.GHD == nil {
		return out
	}
	scores := relScores(p)
	corr := 1.0
	if drift > 0 {
		corr = drift
		if corr < driftMin {
			corr = driftMin
		}
		if corr > driftMax {
			corr = driftMax
		}
	}
	p.GHD.Walk(func(n *ghd.Node, _ int) {
		ord := ch.Orders[n]
		if ord == nil {
			return
		}
		// The node's edges: its relations and one per child result.
		verts := make([][]string, 0, len(n.Edges)+len(n.Children))
		for _, ei := range n.Edges {
			verts = append(verts, p.Rels[ei].Vertices)
		}
		for _, ch := range n.Children {
			verts = append(verts, intersectStrs(n.Bag, ch.Bag))
		}
		pi := &PathInfo{Path: PathWCOJ, Acyclic: ghd.AcyclicHyper(verts), Drift: corr}

		// Build-side terms: only filtered base relations pay a
		// per-query build (a direct build cold, a derive from the cached
		// base order warm; priced as the direct build); each costs
		// score × levels in the chosen representation.
		var sortBuild, bucketBuild float64
		hasFiltered := false
		for _, ei := range n.Edges {
			r := &p.Rels[ei]
			if r.Filter == nil {
				continue
			}
			hasFiltered = true
			levels := float64(len(r.Vertices))
			score := float64(scores[ei])
			sortBuild += score * levels * costSortBuild
			bucketBuild += score * levels * costBucketBuild
		}

		// Exec-side terms: WCOJ pays the §V intersection estimate
		// (drift-corrected); the binary chain pays (coveringEdges-1)
		// probes per driver element at each vertex.
		var probe float64
		for _, vc := range ord.Per {
			m := 0
			for _, vs := range verts {
				if containsStr(vs, vc.Vertex) {
					m++
				}
			}
			if m > 1 {
				probe += float64(m-1) * costLazyProbe * float64(vc.Weight)
			}
		}
		pi.WCOJCost = ord.Cost*corr + sortBuild
		pi.BinaryCost = probe + bucketBuild
		pi.ProbeCost = probe

		// The binary path is only attractive when a per-query build is
		// being avoided; unfiltered joins keep WCOJ (whose tries are
		// cached, and whose dense shapes feed the BLAS fast paths).
		if pi.Acyclic && hasFiltered && pi.BinaryCost < pi.WCOJCost {
			pi.Path = PathBinary
		}
		out[n] = pi
	})
	return out
}
