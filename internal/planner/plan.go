// Package planner translates parsed SQL queries into LevelHeaded's
// logical plan: the query hypergraph built by the four rules of paper
// §IV-A, the GHD chosen per §IV-B, the AJAR aggregate decomposition
// (per-relation annotation factors plus a cross-relation emit skeleton),
// the metadata container M for non-aggregated annotations, and the
// attribute-elimination decisions that determine exactly which trie
// levels and annotation buffers a query touches.
package planner

import (
	"fmt"

	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// RelInfo is one relation occurrence (FROM-list entry) in a plan.
type RelInfo struct {
	// Alias is the unique FROM alias.
	Alias string
	Table *storage.Table
	// Vertices are the hypergraph vertices this relation covers: join
	// vertices first, in the planner's (rel, col)-sorted group order, then
	// GROUP BY key and pseudo-vertices in GROUP BY order. The layout is a
	// function of the query text. VertexCol maps vertex → column name.
	Vertices  []string
	VertexCol map[string]string
	// PseudoVertices are GROUP BY annotation columns promoted to trie key
	// levels because no key-based metadata lookup can resolve them
	// (paper Q1: l_returnflag, l_linestatus).
	PseudoVertices []string
	// Filter is the conjunction of single-relation predicates, applied
	// while the query trie is built; nil when the relation is unfiltered.
	Filter sqlparse.Expr
	// HasEqualitySelection feeds GHD heuristic 4 and the §V-B weight rule.
	HasEqualitySelection bool
}

// AggKind is the SQL aggregate function class.
type AggKind uint8

const (
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// AggLeaf is a per-relation annotation factor: Expr evaluated per source
// row of Rel, pre-aggregated over duplicate key tuples during trie
// construction (the AJAR annotation of that relation, §IV-A rule 3).
type AggLeaf struct {
	Rel  int
	Expr sqlparse.Expr
}

// EmitOp is an operator of the cross-relation emit skeleton.
type EmitOp uint8

const (
	EmitLeaf EmitOp = iota
	EmitConst
	EmitAdd
	EmitSub
	EmitMul
	EmitDiv
	// EmitMulInd is the indicator product of a decomposed CASE WHEN p
	// THEN x ELSE 0: a left operand of exactly 0 short-circuits to 0
	// without evaluating IEEE 0*NaN or 0*Inf, which would leak a NaN
	// into groups whose predicate never fired.
	EmitMulInd
)

// EmitNode is the skeleton combining per-relation leaves into the value
// added to an aggregate for each WCOJ result tuple. Leaves must appear
// linearly per relation (guaranteed by construction for the supported
// SQL shapes), which keeps pre-aggregation of duplicates sound.
type EmitNode struct {
	Op    EmitOp
	Leaf  int // EmitLeaf: index into AggSpec.Leaves
	Const float64
	L, R  *EmitNode
}

// AggSpec is one aggregate computed by the query.
type AggSpec struct {
	Name     string
	Kind     AggKind
	Leaves   []AggLeaf
	Skeleton *EmitNode
	// Distinct marks COUNT(DISTINCT col) over a single relation: an
	// AggCount whose one leaf is the column, counted once per distinct
	// value in each group. The column is not a vertex.
	Distinct bool
}

// GroupKind classifies a GROUP BY item.
type GroupKind uint8

const (
	// GroupVertex is a direct reference to a join vertex (key column).
	GroupVertex GroupKind = iota
	// GroupMeta is an expression over annotations of one relation,
	// resolved through the metadata container: the relation's PK vertex
	// code locates a source row, on which the expression is evaluated.
	GroupMeta
	// GroupPseudo is an annotation column promoted to a trie level.
	GroupPseudo
)

// GroupItem is one GROUP BY output column.
type GroupItem struct {
	Name string
	Kind GroupKind
	// Vertex: GroupVertex/GroupPseudo — the hypergraph vertex holding the
	// value. GroupMeta — the PK vertex used for the metadata row lookup.
	Vertex string
	// Rel/Expr: GroupMeta — relation and expression to evaluate on the
	// looked-up source row. GroupPseudo — relation and source column.
	Rel    int
	Expr   sqlparse.Expr
	Col    string // GroupPseudo / GroupVertex: source column name
	String bool   // output value is a string (decode through a dictionary)
}

// OutKind classifies a SELECT-list item.
type OutKind uint8

const (
	OutGroup OutKind = iota
	OutAgg
	OutAggExpr
)

// OutItem is one SELECT-list output column.
type OutItem struct {
	Name  string
	Kind  OutKind
	Index int       // OutGroup: group index; OutAgg: aggregate index
	Expr  *EmitNode // OutAggExpr: skeleton whose leaves index Aggs
}

// HavingNode is the compiled HAVING predicate: logical combinators over
// comparisons whose operands are skeletons evaluated on the final
// per-group aggregate values.
type HavingNode struct {
	// Op is "and", "or", "not", or a comparison (= <> < <= > >=).
	Op     string
	L, R   *HavingNode // logical children ("not" uses L only)
	LE, RE *EmitNode   // comparison operands (leaves index Plan.Aggs)
}

// Plan is the complete logical plan.
type Plan struct {
	Rels    []RelInfo
	HG      *hypergraph.Hypergraph
	GHD     *ghd.GHD
	Aggs    []AggSpec
	Groups  []GroupItem
	Outputs []OutItem
	// Having filters final groups; nil when absent.
	Having *HavingNode
	// OutVertices are the materialized hypergraph vertices (needed by
	// group items), which must lead every attribute order.
	OutVertices []string
	// ScalarScan marks a single-relation aggregate that is filtered,
	// ungrouped (paper Q1 and Q6) or counts distinct values: a
	// block-at-a-time scan folds it with no trie, so the plan has no
	// hypergraph or GHD.
	ScalarScan bool
	// StoredGroupKinds decodes int and date annotation GROUP BY columns
	// to their stored int64 values (KindInt, a date as its day count)
	// instead of float64 values and YYYY-MM-DD strings. The planner sets
	// it on COUNT(DISTINCT) plans and the approximate tier on its sample
	// plans: the kinds those answers carry.
	StoredGroupKinds bool
	// HashEmit marks plans whose GROUP BY items are all metadata
	// expressions: instead of materializing their key vertices at the
	// front of the attribute order (which can force a low-cardinality
	// attribute into an outer loop), the engine aggregates into a hash
	// table keyed by the metadata values at emit time — the
	// `out(n_n) += ...` pattern of the paper's Fig. 4 generated code.
	// OutVertices is empty and the order is unconstrained.
	HashEmit bool
}

// RelIndex returns the index of the relation with the given alias, or -1.
func (p *Plan) RelIndex(alias string) int {
	for i := range p.Rels {
		if p.Rels[i].Alias == alias {
			return i
		}
	}
	return -1
}

func (p *Plan) String() string {
	s := fmt.Sprintf("plan: %d rels, %d aggs, %d groups", len(p.Rels), len(p.Aggs), len(p.Groups))
	if p.HG != nil {
		s += "\n  " + p.HG.String()
	}
	if p.GHD != nil {
		s += "\n" + p.GHD.String()
	}
	return s
}
