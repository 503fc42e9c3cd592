package planner

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/qerr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Build translates a parsed query into a logical plan against the
// catalog, applying the four hypergraph-construction rules of §IV-A and
// selecting a GHD per §IV-B.
func Build(q *sqlparse.Query, cat *storage.Catalog) (*Plan, error) {
	b := &builder{q: q, cat: cat, plan: &Plan{}}
	if err := b.resolveFrom(); err != nil {
		return nil, err
	}
	if err := b.classifyWhere(); err != nil {
		return nil, err
	}
	if err := b.buildVertices(); err != nil {
		return nil, err
	}
	if err := b.resolveGroupBy(); err != nil {
		return nil, err
	}
	if err := b.resolveSelect(); err != nil {
		return nil, err
	}
	if err := b.resolveHaving(); err != nil {
		return nil, err
	}
	if err := b.finishHypergraph(); err != nil {
		return nil, err
	}
	return b.plan, nil
}

type colKey struct {
	rel int
	col string
}

type builder struct {
	q    *sqlparse.Query
	cat  *storage.Catalog
	plan *Plan

	joinParent map[colKey]colKey // union-find over joined key columns
	vertexOf   map[colKey]string // column → vertex name (after buildVertices)
	vertexSeq  int
}

// resolveFrom validates the FROM list.
func (b *builder) resolveFrom() error {
	if len(b.q.From) == 0 {
		return fmt.Errorf("planner: empty FROM list")
	}
	seen := map[string]bool{}
	for _, ref := range b.q.From {
		t := b.cat.Table(ref.Table)
		if t == nil {
			return &qerr.UnknownTableError{Name: ref.Table}
		}
		if seen[ref.Alias] {
			return fmt.Errorf("planner: duplicate alias %q", ref.Alias)
		}
		seen[ref.Alias] = true
		b.plan.Rels = append(b.plan.Rels, RelInfo{
			Alias:     ref.Alias,
			Table:     t,
			VertexCol: map[string]string{},
		})
	}
	return nil
}

// resolveCol resolves a column reference to (relation index, column).
func (b *builder) resolveCol(c sqlparse.ColRef) (int, *storage.Column, error) {
	found := -1
	var col *storage.Column
	for i := range b.plan.Rels {
		r := &b.plan.Rels[i]
		if c.Qualifier != "" && c.Qualifier != r.Alias {
			continue
		}
		if cc := r.Table.Col(c.Name); cc != nil {
			if found >= 0 {
				return 0, nil, fmt.Errorf("planner: ambiguous column %s", c)
			}
			found, col = i, cc
		}
	}
	if found < 0 {
		return 0, nil, fmt.Errorf("planner: unknown column %s", c)
	}
	return found, col, nil
}

// relsOf collects the relation indices referenced by an expression.
func (b *builder) relsOf(e sqlparse.Expr) (map[int]bool, error) {
	rels := map[int]bool{}
	var walk func(e sqlparse.Expr) error
	walk = func(e sqlparse.Expr) error {
		switch v := e.(type) {
		case sqlparse.ColRef:
			i, _, err := b.resolveCol(v)
			if err != nil {
				return err
			}
			rels[i] = true
		case sqlparse.BinaryExpr:
			if err := walk(v.L); err != nil {
				return err
			}
			return walk(v.R)
		case sqlparse.UnaryExpr:
			return walk(v.X)
		case sqlparse.FuncCall:
			for _, a := range v.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
		case sqlparse.CaseExpr:
			for _, w := range v.Whens {
				if err := walk(w.Cond); err != nil {
					return err
				}
				if err := walk(w.Then); err != nil {
					return err
				}
			}
			if v.Else != nil {
				return walk(v.Else)
			}
		case sqlparse.BetweenExpr:
			if err := walk(v.X); err != nil {
				return err
			}
			if err := walk(v.Lo); err != nil {
				return err
			}
			return walk(v.Hi)
		case sqlparse.InExpr:
			if err := walk(v.X); err != nil {
				return err
			}
			for _, x := range v.Vals {
				if err := walk(x); err != nil {
					return err
				}
			}
		case sqlparse.LikeExpr:
			return walk(v.X)
		case sqlparse.ExtractExpr:
			return walk(v.X)
		}
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	return rels, nil
}

// classifyWhere splits the WHERE conjunction into equi-join conditions
// (rule 1: unified hypergraph vertices) and single-relation filters.
func (b *builder) classifyWhere() error {
	b.joinParent = map[colKey]colKey{}
	conjuncts := splitAnd(b.q.Where)
	for _, c := range conjuncts {
		if be, ok := c.(sqlparse.BinaryExpr); ok && be.Op == "=" {
			lc, lok := be.L.(sqlparse.ColRef)
			rc, rok := be.R.(sqlparse.ColRef)
			if lok && rok {
				li, lcol, err := b.resolveCol(lc)
				if err != nil {
					return err
				}
				ri, rcol, err := b.resolveCol(rc)
				if err != nil {
					return err
				}
				if li != ri {
					// Equi-join: both sides must be keys of the same domain.
					if lcol.Def.Role != storage.Key || rcol.Def.Role != storage.Key {
						return fmt.Errorf("planner: join on non-key column in %s = %s (annotations cannot join)", lc, rc)
					}
					if lcol.Def.DomainName() != rcol.Def.DomainName() {
						return fmt.Errorf("planner: join across domains %q and %q", lcol.Def.DomainName(), rcol.Def.DomainName())
					}
					b.union(colKey{li, lc.Name}, colKey{ri, rc.Name})
					continue
				}
			}
		}
		// Single-relation filter.
		rels, err := b.relsOf(c)
		if err != nil {
			return err
		}
		if len(rels) == 0 {
			return fmt.Errorf("planner: constant predicate %s is not supported", c)
		}
		if len(rels) > 1 {
			return fmt.Errorf("planner: non-equi-join cross-relation predicate %s is not supported", c)
		}
		var ri int
		for i := range rels {
			ri = i
		}
		r := &b.plan.Rels[ri]
		if r.Filter == nil {
			r.Filter = c
		} else {
			r.Filter = sqlparse.BinaryExpr{Op: "and", L: r.Filter, R: c}
		}
		if isEqualitySelection(c) {
			r.HasEqualitySelection = true
		}
	}
	return nil
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(sqlparse.BinaryExpr); ok && be.Op == "and" {
		return append(splitAnd(be.L), splitAnd(be.R)...)
	}
	return []sqlparse.Expr{e}
}

// isEqualitySelection reports whether the predicate is a high-selectivity
// constraint, per §V-B. The paper names equality constraints; LIKE and
// IN filters are point-like in the same sense (they keep a small
// fraction of the relation, e.g. Q9's p_name LIKE '%green%' at ~5%), so
// they feed the same weight rule — without this, Q9's selective part
// relation is weighted as if unfiltered and lands too late in the order.
func isEqualitySelection(e sqlparse.Expr) bool {
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		if v.Op != "=" {
			return false
		}
		isLit := func(x sqlparse.Expr) bool {
			switch x.(type) {
			case sqlparse.NumberLit, sqlparse.StringLit, sqlparse.DateLit:
				return true
			}
			return false
		}
		_, lcol := v.L.(sqlparse.ColRef)
		_, rcol := v.R.(sqlparse.ColRef)
		return (lcol && isLit(v.R)) || (rcol && isLit(v.L))
	case sqlparse.LikeExpr:
		return !v.Negate
	case sqlparse.InExpr:
		return !v.Negate
	}
	return false
}

func (b *builder) find(k colKey) colKey {
	p, ok := b.joinParent[k]
	if !ok {
		b.joinParent[k] = k
		return k
	}
	if p == k {
		return k
	}
	root := b.find(p)
	b.joinParent[k] = root
	return root
}

func (b *builder) union(a, c colKey) {
	ra, rc := b.find(a), b.find(c)
	if ra != rc {
		b.joinParent[ra] = rc
	}
}

// buildVertices names one hypergraph vertex per join group (rule 1) and
// registers each member column. Groups are visited in order of their
// least (rel, col) member and members in (rel, col) order, so the
// "name#2" suffixes, every relation's vertex order and hence the
// hypergraph are a function of the query text alone — the GHD and
// attribute-order memos key on them.
func (b *builder) buildVertices() error {
	b.vertexOf = map[colKey]string{}
	byRoot := map[colKey][]colKey{}
	for k := range b.joinParent {
		r := b.find(k)
		byRoot[r] = append(byRoot[r], k)
	}
	groups := make([][]colKey, 0, len(byRoot))
	for _, members := range byRoot {
		sort.Slice(members, func(i, j int) bool { return colKeyLess(members[i], members[j]) })
		groups = append(groups, members)
	}
	sort.Slice(groups, func(i, j int) bool { return colKeyLess(groups[i][0], groups[j][0]) })
	usedNames := map[string]int{}
	for _, members := range groups {
		// Every member shares the group's domain (classifyWhere checks).
		col := b.plan.Rels[members[0].rel].Table.Col(members[0].col)
		name := col.Def.DomainName()
		usedNames[name]++
		if usedNames[name] > 1 {
			name = fmt.Sprintf("%s#%d", name, usedNames[name])
		}
		for _, m := range members {
			b.vertexOf[m] = name
			b.addRelVertex(m.rel, name, m.col)
		}
	}
	return nil
}

func colKeyLess(a, b colKey) bool {
	if a.rel != b.rel {
		return a.rel < b.rel
	}
	return a.col < b.col
}

// vertexForKeyCol returns the vertex of a key column, creating a fresh
// one if the column joins nothing (e.g. matrix output indices).
func (b *builder) vertexForKeyCol(rel int, col string) string {
	k := colKey{rel, col}
	if v, ok := b.vertexOf[k]; ok {
		return v
	}
	root := b.find(k)
	if v, ok := b.vertexOf[root]; ok {
		b.vertexOf[k] = v
		return v
	}
	c := b.plan.Rels[rel].Table.Col(col)
	name := c.Def.DomainName()
	// Disambiguate against existing vertex names.
	base, n := name, 1
	for b.vertexNameTaken(name) {
		n++
		name = fmt.Sprintf("%s#%d", base, n)
	}
	b.vertexOf[k] = name
	b.addRelVertex(rel, name, col)
	return name
}

func (b *builder) vertexNameTaken(name string) bool {
	for i := range b.plan.Rels {
		for _, v := range b.plan.Rels[i].Vertices {
			if v == name {
				return true
			}
		}
	}
	return false
}

func (b *builder) addRelVertex(rel int, vertex, col string) {
	r := &b.plan.Rels[rel]
	for _, v := range r.Vertices {
		if v == vertex {
			return
		}
	}
	r.Vertices = append(r.Vertices, vertex)
	r.VertexCol[vertex] = col
}

// pkVertex finds the relation's single-column primary key vertex in this
// query, or "" if the PK is not a join vertex here.
func (b *builder) pkVertex(rel int) string {
	r := &b.plan.Rels[rel]
	for _, cd := range r.Table.Schema.Cols {
		if !cd.PK {
			continue
		}
		if v, ok := b.vertexOf[colKey{rel, cd.Name}]; ok {
			return v
		}
	}
	return ""
}

// resolveGroupBy classifies GROUP BY items per the metadata container
// rules (§IV-A rule 4): key vertices directly; annotations through a PK
// metadata lookup when possible; otherwise promoted to pseudo-vertices.
func (b *builder) resolveGroupBy() error {
	for _, ge := range b.q.GroupBy {
		// GROUP BY may reference a SELECT alias.
		ge = b.expandAlias(ge)
		name := b.nameFor(ge)
		if cr, ok := ge.(sqlparse.ColRef); ok {
			ri, col, err := b.resolveCol(cr)
			if err != nil {
				return err
			}
			if col.Def.Role == storage.Key {
				v := b.vertexForKeyCol(ri, cr.Name)
				b.plan.Groups = append(b.plan.Groups, GroupItem{
					Name: name, Kind: GroupVertex, Vertex: v, Rel: ri, Col: cr.Name,
					String: col.Def.Kind == storage.String,
				})
				continue
			}
			// Annotation column: metadata if the relation's PK is a join
			// vertex, else pseudo-vertex.
			if pk := b.pkVertex(ri); pk != "" {
				b.plan.Groups = append(b.plan.Groups, GroupItem{
					Name: name, Kind: GroupMeta, Vertex: pk, Rel: ri, Expr: ge,
					Col: cr.Name, String: col.Def.Kind == storage.String,
				})
				continue
			}
			v := b.pseudoVertex(ri, cr.Name)
			b.plan.Groups = append(b.plan.Groups, GroupItem{
				Name: name, Kind: GroupPseudo, Vertex: v, Rel: ri, Col: cr.Name,
				String: col.Def.Kind == storage.String,
			})
			continue
		}
		// Computed expression: must reference one relation whose PK is a
		// join vertex.
		rels, err := b.relsOf(ge)
		if err != nil {
			return err
		}
		if len(rels) != 1 {
			return fmt.Errorf("planner: GROUP BY expression %s must reference exactly one relation", ge)
		}
		var ri int
		for i := range rels {
			ri = i
		}
		pk := b.pkVertex(ri)
		if pk == "" {
			return fmt.Errorf("planner: GROUP BY expression %s needs relation %s's primary key in the join", ge, b.plan.Rels[ri].Alias)
		}
		b.plan.Groups = append(b.plan.Groups, GroupItem{
			Name: name, Kind: GroupMeta, Vertex: pk, Rel: ri, Expr: ge,
		})
	}
	return nil
}

// pseudoVertex promotes an annotation column to a trie key level.
func (b *builder) pseudoVertex(rel int, col string) string {
	r := &b.plan.Rels[rel]
	name := r.Alias + "_" + col
	for _, pv := range r.PseudoVertices {
		if pv == name {
			return name
		}
	}
	r.PseudoVertices = append(r.PseudoVertices, name)
	r.Vertices = append(r.Vertices, name)
	r.VertexCol[name] = col
	return name
}

// expandAlias replaces a bare column reference matching a SELECT alias
// with the aliased expression (GROUP BY o_year for an extract alias).
func (b *builder) expandAlias(e sqlparse.Expr) sqlparse.Expr {
	cr, ok := e.(sqlparse.ColRef)
	if !ok || cr.Qualifier != "" {
		return e
	}
	// A real column wins over an alias.
	if _, _, err := b.resolveCol(cr); err == nil {
		return e
	}
	for _, it := range b.q.Select {
		if it.Alias == cr.Name {
			return it.Expr
		}
	}
	return e
}

// nameFor derives an output column name from an expression.
func (b *builder) nameFor(e sqlparse.Expr) string {
	switch v := e.(type) {
	case sqlparse.ColRef:
		return v.Name
	case sqlparse.FuncCall:
		if v.Distinct {
			return v.String() // "count(distinct x)": the keyword keeps its space
		}
	}
	return strings.ReplaceAll(e.String(), " ", "")
}

// groupIndexFor matches a SELECT item against the GROUP BY list.
func (b *builder) groupIndexFor(e sqlparse.Expr) int {
	es := b.expandAlias(e).String()
	for i, ge := range b.q.GroupBy {
		if b.expandAlias(ge).String() == es {
			return i
		}
	}
	return -1
}

// resolveSelect classifies SELECT-list items and builds aggregates.
func (b *builder) resolveSelect() error {
	for _, it := range b.q.Select {
		name := it.Alias
		if name == "" {
			name = b.nameFor(it.Expr)
		}
		if gi := b.groupIndexFor(it.Expr); gi >= 0 {
			if it.Alias != "" {
				b.plan.Groups[gi].Name = it.Alias
			}
			b.plan.Outputs = append(b.plan.Outputs, OutItem{Name: name, Kind: OutGroup, Index: gi})
			continue
		}
		if cr, ok := it.Expr.(sqlparse.ColRef); ok {
			if _, _, err := b.resolveCol(cr); err != nil {
				return err
			}
			return fmt.Errorf("planner: SELECT item %s is neither grouped nor aggregated", cr)
		}
		// Aggregate or arithmetic over aggregates.
		node, nAggs, err := b.buildAggExpr(it.Expr)
		if err != nil {
			return err
		}
		if nAggs == 0 {
			return fmt.Errorf("planner: SELECT item %s is neither grouped nor aggregated", it.Expr)
		}
		if node.Op == EmitLeaf {
			b.plan.Outputs = append(b.plan.Outputs, OutItem{Name: name, Kind: OutAgg, Index: node.Leaf})
		} else {
			b.plan.Outputs = append(b.plan.Outputs, OutItem{Name: name, Kind: OutAggExpr, Expr: node})
		}
	}
	if len(b.plan.Outputs) == 0 {
		return fmt.Errorf("planner: empty SELECT list")
	}
	return nil
}

// resolveHaving compiles the HAVING clause into comparisons over
// aggregate skeletons (registering any aggregates not already in the
// SELECT list).
func (b *builder) resolveHaving() error {
	if b.q.Having == nil {
		return nil
	}
	h, err := b.buildHaving(b.q.Having)
	if err != nil {
		return err
	}
	b.plan.Having = h
	return nil
}

func (b *builder) buildHaving(e sqlparse.Expr) (*HavingNode, error) {
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "and", "or":
			l, err := b.buildHaving(v.L)
			if err != nil {
				return nil, err
			}
			r, err := b.buildHaving(v.R)
			if err != nil {
				return nil, err
			}
			return &HavingNode{Op: v.Op, L: l, R: r}, nil
		case "=", "<>", "<", "<=", ">", ">=":
			le, _, err := b.buildAggExpr(v.L)
			if err != nil {
				return nil, err
			}
			re, _, err := b.buildAggExpr(v.R)
			if err != nil {
				return nil, err
			}
			return &HavingNode{Op: v.Op, LE: le, RE: re}, nil
		}
		return nil, fmt.Errorf("planner: unsupported HAVING operator %q", v.Op)
	case sqlparse.UnaryExpr:
		if v.Op == "not" {
			l, err := b.buildHaving(v.X)
			if err != nil {
				return nil, err
			}
			return &HavingNode{Op: "not", L: l}, nil
		}
	}
	return nil, fmt.Errorf("planner: HAVING must be comparisons over aggregates, got %s", e)
}

// buildAggExpr compiles a SELECT item into a skeleton whose leaves are
// aggregate indices; nAggs counts aggregates found.
func (b *builder) buildAggExpr(e sqlparse.Expr) (*EmitNode, int, error) {
	switch v := e.(type) {
	case sqlparse.FuncCall:
		idx, err := b.addAggregate(v)
		if err != nil {
			return nil, 0, err
		}
		if idx < 0 {
			// AVG expands to sum/count division.
			sumIdx := len(b.plan.Aggs) - 2
			cntIdx := len(b.plan.Aggs) - 1
			return &EmitNode{Op: EmitDiv,
				L: &EmitNode{Op: EmitLeaf, Leaf: sumIdx},
				R: &EmitNode{Op: EmitLeaf, Leaf: cntIdx},
			}, 2, nil
		}
		return &EmitNode{Op: EmitLeaf, Leaf: idx}, 1, nil
	case sqlparse.BinaryExpr:
		var op EmitOp
		switch v.Op {
		case "+":
			op = EmitAdd
		case "-":
			op = EmitSub
		case "*":
			op = EmitMul
		case "/":
			op = EmitDiv
		default:
			return nil, 0, fmt.Errorf("planner: operator %q over aggregates is not supported", v.Op)
		}
		l, nl, err := b.buildAggExpr(v.L)
		if err != nil {
			return nil, 0, err
		}
		r, nr, err := b.buildAggExpr(v.R)
		if err != nil {
			return nil, 0, err
		}
		return &EmitNode{Op: op, L: l, R: r}, nl + nr, nil
	case sqlparse.NumberLit:
		return &EmitNode{Op: EmitConst, Const: v.Val}, 0, nil
	default:
		return nil, 0, fmt.Errorf("planner: unsupported SELECT expression %s", e)
	}
}

// addAggregate registers one aggregate function call, returning its
// index, or -1 when AVG expanded into two aggregates.
func (b *builder) addAggregate(fc sqlparse.FuncCall) (int, error) {
	if fc.Distinct {
		// COUNT(DISTINCT col) over one relation is a scan aggregate: the
		// column is its leaf, not a vertex, so keys may be counted too.
		// Over a join the recursion would need the column as a vertex.
		if len(b.plan.Rels) != 1 {
			return 0, fmt.Errorf("planner: %s(distinct) is only supported over a single table without joins", fc.Name)
		}
		var cr sqlparse.ColRef
		ok := len(fc.Args) == 1
		if ok {
			cr, ok = fc.Args[0].(sqlparse.ColRef)
		}
		if fc.Name != "count" || !ok {
			return 0, fmt.Errorf("planner: %s(distinct) is only supported as count over a column", fc.Name)
		}
		ri, _, err := b.resolveCol(cr)
		if err != nil {
			return 0, err
		}
		b.plan.Aggs = append(b.plan.Aggs, AggSpec{Name: "count", Kind: AggCount, Distinct: true,
			Leaves: []AggLeaf{{Rel: ri, Expr: cr}}})
		return len(b.plan.Aggs) - 1, nil
	}
	switch fc.Name {
	case "count":
		// COUNT(*) and COUNT(expr) (no NULLs in this engine) are the
		// product of relation multiplicities.
		b.plan.Aggs = append(b.plan.Aggs, AggSpec{Name: "count", Kind: AggCount})
		return len(b.plan.Aggs) - 1, nil
	case "avg":
		if len(fc.Args) != 1 {
			return 0, fmt.Errorf("planner: avg takes one argument")
		}
		if _, err := b.addSum("avg_sum", fc.Args[0]); err != nil {
			return 0, err
		}
		b.plan.Aggs = append(b.plan.Aggs, AggSpec{Name: "avg_count", Kind: AggCount})
		return -1, nil
	case "sum":
		if len(fc.Args) != 1 {
			return 0, fmt.Errorf("planner: sum takes one argument")
		}
		return b.addSum("sum", fc.Args[0])
	case "min", "max":
		if len(fc.Args) != 1 {
			return 0, fmt.Errorf("planner: %s takes one argument", fc.Name)
		}
		rels, err := b.relsOf(fc.Args[0])
		if err != nil {
			return 0, err
		}
		if len(rels) != 1 {
			return 0, fmt.Errorf("planner: %s over multiple relations is not supported", fc.Name)
		}
		var ri int
		for i := range rels {
			ri = i
		}
		if err := b.checkNoKeys(fc.Args[0]); err != nil {
			return 0, err
		}
		kind := AggMin
		if fc.Name == "max" {
			kind = AggMax
		}
		spec := AggSpec{Name: fc.Name, Kind: kind,
			Leaves:   []AggLeaf{{Rel: ri, Expr: fc.Args[0]}},
			Skeleton: &EmitNode{Op: EmitLeaf, Leaf: 0},
		}
		b.plan.Aggs = append(b.plan.Aggs, spec)
		return len(b.plan.Aggs) - 1, nil
	default:
		return 0, fmt.Errorf("planner: unknown aggregate %q", fc.Name)
	}
}

// addSum decomposes a SUM argument into per-relation leaves and a
// cross-relation skeleton (§IV-A rule 3 generalized to multilinear
// expressions).
func (b *builder) addSum(name string, arg sqlparse.Expr) (int, error) {
	if err := b.checkNoKeys(arg); err != nil {
		return 0, err
	}
	spec := AggSpec{Name: name, Kind: AggSum}
	skel, err := b.decompose(arg, &spec)
	if err != nil {
		return 0, err
	}
	spec.Skeleton = skel
	b.plan.Aggs = append(b.plan.Aggs, spec)
	return len(b.plan.Aggs) - 1, nil
}

// checkNoKeys enforces the data-model rule that keys cannot be
// aggregated (§III-A).
func (b *builder) checkNoKeys(e sqlparse.Expr) error {
	var bad error
	var walk func(e sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		if bad != nil {
			return
		}
		switch v := e.(type) {
		case sqlparse.ColRef:
			_, col, err := b.resolveCol(v)
			if err == nil && col.Def.Role == storage.Key {
				bad = fmt.Errorf("planner: key attribute %s cannot be aggregated", v)
			}
		case sqlparse.BinaryExpr:
			walk(v.L)
			walk(v.R)
		case sqlparse.UnaryExpr:
			walk(v.X)
		case sqlparse.CaseExpr:
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if v.Else != nil {
				walk(v.Else)
			}
		case sqlparse.ExtractExpr:
			walk(v.X)
		}
	}
	walk(e)
	return bad
}

// decompose splits an aggregate argument into single-relation leaves
// connected by an arithmetic skeleton. Each maximal single-relation
// subexpression becomes one leaf, evaluated per source row and
// pre-aggregated into that relation's trie annotation.
func (b *builder) decompose(e sqlparse.Expr, spec *AggSpec) (*EmitNode, error) {
	rels, err := b.relsOf(e)
	if err != nil {
		return nil, err
	}
	if len(rels) == 0 {
		v, ok := constFold(e)
		if !ok {
			return nil, fmt.Errorf("planner: cannot fold constant expression %s", e)
		}
		return &EmitNode{Op: EmitConst, Const: v}, nil
	}
	if len(rels) == 1 {
		var ri int
		for i := range rels {
			ri = i
		}
		spec.Leaves = append(spec.Leaves, AggLeaf{Rel: ri, Expr: e})
		return &EmitNode{Op: EmitLeaf, Leaf: len(spec.Leaves) - 1}, nil
	}
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		var op EmitOp
		switch v.Op {
		case "+":
			op = EmitAdd
		case "-":
			op = EmitSub
		case "*":
			op = EmitMul
		case "/":
			op = EmitDiv
		default:
			return nil, fmt.Errorf("planner: cannot decompose cross-relation %s", e)
		}
		l, err := b.decompose(v.L, spec)
		if err != nil {
			return nil, err
		}
		r, err := b.decompose(v.R, spec)
		if err != nil {
			return nil, err
		}
		return &EmitNode{Op: op, L: l, R: r}, nil
	case sqlparse.CaseExpr:
		// CASE WHEN p THEN x ELSE 0 END with p and x on different single
		// relations rewrites to indicator(p) * x (paper Q8).
		if len(v.Whens) != 1 {
			return nil, fmt.Errorf("planner: cross-relation CASE must have a single WHEN")
		}
		if v.Else != nil {
			if c, ok := constFold(v.Else); !ok || c != 0 {
				return nil, fmt.Errorf("planner: cross-relation CASE requires ELSE 0")
			}
		}
		cond, err := b.decompose(v.Whens[0].Cond, spec)
		if err != nil {
			return nil, err
		}
		then, err := b.decompose(v.Whens[0].Then, spec)
		if err != nil {
			return nil, err
		}
		return &EmitNode{Op: EmitMulInd, L: cond, R: then}, nil
	default:
		return nil, fmt.Errorf("planner: cannot decompose cross-relation expression %s", e)
	}
}

// constFold evaluates a literal-only numeric expression.
func constFold(e sqlparse.Expr) (float64, bool) {
	switch v := e.(type) {
	case sqlparse.NumberLit:
		return v.Val, true
	case sqlparse.DateLit:
		return float64(v.Days), true
	case sqlparse.UnaryExpr:
		if v.Op == "-" {
			x, ok := constFold(v.X)
			return -x, ok
		}
	case sqlparse.BinaryExpr:
		l, lok := constFold(v.L)
		r, rok := constFold(v.R)
		if lok && rok {
			switch v.Op {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			case "/":
				return l / r, true
			}
		}
	}
	return 0, false
}

// finishHypergraph applies rule 1's edge construction, detects the
// single-relation scan, and runs GHD selection.
func (b *builder) finishHypergraph() error {
	p := b.plan
	// Materialized vertices: those needed by group items.
	seen := map[string]bool{}
	for _, g := range p.Groups {
		if !seen[g.Vertex] {
			seen[g.Vertex] = true
			p.OutVertices = append(p.OutVertices, g.Vertex)
		}
	}

	// Single-relation aggregate scan: one relation whose every vertex is a
	// GROUP BY (or pseudo-) vertex, filtered, ungrouped or counting
	// distinct values, needs no join and no trie — a block scan folds it.
	// An unfiltered grouped relation keeps the trie path, whose cached
	// trie answers in O(groups).
	distinct := false
	for _, a := range p.Aggs {
		distinct = distinct || a.Distinct
	}
	if len(p.Rels) == 1 && (p.Rels[0].Filter != nil || len(p.Groups) == 0 || distinct) &&
		subset(p.Rels[0].Vertices, p.OutVertices) {
		p.ScalarScan = true
		p.StoredGroupKinds = distinct
		return nil
	}

	var edges []hypergraph.Edge
	var selEdges []int
	for i := range p.Rels {
		r := &p.Rels[i]
		if len(r.Vertices) == 0 {
			return fmt.Errorf("planner: relation %s joins nothing (cartesian products are not supported)", r.Alias)
		}
		edges = append(edges, hypergraph.Edge{
			Name:     r.Alias,
			Vertices: append([]string(nil), r.Vertices...),
			Card:     r.Table.LiveRows(),
		})
		if r.HasEqualitySelection {
			selEdges = append(selEdges, i)
		}
	}
	hg, err := hypergraph.New(edges)
	if err != nil {
		return err
	}
	p.HG = hg

	// Hash-emit candidacy: every group item is a metadata expression, so
	// no vertex needs to lead the attribute order — aggregate into a
	// hash table at emit instead (Fig. 4's out(n_n) += pattern). Valid
	// only if the unconstrained GHD's root still binds every metadata
	// vertex.
	allMeta := len(p.Groups) > 0
	for _, g := range p.Groups {
		if g.Kind != GroupMeta {
			allMeta = false
			break
		}
	}
	if allMeta {
		g, err := ghd.Decompose(hg, ghd.Options{SelectionEdges: selEdges})
		if err == nil && subset(p.OutVertices, g.Root.Bag) {
			p.GHD = g
			p.HashEmit = true
			p.OutVertices = nil
			return nil
		}
	}

	g, err := ghd.Decompose(hg, ghd.Options{
		RootMustContain: p.OutVertices,
		SelectionEdges:  selEdges,
	})
	if err != nil {
		return err
	}
	p.GHD = g
	return nil
}

// subset reports whether every element of a is in b.
func subset(a, b []string) bool {
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
