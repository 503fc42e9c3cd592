package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sqlparse"
)

// FromItem is one FROM-list entry of a generated query.
type FromItem struct {
	Table string `json:"table"`
	Alias string `json:"alias"`
}

// QuerySpec is the structured form of a generated query. The reducer
// shrinks specs (dropping filters, group items, aggregates) and
// re-renders SQL, which keeps string escaping correct without an AST
// printer.
type QuerySpec struct {
	From    []FromItem `json:"from"`
	Joins   []string   `json:"joins,omitempty"`
	Filters []string   `json:"filters,omitempty"`
	GroupBy []string   `json:"group_by,omitempty"`
	Aggs    []string   `json:"aggs,omitempty"`
	Having  string     `json:"having,omitempty"`
}

// SQL renders the spec as a query string.
func (s *QuerySpec) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	var items []string
	items = append(items, s.GroupBy...)
	items = append(items, s.Aggs...)
	sb.WriteString(strings.Join(items, ", "))
	sb.WriteString(" FROM ")
	var froms []string
	for _, f := range s.From {
		if f.Alias != "" && f.Alias != f.Table {
			froms = append(froms, f.Table+" AS "+f.Alias)
		} else {
			froms = append(froms, f.Table)
		}
	}
	sb.WriteString(strings.Join(froms, ", "))
	preds := append(append([]string{}, s.Joins...), s.Filters...)
	if len(preds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(s.GroupBy, ", "))
	}
	if s.Having != "" {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having)
	}
	return sb.String()
}

// Clone deep-copies the spec.
func (s *QuerySpec) Clone() *QuerySpec {
	c := &QuerySpec{Having: s.Having}
	c.From = append([]FromItem{}, s.From...)
	c.Joins = append([]string{}, s.Joins...)
	c.Filters = append([]string{}, s.Filters...)
	c.GroupBy = append([]string{}, s.GroupBy...)
	c.Aggs = append([]string{}, s.Aggs...)
	return c
}

// Gen is a seeded generator of random cases.
type Gen struct {
	rnd  *rand.Rand
	seed int64
}

// NewGen returns a generator with a deterministic stream for seed.
func NewGen(seed int64) *Gen {
	return &Gen{rnd: rand.New(rand.NewSource(seed)), seed: seed}
}

// genCol tracks generation-time facts about one column.
type genCol struct {
	def     ColDef
	hasNaN  bool // float column that may contain NaN (excluded from min/max)
	sampleI []int64
	sampleF []float64
	sampleS []string
}

type genTable struct {
	def  TableDef
	cols []*genCol
}

// stringPool is the adversarial string vocabulary: empty strings,
// quote-bearing strings, LIKE metacharacters, multi-byte runes.
var stringPool = []string{
	"", "a", "ab", "abc", "zzz", "o'hara", "it''s", "%", "_", "a%b_c",
	"café", "BUILDING", "x y", "'", "  ",
}

func strLit(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Candidate generates one random case plus its spec. The query may be
// outside the supported subset — callers retry on a Skip verdict.
func (g *Gen) Candidate() (*Case, *QuerySpec) {
	r := g.rnd
	star := r.Intn(10) < 6
	var tables []*genTable
	if star {
		nDims := 1 + r.Intn(2)
		for d := 0; d < nDims; d++ {
			tables = append(tables, g.genDim(d))
		}
		tables = append(tables, g.genFact(len(tables), tables))
	} else {
		tables = append(tables, g.genSingle())
	}

	c := &Case{Seed: g.seed}
	for _, t := range tables {
		c.Tables = append(c.Tables, t.def)
	}
	spec := g.genQuery(tables, star)
	c.SQL = spec.SQL()
	return c, spec
}

func (g *Gen) keyKind() string {
	switch g.rnd.Intn(4) {
	case 0:
		return "date"
	case 1:
		return "string"
	default:
		return "int"
	}
}

func (g *Gen) genDim(idx int) *genTable {
	r := g.rnd
	name := fmt.Sprintf("dim%d", idx)
	kk := g.keyKind()
	t := &genTable{}
	pk := &genCol{def: ColDef{Name: "k", Kind: kk, Role: "key", Domain: fmt.Sprintf("d%d", idx), PK: true}}
	t.cols = append(t.cols, pk)
	nAnn := 1 + r.Intn(2)
	for a := 0; a < nAnn; a++ {
		t.cols = append(t.cols, g.genAnnCol(fmt.Sprintf("a%d", a)))
	}
	n := r.Intn(9) // 0..8 rows, occasionally empty
	if r.Intn(12) == 0 {
		n = 0
	}
	g.fillTable(t, name, n, map[string]bool{"k": true})
	return t
}

func (g *Gen) genFact(idx int, dims []*genTable) *genTable {
	r := g.rnd
	name := "fact"
	t := &genTable{}
	for d, dim := range dims {
		fk := &genCol{def: ColDef{
			Name:   fmt.Sprintf("f%d", d),
			Kind:   dim.cols[0].def.Kind,
			Role:   "key",
			Domain: dim.cols[0].def.Domain,
		}}
		t.cols = append(t.cols, fk)
	}
	nAnn := 1 + r.Intn(3)
	for a := 0; a < nAnn; a++ {
		t.cols = append(t.cols, g.genAnnCol(fmt.Sprintf("m%d", a)))
	}
	n := r.Intn(36)
	if r.Intn(12) == 0 {
		n = 0
	}
	// FK cells reuse dim PK values with Zipf-style skew plus a sliver of
	// dangling keys that match no dim row.
	fkPools := make([][]string, len(dims))
	for d, dim := range dims {
		for _, row := range dim.def.Rows {
			fkPools[d] = append(fkPools[d], row[0])
		}
	}
	g.fillTableWithFKs(t, name, n, fkPools)
	return t
}

func (g *Gen) genSingle() *genTable {
	r := g.rnd
	t := &genTable{}
	nKeys := 1 + r.Intn(2)
	for k := 0; k < nKeys; k++ {
		t.cols = append(t.cols, &genCol{def: ColDef{
			Name:   fmt.Sprintf("k%d", k),
			Kind:   g.keyKind(),
			Role:   "key",
			Domain: fmt.Sprintf("s%d", k),
			PK:     k == 0 && r.Intn(3) == 0,
		}})
	}
	nAnn := 1 + r.Intn(3)
	for a := 0; a < nAnn; a++ {
		t.cols = append(t.cols, g.genAnnCol(fmt.Sprintf("a%d", a)))
	}
	n := r.Intn(30)
	if r.Intn(12) == 0 {
		n = 0
	}
	uniq := map[string]bool{}
	if t.cols[0].def.PK {
		uniq["k0"] = true
	}
	g.fillTable(t, "t0", n, uniq)
	return t
}

func (g *Gen) genAnnCol(name string) *genCol {
	r := g.rnd
	c := &genCol{}
	switch r.Intn(6) {
	case 0:
		c.def = ColDef{Name: name, Kind: "int", Role: "ann"}
	case 1:
		c.def = ColDef{Name: name, Kind: "string", Role: "ann"}
	case 2:
		c.def = ColDef{Name: name, Kind: "date", Role: "ann"}
	default:
		c.def = ColDef{Name: name, Kind: "float", Role: "ann"}
		c.hasNaN = r.Intn(3) == 0
	}
	return c
}

// cell generates one value for col, recording it in the sample pools.
func (g *Gen) cell(c *genCol) string {
	r := g.rnd
	switch c.def.Kind {
	case "int":
		var v int64
		switch r.Intn(12) {
		case 0:
			v = math.MaxInt64
		case 1:
			v = math.MaxInt64 - 1
		case 2:
			v = 0
		default:
			if c.def.Role == "ann" {
				v = int64(r.Intn(101) - 50)
			} else {
				v = int64(r.Intn(24))
			}
		}
		if c.def.Role == "ann" && (v == math.MaxInt64 || v == math.MaxInt64-1) {
			// Annotations flow through float64 aggregation; stay exact.
			v = int64(1) << 40
		}
		c.sampleI = append(c.sampleI, v)
		return strconv.FormatInt(v, 10)
	case "date":
		v := int64(9000 + r.Intn(400))
		c.sampleI = append(c.sampleI, v)
		return strconv.FormatInt(v, 10)
	case "float":
		var v float64
		switch {
		case c.hasNaN && r.Intn(8) == 0:
			v = math.NaN()
		case r.Intn(16) == 0:
			v = math.Copysign(0, -1)
		case r.Intn(16) == 0:
			v = 0
		default:
			// Quarter multiples in a small range: sums and products stay
			// exactly representable, so the oracles agree bit-for-bit.
			v = float64(r.Intn(129)-64) / 4
		}
		c.sampleF = append(c.sampleF, v)
		return fmtFloat(v)
	default:
		v := stringPool[r.Intn(len(stringPool))]
		c.sampleS = append(c.sampleS, v)
		return v
	}
}

func (g *Gen) fillTable(t *genTable, name string, n int, uniqueCols map[string]bool) {
	t.def.Name = name
	for _, c := range t.cols {
		t.def.Cols = append(t.def.Cols, c.def)
	}
	seen := map[string]map[string]bool{}
	for cn := range uniqueCols {
		seen[cn] = map[string]bool{}
	}
	for i := 0; i < n; i++ {
		row := make([]string, len(t.cols))
		ok := true
		for ci, c := range t.cols {
			cell := g.cell(c)
			if uniqueCols[c.def.Name] {
				// PK columns must be genuinely unique: retry a few times,
				// then drop the row.
				tries := 0
				for seen[c.def.Name][cell] && tries < 8 {
					cell = g.cell(c)
					tries++
				}
				if seen[c.def.Name][cell] {
					ok = false
					break
				}
				seen[c.def.Name][cell] = true
			}
			row[ci] = cell
		}
		if ok {
			t.def.Rows = append(t.def.Rows, row)
		}
	}
}

func (g *Gen) fillTableWithFKs(t *genTable, name string, n int, fkPools [][]string) {
	r := g.rnd
	t.def.Name = name
	for _, c := range t.cols {
		t.def.Cols = append(t.def.Cols, c.def)
	}
	for i := 0; i < n; i++ {
		row := make([]string, len(t.cols))
		fi := 0
		for ci, c := range t.cols {
			if c.def.Role == "key" {
				pool := fkPools[fi]
				fi++
				if len(pool) == 0 || r.Intn(10) == 0 {
					// Dangling key: joins must drop it.
					row[ci] = g.cell(c)
				} else {
					// Zipf-style reuse: low-index dim keys dominate.
					idx := int(float64(len(pool)) * math.Pow(r.Float64(), 2.5))
					if idx >= len(pool) {
						idx = len(pool) - 1
					}
					cell := pool[idx]
					row[ci] = cell
					g.recordSample(c, cell)
				}
				continue
			}
			row[ci] = g.cell(c)
		}
		t.def.Rows = append(t.def.Rows, row)
	}
}

func (g *Gen) recordSample(c *genCol, cell string) {
	switch c.def.Kind {
	case "int", "date":
		if v, err := strconv.ParseInt(cell, 10, 64); err == nil {
			c.sampleI = append(c.sampleI, v)
		}
	case "float":
		if v, err := strconv.ParseFloat(cell, 64); err == nil {
			c.sampleF = append(c.sampleF, v)
		}
	default:
		c.sampleS = append(c.sampleS, cell)
	}
}

// --- query generation ---

type boundTable struct {
	alias string
	t     *genTable
}

func (g *Gen) genQuery(tables []*genTable, star bool) *QuerySpec {
	r := g.rnd
	spec := &QuerySpec{}
	var bound []boundTable

	if star {
		fact := tables[len(tables)-1]
		nJoin := 1 + r.Intn(len(tables)-1)
		spec.From = append(spec.From, FromItem{Table: fact.def.Name, Alias: fact.def.Name})
		bound = append(bound, boundTable{fact.def.Name, fact})
		for d := 0; d < nJoin; d++ {
			dim := tables[d]
			spec.From = append(spec.From, FromItem{Table: dim.def.Name, Alias: dim.def.Name})
			bound = append(bound, boundTable{dim.def.Name, dim})
			spec.Joins = append(spec.Joins,
				fmt.Sprintf("%s.f%d = %s.k", fact.def.Name, d, dim.def.Name))
		}
		if len(tables) == 2 && r.Intn(8) == 0 {
			// Self-join of the fact on its FK domain.
			spec.From = []FromItem{
				{Table: fact.def.Name, Alias: "fa"},
				{Table: fact.def.Name, Alias: "fb"},
			}
			bound = []boundTable{{"fa", fact}, {"fb", fact}}
			spec.Joins = []string{"fa.f0 = fb.f0"}
		}
	} else {
		t := tables[0]
		spec.From = append(spec.From, FromItem{Table: t.def.Name, Alias: t.def.Name})
		bound = append(bound, boundTable{t.def.Name, t})
	}
	single := len(bound) == 1

	// Filters.
	nFilt := r.Intn(4)
	for i := 0; i < nFilt; i++ {
		if f := g.genFilter(bound); f != "" {
			spec.Filters = append(spec.Filters, f)
		}
	}

	// GROUP BY.
	nGroup := 0
	switch r.Intn(5) {
	case 1, 2:
		nGroup = 1
	case 3:
		nGroup = 2
	}
	seenG := map[string]bool{}
	for i := 0; i < nGroup; i++ {
		bt := bound[r.Intn(len(bound))]
		var cands []string
		for _, c := range bt.t.cols {
			cands = append(cands, bt.alias+"."+c.def.Name)
		}
		ref := cands[r.Intn(len(cands))]
		if !seenG[ref] {
			seenG[ref] = true
			spec.GroupBy = append(spec.GroupBy, ref)
		}
	}

	// Aggregates: 1..3.
	nAgg := 1 + r.Intn(3)
	for i := 0; i < nAgg; i++ {
		spec.Aggs = append(spec.Aggs, g.genAgg(bound, single))
	}

	// HAVING over an aggregate already in the SELECT list.
	if len(spec.GroupBy) > 0 && r.Intn(4) == 0 {
		agg := spec.Aggs[r.Intn(len(spec.Aggs))]
		agg = strings.SplitN(agg, " AS ", 2)[0]
		switch r.Intn(3) {
		case 0:
			spec.Having = fmt.Sprintf("%s > %d", agg, r.Intn(4))
		case 1:
			spec.Having = fmt.Sprintf("%s <= %d", agg, 2+r.Intn(6))
		default:
			spec.Having = fmt.Sprintf("%s <> 0", agg)
		}
	}
	return spec
}

// numericCols returns aliased refs of numeric (non-NaN unless nanOK)
// annotation columns.
func numericAnnCols(bound []boundTable, nanOK bool) []string {
	var out []string
	for _, bt := range bound {
		for _, c := range bt.t.cols {
			if c.def.Role != "ann" {
				continue
			}
			if c.def.Kind == "float" && (nanOK || !c.hasNaN) {
				out = append(out, bt.alias+"."+c.def.Name)
			}
			if c.def.Kind == "int" {
				out = append(out, bt.alias+"."+c.def.Name)
			}
		}
	}
	return out
}

func (g *Gen) genAgg(bound []boundTable, single bool) string {
	r := g.rnd
	sumCols := numericAnnCols(bound, true)
	mmCols := numericAnnCols(bound, false)

	simple := func() string {
		switch {
		case len(sumCols) == 0 || r.Intn(4) == 0:
			return "count(*)"
		default:
			col := sumCols[r.Intn(len(sumCols))]
			arg := col
			switch r.Intn(6) {
			case 0:
				if len(sumCols) > 1 {
					arg = col + " * " + sumCols[r.Intn(len(sumCols))]
				}
			case 1:
				arg = col + " + " + strconv.Itoa(r.Intn(5))
			case 2:
				// The planner rejects key attributes anywhere inside an
				// aggregate argument, so CASE predicates draw from
				// annotation columns only.
				if f := g.genFilterFrom(bound, true); f != "" {
					arg = fmt.Sprintf("CASE WHEN %s THEN %s ELSE 0 END", f, col)
				}
			}
			fn := "sum"
			if r.Intn(5) == 0 {
				fn = "avg"
			}
			return fmt.Sprintf("%s(%s)", fn, arg)
		}
	}

	if single && r.Intn(6) == 0 {
		// COUNT(DISTINCT) over any column, key or annotation: a scan
		// aggregate of a single relation.
		bt := bound[0]
		c := bt.t.cols[r.Intn(len(bt.t.cols))]
		return fmt.Sprintf("count(distinct %s.%s)", bt.alias, c.def.Name)
	}
	if single && len(mmCols) > 0 && r.Intn(5) == 0 {
		fn := "min"
		if r.Intn(2) == 0 {
			fn = "max"
		}
		return fmt.Sprintf("%s(%s)", fn, mmCols[r.Intn(len(mmCols))])
	}
	a := simple()
	if r.Intn(6) == 0 {
		// Arithmetic over aggregates.
		b := simple()
		op := []string{"+", "-", "*"}[r.Intn(3)]
		return a + " " + op + " " + b
	}
	return a
}

// genFilter emits one single-alias predicate, or "" when no suitable
// column exists.
func (g *Gen) genFilter(bound []boundTable) string {
	return g.genFilterFrom(bound, false)
}

// genFilterFrom is genFilter with an optional restriction to
// annotation columns (required inside aggregate arguments).
func (g *Gen) genFilterFrom(bound []boundTable, annOnly bool) string {
	r := g.rnd
	bt := bound[r.Intn(len(bound))]
	var cols []*genCol
	for _, c := range bt.t.cols {
		if annOnly && c.def.Role != "ann" {
			continue
		}
		cols = append(cols, c)
	}
	if len(cols) == 0 {
		return ""
	}
	c := cols[r.Intn(len(cols))]
	ref := bt.alias + "." + c.def.Name
	base := g.genPredicate(ref, c)
	if base == "" {
		return ""
	}
	switch r.Intn(8) {
	case 0:
		return "NOT " + base
	case 1:
		c2 := cols[r.Intn(len(cols))]
		if other := g.genPredicate(bt.alias+"."+c2.def.Name, c2); other != "" {
			return "(" + base + " OR " + other + ")"
		}
	}
	return base
}

func (g *Gen) genPredicate(ref string, c *genCol) string {
	r := g.rnd
	cmp := []string{"=", "<>", "<", "<=", ">", ">="}
	switch c.def.Kind {
	case "int":
		v := int64(r.Intn(25) - 2)
		if len(c.sampleI) > 0 && r.Intn(2) == 0 {
			v = c.sampleI[r.Intn(len(c.sampleI))]
		}
		switch r.Intn(4) {
		case 0:
			lo := v - int64(r.Intn(4))
			return fmt.Sprintf("%s BETWEEN %d AND %d", ref, lo, v)
		case 1:
			vals := []string{strconv.FormatInt(v, 10)}
			for k := 0; k < 1+r.Intn(2); k++ {
				vals = append(vals, strconv.FormatInt(g.sampleOrSmallInt(c), 10))
			}
			neg := ""
			if r.Intn(3) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s %sIN (%s)", ref, neg, strings.Join(vals, ", "))
		default:
			return fmt.Sprintf("%s %s %d", ref, cmp[r.Intn(len(cmp))], v)
		}
	case "date":
		v := int64(9000 + r.Intn(400))
		if len(c.sampleI) > 0 && r.Intn(2) == 0 {
			v = c.sampleI[r.Intn(len(c.sampleI))]
		}
		lit := "date '" + sqlparse.DaysToDate(int32(v)) + "'"
		if r.Intn(5) == 0 {
			return fmt.Sprintf("extract(year from %s) = %d", ref, sqlparse.DateYear(int32(v)))
		}
		if r.Intn(4) == 0 {
			hi := "date '" + sqlparse.DaysToDate(int32(v+int64(r.Intn(90)))) + "'"
			neg := ""
			if r.Intn(4) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s %sBETWEEN %s AND %s", ref, neg, lit, hi)
		}
		return fmt.Sprintf("%s %s %s", ref, cmp[g.rnd.Intn(len(cmp))], lit)
	case "float":
		v := float64(r.Intn(129)-64) / 4
		if len(c.sampleF) > 0 && r.Intn(2) == 0 {
			v = c.sampleF[r.Intn(len(c.sampleF))]
			if math.IsNaN(v) || v == 0 {
				v = 0.25
			}
		}
		if r.Intn(4) == 0 {
			return fmt.Sprintf("%s BETWEEN %s AND %s", ref, fmtFloat(v-2), fmtFloat(v+2))
		}
		return fmt.Sprintf("%s %s %s", ref, cmp[r.Intn(len(cmp))], fmtFloat(v))
	case "string":
		v := stringPool[r.Intn(len(stringPool))]
		if len(c.sampleS) > 0 && r.Intn(2) == 0 {
			v = c.sampleS[r.Intn(len(c.sampleS))]
		}
		likeOK := c.def.Role == "ann" // the engine rejects LIKE on key columns
		switch r.Intn(4) {
		case 0:
			if !likeOK {
				return fmt.Sprintf("%s = %s", ref, strLit(v))
			}
			pat := v
			if len(pat) > 1 {
				pat = pat[:1] + "%"
			} else {
				pat = pat + "%"
			}
			neg := ""
			if r.Intn(3) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s %sLIKE %s", ref, neg, strLit(pat))
		case 1:
			vals := []string{strLit(v)}
			for k := 0; k < 1+r.Intn(2); k++ {
				vals = append(vals, strLit(stringPool[r.Intn(len(stringPool))]))
			}
			neg := ""
			if r.Intn(3) == 0 {
				neg = "NOT "
			}
			return fmt.Sprintf("%s %sIN (%s)", ref, neg, strings.Join(vals, ", "))
		default:
			ops := []string{"=", "<>", "<", ">="}
			return fmt.Sprintf("%s %s %s", ref, ops[r.Intn(len(ops))], strLit(v))
		}
	}
	return ""
}

func (g *Gen) sampleOrSmallInt(c *genCol) int64 {
	if len(c.sampleI) > 0 && g.rnd.Intn(2) == 0 {
		return c.sampleI[g.rnd.Intn(len(c.sampleI))]
	}
	return int64(g.rnd.Intn(30) - 3)
}
