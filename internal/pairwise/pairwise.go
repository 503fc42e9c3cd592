// Package pairwise is the reproduction's stand-in for HyPer (paper
// §VI-A): a traditional in-memory relational engine that executes the
// benchmark queries with pipelined pairwise hash joins — build hash
// tables on the dimension sides, stream the fact table once, aggregate
// into a hash table. Plans are hand-written per benchmark query, the
// way a production optimizer would order these star joins.
//
// Linear-algebra queries run the way they would in any pairwise RDBMS:
// hash joins plus hash aggregation over coordinate triples — the path
// the paper shows losing to a unified engine by orders of magnitude.
//
// The TPC-H queries read a frozen catalog: a string column is its
// dictionary codes, so predicates run on codes and only output values
// are decoded.
package pairwise

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Rows is a comparable query result: group-key → aggregate values.
type Rows struct {
	// Names lists output column names (groups then aggregates).
	Names []string
	// Data maps "g1|g2|..." group keys to aggregate values.
	Data map[string][]float64
}

// NumRows reports the number of result groups.
func (r *Rows) NumRows() int { return len(r.Data) }

// Engine runs benchmark queries against a frozen catalog.
type Engine struct {
	cat *storage.Catalog
}

// New wraps a catalog (the same base data every engine in this
// repository shares).
func New(cat *storage.Catalog) *Engine { return &Engine{cat: cat} }

// eqCode returns a string column's codes and the code of lit, encoded
// once; ok is false when the column never holds lit, so an equality on
// it selects nothing.
func eqCode(col *storage.Column, lit string) (codes []uint32, code uint32, ok bool) {
	code, ok = col.Dict().EncodeString(lit)
	return col.AnnCodes(), code, ok
}

// matchCodes returns a string column's codes and pred evaluated once per
// dictionary entry, indexed by code.
func matchCodes(col *storage.Column, pred func(string) bool) (codes []uint32, hit []bool) {
	d := col.Dict()
	hit = make([]bool, d.Len())
	for c := range hit {
		hit[c] = pred(d.DecodeString(uint32(c)))
	}
	return col.AnnCodes(), hit
}

func day(s string) int64 {
	d, err := sqlparse.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return int64(d)
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// RunTPCH executes one of the paper's TPC-H queries (q1, q3, q5, q6,
// q8, q9, q10).
func (e *Engine) RunTPCH(name string) (*Rows, error) {
	switch name {
	case "q1":
		return e.q1(), nil
	case "q3":
		return e.q3(), nil
	case "q5":
		return e.q5(), nil
	case "q6":
		return e.q6(), nil
	case "q8":
		return e.q8(), nil
	case "q9":
		return e.q9(), nil
	case "q10":
		return e.q10(), nil
	default:
		return nil, fmt.Errorf("pairwise: unknown query %q", name)
	}
}

func (e *Engine) q1() *Rows {
	li := e.cat.Table("lineitem")
	cutoff := day("1998-12-01") - 90
	ship := li.Col("l_shipdate").Ints
	flagCol, statCol := li.Col("l_returnflag"), li.Col("l_linestatus")
	flag, stat := flagCol.AnnCodes(), statCol.AnnCodes()
	qty := li.Col("l_quantity").Floats
	price := li.Col("l_extendedprice").Floats
	disc := li.Col("l_discount").Floats
	tax := li.Col("l_tax").Floats
	type acc struct{ qty, base, discP, charge, disc, cnt float64 }
	groups := map[[2]uint32]*acc{}
	for i := 0; i < li.NumRows; i++ {
		if ship[i] > cutoff {
			continue
		}
		k := [2]uint32{flag[i], stat[i]}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		dp := price[i] * (1 - disc[i])
		a.qty += qty[i]
		a.base += price[i]
		a.discP += dp
		a.charge += dp * (1 + tax[i])
		a.disc += disc[i]
		a.cnt++
	}
	out := &Rows{
		Names: []string{"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc", "count_order"},
		Data:  map[string][]float64{},
	}
	for k, a := range groups {
		key := flagCol.Dict().DecodeString(k[0]) + "|" + statCol.Dict().DecodeString(k[1])
		out.Data[key] = []float64{a.qty, a.base, a.discP, a.charge, a.qty / a.cnt, a.base / a.cnt, a.disc / a.cnt, a.cnt}
	}
	return out
}

func (e *Engine) q3() *Rows {
	cust := e.cat.Table("customer")
	orders := e.cat.Table("orders")
	li := e.cat.Table("lineitem")
	cut := day("1995-03-15")

	building := map[int64]bool{}
	seg, buildingCode, hasBuilding := eqCode(cust.Col("c_mktsegment"), "BUILDING")
	ck := cust.Col("c_custkey").Ints
	for i := 0; i < cust.NumRows; i++ {
		if hasBuilding && seg[i] == buildingCode {
			building[ck[i]] = true
		}
	}
	type oinfo struct {
		date int64
		prio int64
	}
	omap := map[int64]oinfo{}
	ok := orders.Col("o_orderkey").Ints
	ock := orders.Col("o_custkey").Ints
	od := orders.Col("o_orderdate").Ints
	op := orders.Col("o_shippriority").Ints
	for i := 0; i < orders.NumRows; i++ {
		if od[i] < cut && building[ock[i]] {
			omap[ok[i]] = oinfo{od[i], op[i]}
		}
	}
	lok := li.Col("l_orderkey").Ints
	lship := li.Col("l_shipdate").Ints
	price := li.Col("l_extendedprice").Floats
	disc := li.Col("l_discount").Floats
	type acc struct {
		rev  float64
		info oinfo
	}
	groups := map[int64]*acc{}
	for i := 0; i < li.NumRows; i++ {
		if lship[i] <= cut {
			continue
		}
		info, hit := omap[lok[i]]
		if !hit {
			continue
		}
		a := groups[lok[i]]
		if a == nil {
			a = &acc{info: info}
			groups[lok[i]] = a
		}
		a.rev += price[i] * (1 - disc[i])
	}
	out := &Rows{Names: []string{"l_orderkey", "revenue", "o_orderdate", "o_shippriority"}, Data: map[string][]float64{}}
	for k, a := range groups {
		key := strconv.FormatInt(k, 10) + "|" + sqlparse.DaysToDate(int32(a.info.date)) + "|" + strconv.FormatInt(a.info.prio, 10)
		out.Data[key] = []float64{a.rev}
	}
	return out
}

func (e *Engine) q5() *Rows {
	region := e.cat.Table("region")
	nation := e.cat.Table("nation")
	cust := e.cat.Table("customer")
	orders := e.cat.Table("orders")
	li := e.cat.Table("lineitem")
	supp := e.cat.Table("supplier")
	lo, hi := day("1994-01-01"), day("1995-01-01")

	asia := map[int64]bool{}
	rname, asiaCode, hasAsia := eqCode(region.Col("r_name"), "ASIA")
	for i := 0; i < region.NumRows; i++ {
		if hasAsia && rname[i] == asiaCode {
			asia[region.Col("r_regionkey").Ints[i]] = true
		}
	}
	nname := map[int64]string{}
	for i := 0; i < nation.NumRows; i++ {
		if asia[nation.Col("n_regionkey").Ints[i]] {
			nname[nation.Col("n_nationkey").Ints[i]] = nation.Col("n_name").Str(i)
		}
	}
	custNation := map[int64]int64{}
	for i := 0; i < cust.NumRows; i++ {
		nk := cust.Col("c_nationkey").Ints[i]
		if _, ok := nname[nk]; ok {
			custNation[cust.Col("c_custkey").Ints[i]] = nk
		}
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.NumRows; i++ {
		nk := supp.Col("s_nationkey").Ints[i]
		if _, ok := nname[nk]; ok {
			suppNation[supp.Col("s_suppkey").Ints[i]] = nk
		}
	}
	orderCust := map[int64]int64{}
	for i := 0; i < orders.NumRows; i++ {
		d := orders.Col("o_orderdate").Ints[i]
		if d >= lo && d < hi {
			orderCust[orders.Col("o_orderkey").Ints[i]] = orders.Col("o_custkey").Ints[i]
		}
	}
	groups := map[string]float64{}
	lok := li.Col("l_orderkey").Ints
	lsk := li.Col("l_suppkey").Ints
	price := li.Col("l_extendedprice").Floats
	disc := li.Col("l_discount").Floats
	for i := 0; i < li.NumRows; i++ {
		ck, hit := orderCust[lok[i]]
		if !hit {
			continue
		}
		cnk, hit := custNation[ck]
		if !hit {
			continue
		}
		snk, hit := suppNation[lsk[i]]
		if !hit || snk != cnk {
			continue
		}
		groups[nname[snk]] += price[i] * (1 - disc[i])
	}
	out := &Rows{Names: []string{"n_name", "revenue"}, Data: map[string][]float64{}}
	for k, v := range groups {
		out.Data[k] = []float64{v}
	}
	return out
}

// q6Lo/q6Hi reproduce the query's literal arithmetic (0.06 ± 0.01) in
// runtime float64 (IEEE) semantics, matching the SQL expression
// evaluator exactly — Go constant arithmetic is exact and would differ.
var (
	q6Mid float64 = 0.06
	q6Eps float64 = 0.01
	q6Lo          = q6Mid - q6Eps
	q6Hi          = q6Mid + q6Eps
)

func (e *Engine) q6() *Rows {
	li := e.cat.Table("lineitem")
	lo, hi := day("1994-01-01"), day("1995-01-01")
	ship := li.Col("l_shipdate").Ints
	disc := li.Col("l_discount").Floats
	qty := li.Col("l_quantity").Floats
	price := li.Col("l_extendedprice").Floats
	rev := 0.0
	for i := 0; i < li.NumRows; i++ {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= q6Lo && disc[i] <= q6Hi && qty[i] < 24 {
			rev += price[i] * disc[i]
		}
	}
	return &Rows{Names: []string{"revenue"}, Data: map[string][]float64{"": {rev}}}
}

func (e *Engine) q8() *Rows {
	part := e.cat.Table("part")
	supp := e.cat.Table("supplier")
	li := e.cat.Table("lineitem")
	orders := e.cat.Table("orders")
	cust := e.cat.Table("customer")
	nation := e.cat.Table("nation")
	region := e.cat.Table("region")
	lo, hi := day("1995-01-01"), day("1996-12-31")

	econ := map[int64]bool{}
	ptype, econCode, hasEcon := eqCode(part.Col("p_type"), "ECONOMY ANODIZED STEEL")
	for i := 0; i < part.NumRows; i++ {
		if hasEcon && ptype[i] == econCode {
			econ[part.Col("p_partkey").Ints[i]] = true
		}
	}
	america := map[int64]bool{}
	rname, americaCode, hasAmerica := eqCode(region.Col("r_name"), "AMERICA")
	for i := 0; i < region.NumRows; i++ {
		if hasAmerica && rname[i] == americaCode {
			america[region.Col("r_regionkey").Ints[i]] = true
		}
	}
	nationAmerica := map[int64]bool{}
	nationName := map[int64]string{}
	for i := 0; i < nation.NumRows; i++ {
		nk := nation.Col("n_nationkey").Ints[i]
		nationName[nk] = nation.Col("n_name").Str(i)
		if america[nation.Col("n_regionkey").Ints[i]] {
			nationAmerica[nk] = true
		}
	}
	custAmerican := map[int64]bool{}
	for i := 0; i < cust.NumRows; i++ {
		if nationAmerica[cust.Col("c_nationkey").Ints[i]] {
			custAmerican[cust.Col("c_custkey").Ints[i]] = true
		}
	}
	type oinfo struct{ year int }
	omap := map[int64]oinfo{}
	for i := 0; i < orders.NumRows; i++ {
		d := orders.Col("o_orderdate").Ints[i]
		if d >= lo && d <= hi && custAmerican[orders.Col("o_custkey").Ints[i]] {
			omap[orders.Col("o_orderkey").Ints[i]] = oinfo{sqlparse.DateYear(int32(d))}
		}
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.NumRows; i++ {
		suppNation[supp.Col("s_suppkey").Ints[i]] = supp.Col("s_nationkey").Ints[i]
	}
	type acc struct{ num, den float64 }
	groups := map[int]*acc{}
	lok := li.Col("l_orderkey").Ints
	lpk := li.Col("l_partkey").Ints
	lsk := li.Col("l_suppkey").Ints
	price := li.Col("l_extendedprice").Floats
	disc := li.Col("l_discount").Floats
	for i := 0; i < li.NumRows; i++ {
		if !econ[lpk[i]] {
			continue
		}
		oi, hit := omap[lok[i]]
		if !hit {
			continue
		}
		nk, hit := suppNation[lsk[i]]
		if !hit {
			continue
		}
		rev := price[i] * (1 - disc[i])
		a := groups[oi.year]
		if a == nil {
			a = &acc{}
			groups[oi.year] = a
		}
		if nationName[nk] == "BRAZIL" {
			a.num += rev
		}
		a.den += rev
	}
	out := &Rows{Names: []string{"o_year", "mkt_share"}, Data: map[string][]float64{}}
	for y, a := range groups {
		out.Data[f(float64(y))] = []float64{a.num / a.den}
	}
	return out
}

func (e *Engine) q9() *Rows {
	part := e.cat.Table("part")
	supp := e.cat.Table("supplier")
	li := e.cat.Table("lineitem")
	ps := e.cat.Table("partsupp")
	orders := e.cat.Table("orders")
	nation := e.cat.Table("nation")

	green := map[int64]bool{}
	pname, isGreen := matchCodes(part.Col("p_name"), func(s string) bool { return strings.Contains(s, "green") })
	for i := 0; i < part.NumRows; i++ {
		if isGreen[pname[i]] {
			green[part.Col("p_partkey").Ints[i]] = true
		}
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.NumRows; i++ {
		suppNation[supp.Col("s_suppkey").Ints[i]] = supp.Col("s_nationkey").Ints[i]
	}
	nationName := map[int64]string{}
	for i := 0; i < nation.NumRows; i++ {
		nationName[nation.Col("n_nationkey").Ints[i]] = nation.Col("n_name").Str(i)
	}
	psCost := map[int64]float64{}
	for i := 0; i < ps.NumRows; i++ {
		key := ps.Col("ps_partkey").Ints[i]<<20 | ps.Col("ps_suppkey").Ints[i]
		psCost[key] = ps.Col("ps_supplycost").Floats[i]
	}
	orderYear := map[int64]int{}
	for i := 0; i < orders.NumRows; i++ {
		orderYear[orders.Col("o_orderkey").Ints[i]] = sqlparse.DateYear(int32(orders.Col("o_orderdate").Ints[i]))
	}
	groups := map[string]float64{}
	lok := li.Col("l_orderkey").Ints
	lpk := li.Col("l_partkey").Ints
	lsk := li.Col("l_suppkey").Ints
	qty := li.Col("l_quantity").Floats
	price := li.Col("l_extendedprice").Floats
	disc := li.Col("l_discount").Floats
	for i := 0; i < li.NumRows; i++ {
		if !green[lpk[i]] {
			continue
		}
		cost, hit := psCost[lpk[i]<<20|lsk[i]]
		if !hit {
			continue
		}
		nk, hit := suppNation[lsk[i]]
		if !hit {
			continue
		}
		year, hit := orderYear[lok[i]]
		if !hit {
			continue
		}
		amount := price[i]*(1-disc[i]) - cost*qty[i]
		groups[nationName[nk]+"|"+f(float64(year))] += amount
	}
	out := &Rows{Names: []string{"n_name", "o_year", "sum_profit"}, Data: map[string][]float64{}}
	for k, v := range groups {
		out.Data[k] = []float64{v}
	}
	return out
}

func (e *Engine) q10() *Rows {
	cust := e.cat.Table("customer")
	orders := e.cat.Table("orders")
	li := e.cat.Table("lineitem")
	nation := e.cat.Table("nation")
	lo, hi := day("1993-10-01"), day("1994-01-01")

	nationName := map[int64]string{}
	for i := 0; i < nation.NumRows; i++ {
		nationName[nation.Col("n_nationkey").Ints[i]] = nation.Col("n_name").Str(i)
	}
	type cinfo struct {
		name, addr, phone, comment, nname string
		acctbal                           float64
	}
	cmap := map[int64]cinfo{}
	for i := 0; i < cust.NumRows; i++ {
		cmap[cust.Col("c_custkey").Ints[i]] = cinfo{
			name:    cust.Col("c_name").Str(i),
			addr:    cust.Col("c_address").Str(i),
			phone:   cust.Col("c_phone").Str(i),
			comment: cust.Col("c_comment").Str(i),
			nname:   nationName[cust.Col("c_nationkey").Ints[i]],
			acctbal: cust.Col("c_acctbal").Floats[i],
		}
	}
	orderCust := map[int64]int64{}
	for i := 0; i < orders.NumRows; i++ {
		d := orders.Col("o_orderdate").Ints[i]
		if d >= lo && d < hi {
			orderCust[orders.Col("o_orderkey").Ints[i]] = orders.Col("o_custkey").Ints[i]
		}
	}
	groups := map[int64]float64{}
	lok := li.Col("l_orderkey").Ints
	flag, rCode, hasR := eqCode(li.Col("l_returnflag"), "R")
	price := li.Col("l_extendedprice").Floats
	disc := li.Col("l_discount").Floats
	for i := 0; i < li.NumRows; i++ {
		if !hasR || flag[i] != rCode {
			continue
		}
		ck, hit := orderCust[lok[i]]
		if !hit {
			continue
		}
		groups[ck] += price[i] * (1 - disc[i])
	}
	out := &Rows{Names: []string{"c_custkey", "revenue"}, Data: map[string][]float64{}}
	for ck, rev := range groups {
		ci := cmap[ck]
		key := strconv.FormatInt(ck, 10) + "|" + ci.name + "|" + f(ci.acctbal) + "|" + ci.phone + "|" + ci.nname + "|" + ci.addr + "|" + ci.comment
		out.Data[key] = []float64{rev}
	}
	return out
}

// SpMV computes y = A·x where A is a COO table (i, j, v) and x a vector
// table (k, x), via a hash join on j = k with hash aggregation on i —
// the pairwise-relational execution of the query.
func (e *Engine) SpMV(matrix, vector string) (map[int64]float64, error) {
	m := e.cat.Table(matrix)
	v := e.cat.Table(vector)
	if m == nil || v == nil {
		return nil, fmt.Errorf("pairwise: missing table")
	}
	x := map[int64]float64{}
	vk := v.Col("k").Ints
	vx := v.Col("x").Floats
	for i := 0; i < v.NumRows; i++ {
		x[vk[i]] = vx[i]
	}
	mi := m.Col("i").Ints
	mj := m.Col("j").Ints
	mv := m.Col("v").Floats
	y := map[int64]float64{}
	for r := 0; r < m.NumRows; r++ {
		if xv, ok := x[mj[r]]; ok {
			y[mi[r]] += mv[r] * xv
		}
	}
	return y, nil
}

// SpMM computes C = A·B over COO tables with a hash join on the shared
// dimension and hash aggregation over (i, j) output pairs. It returns
// the output nonzero count and a content checksum. maxPairs bounds the
// intermediate join size; exceeding it aborts with an error, standing
// in for the out-of-memory failures the paper reports for RDBMSs on
// matrix multiplication.
func (e *Engine) SpMM(m1, m2 string, maxPairs int) (nnz int, checksum float64, err error) {
	a := e.cat.Table(m1)
	b := e.cat.Table(m2)
	if a == nil || b == nil {
		return 0, 0, fmt.Errorf("pairwise: missing table")
	}
	type entry struct {
		j int64
		v float64
	}
	build := map[int64][]entry{}
	bi := b.Col("i").Ints
	bj := b.Col("j").Ints
	bv := b.Col("v").Floats
	for r := 0; r < b.NumRows; r++ {
		build[bi[r]] = append(build[bi[r]], entry{bj[r], bv[r]})
	}
	out := map[[2]int64]float64{}
	ai := a.Col("i").Ints
	aj := a.Col("j").Ints
	av := a.Col("v").Floats
	pairs := 0
	for r := 0; r < a.NumRows; r++ {
		matches := build[aj[r]]
		pairs += len(matches)
		if maxPairs > 0 && pairs > maxPairs {
			return 0, 0, fmt.Errorf("pairwise: join exceeded %d intermediate pairs (oom)", maxPairs)
		}
		for _, m := range matches {
			out[[2]int64{ai[r], m.j}] += av[r] * m.v
		}
	}
	for k, v := range out {
		checksum += v * float64(k[0]+2*k[1]+1)
	}
	return len(out), checksum, nil
}

// SortedKeys returns result keys in sorted order (test helper).
func (r *Rows) SortedKeys() []string {
	keys := make([]string, 0, len(r.Data))
	for k := range r.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
