// Package colstore is the reproduction's stand-in for MonetDB (paper
// §VI-A): a column-at-a-time engine in which every operator fully
// materializes its result — selection vectors, join index arrays and
// projected columns — before the next operator runs (BAT-algebra
// style). The logical plans match package pairwise; the execution
// discipline, and therefore the intermediate-materialization cost, is
// what differs.
//
// It also provides the column-store → CSR conversion that Table IV
// measures: the data movement a column store must pay before calling a
// sparse BLAS kernel.
//
// The TPC-H queries read a frozen catalog: a string column is its
// dictionary codes, so predicates run on codes and only output values
// are decoded.
package colstore

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/blas"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Rows mirrors pairwise.Rows: group-key → aggregate values.
type Rows struct {
	Names []string
	Data  map[string][]float64
}

// NumRows reports the number of result groups.
func (r *Rows) NumRows() int { return len(r.Data) }

// Engine runs benchmark queries column-at-a-time.
type Engine struct {
	cat *storage.Catalog
}

// New wraps a catalog.
func New(cat *storage.Catalog) *Engine { return &Engine{cat: cat} }

func day(s string) int64 {
	d, err := sqlparse.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return int64(d)
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// --- BAT-style materializing operators --------------------------------

// selInt materializes the row ids where pred holds.
func selInt(col []int64, pred func(int64) bool) []int32 {
	out := make([]int32, 0, len(col)/4+1)
	for i, v := range col {
		if pred(v) {
			out = append(out, int32(i))
		}
	}
	return out
}

// selEq materializes the row ids where a string column equals lit. The
// literal is encoded once and compared as a code; a literal the column
// never holds selects nothing.
func selEq(col *storage.Column, lit string) []int32 {
	code, ok := col.Dict().EncodeString(lit)
	if !ok {
		return nil
	}
	codes := col.AnnCodes()
	out := make([]int32, 0, len(codes)/4+1)
	for i, c := range codes {
		if c == code {
			out = append(out, int32(i))
		}
	}
	return out
}

// selStr materializes the row ids where pred holds on a string column,
// evaluating pred once per dictionary entry.
func selStr(col *storage.Column, pred func(string) bool) []int32 {
	d := col.Dict()
	hit := make([]bool, d.Len())
	for c := range hit {
		hit[c] = pred(d.DecodeString(uint32(c)))
	}
	codes := col.AnnCodes()
	out := make([]int32, 0, len(codes)/4+1)
	for i, c := range codes {
		if hit[c] {
			out = append(out, int32(i))
		}
	}
	return out
}

// selFloat materializes the row ids where pred holds on a float column.
func selFloat(col []float64, pred func(float64) bool) []int32 {
	out := make([]int32, 0, len(col)/4+1)
	for i, v := range col {
		if pred(v) {
			out = append(out, int32(i))
		}
	}
	return out
}

// andSel intersects two ascending selection vectors.
func andSel(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// gatherI materializes col[sel].
func gatherI(col []int64, sel []int32) []int64 {
	out := make([]int64, len(sel))
	for i, r := range sel {
		out[i] = col[r]
	}
	return out
}

// gatherF materializes col[sel].
func gatherF(col []float64, sel []int32) []float64 {
	out := make([]float64, len(sel))
	for i, r := range sel {
		out[i] = col[r]
	}
	return out
}

// gatherC materializes the codes of a string column at sel.
func gatherC(col *storage.Column, sel []int32) []uint32 {
	codes := col.AnnCodes()
	out := make([]uint32, len(sel))
	for i, r := range sel {
		out[i] = codes[r]
	}
	return out
}

// hashJoin materializes the matching position pairs of left ⋈ right on
// int64 keys (both sides already materialized columns).
func hashJoin(left, right []int64) (lpos, rpos []int32) {
	build := make(map[int64][]int32, len(right))
	for i, k := range right {
		build[k] = append(build[k], int32(i))
	}
	lpos = make([]int32, 0, len(left))
	rpos = make([]int32, 0, len(left))
	for i, k := range left {
		for _, r := range build[k] {
			lpos = append(lpos, int32(i))
			rpos = append(rpos, r)
		}
	}
	return lpos, rpos
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- queries -----------------------------------------------------------

// RunTPCH executes one of the paper's TPC-H queries.
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
		return nil, fmt.Errorf("colstore: unknown query %q", name)
	}
}

func (e *Engine) q1() *Rows {
	li := e.cat.Table("lineitem")
	cutoff := day("1998-12-01") - 90
	sel := selInt(li.Col("l_shipdate").Ints, func(d int64) bool { return d <= cutoff })
	flagCol, statCol := li.Col("l_returnflag"), li.Col("l_linestatus")
	flag := gatherC(flagCol, sel)
	stat := gatherC(statCol, sel)
	qty := gatherF(li.Col("l_quantity").Floats, sel)
	price := gatherF(li.Col("l_extendedprice").Floats, sel)
	disc := gatherF(li.Col("l_discount").Floats, sel)
	tax := gatherF(li.Col("l_tax").Floats, sel)
	// Materialized derived columns, MonetDB-style.
	discP := make([]float64, len(sel))
	charge := make([]float64, len(sel))
	for i := range sel {
		discP[i] = price[i] * (1 - disc[i])
		charge[i] = discP[i] * (1 + tax[i])
	}
	type acc struct{ qty, base, discP, charge, disc, cnt float64 }
	groups := map[[2]uint32]*acc{}
	for i := range sel {
		k := [2]uint32{flag[i], stat[i]}
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		a.qty += qty[i]
		a.base += price[i]
		a.discP += discP[i]
		a.charge += charge[i]
		a.disc += disc[i]
		a.cnt++
	}
	out := &Rows{Names: []string{"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc", "count_order"}, Data: map[string][]float64{}}
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

	cSel := selEq(cust.Col("c_mktsegment"), "BUILDING")
	cKeys := gatherI(cust.Col("c_custkey").Ints, cSel)

	oSel := selInt(orders.Col("o_orderdate").Ints, func(d int64) bool { return d < cut })
	oCust := gatherI(orders.Col("o_custkey").Ints, oSel)
	oKeys := gatherI(orders.Col("o_orderkey").Ints, oSel)
	oDates := gatherI(orders.Col("o_orderdate").Ints, oSel)
	oPrio := gatherI(orders.Col("o_shippriority").Ints, oSel)

	// orders ⋈ customer.
	oPos, _ := hashJoin(oCust, cKeys)
	joKeys := make([]int64, len(oPos))
	joDates := make([]int64, len(oPos))
	joPrio := make([]int64, len(oPos))
	for i, p := range oPos {
		joKeys[i] = oKeys[p]
		joDates[i] = oDates[p]
		joPrio[i] = oPrio[p]
	}

	lSel := selInt(li.Col("l_shipdate").Ints, func(d int64) bool { return d > cut })
	lKeys := gatherI(li.Col("l_orderkey").Ints, lSel)
	lPrice := gatherF(li.Col("l_extendedprice").Floats, lSel)
	lDisc := gatherF(li.Col("l_discount").Floats, lSel)

	lPos, joPos := hashJoin(lKeys, joKeys)
	rev := make([]float64, len(lPos))
	for i := range lPos {
		rev[i] = lPrice[lPos[i]] * (1 - lDisc[lPos[i]])
	}
	type acc struct {
		rev        float64
		date, prio int64
	}
	groups := map[int64]*acc{}
	for i := range lPos {
		ok := lKeys[lPos[i]]
		a := groups[ok]
		if a == nil {
			a = &acc{date: joDates[joPos[i]], prio: joPrio[joPos[i]]}
			groups[ok] = a
		}
		a.rev += rev[i]
	}
	out := &Rows{Names: []string{"l_orderkey", "revenue", "o_orderdate", "o_shippriority"}, Data: map[string][]float64{}}
	for ok, a := range groups {
		key := strconv.FormatInt(ok, 10) + "|" + sqlparse.DaysToDate(int32(a.date)) + "|" + strconv.FormatInt(a.prio, 10)
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

	rSel := selEq(region.Col("r_name"), "ASIA")
	rKeys := gatherI(region.Col("r_regionkey").Ints, rSel)

	nPos, _ := hashJoin(nation.Col("n_regionkey").Ints, rKeys)
	nKeys := make([]int64, len(nPos))
	nNames := make([]string, len(nPos))
	for i, p := range nPos {
		nKeys[i] = nation.Col("n_nationkey").Ints[p]
		nNames[i] = nation.Col("n_name").Str(int(p))
	}

	// customer ⋈ asian nations.
	cPos, cnPos := hashJoin(cust.Col("c_nationkey").Ints, nKeys)
	cKeys := make([]int64, len(cPos))
	cNation := make([]int64, len(cPos))
	for i := range cPos {
		cKeys[i] = cust.Col("c_custkey").Ints[cPos[i]]
		cNation[i] = nKeys[cnPos[i]]
	}

	// supplier ⋈ asian nations.
	sPos, snPos := hashJoin(supp.Col("s_nationkey").Ints, nKeys)
	sKeys := make([]int64, len(sPos))
	sNation := make([]int64, len(sPos))
	sName := make([]string, len(sPos))
	for i := range sPos {
		sKeys[i] = supp.Col("s_suppkey").Ints[sPos[i]]
		sNation[i] = nKeys[snPos[i]]
		sName[i] = nNames[snPos[i]]
	}

	// orders filtered ⋈ customer.
	oSel := selInt(orders.Col("o_orderdate").Ints, func(d int64) bool { return d >= lo && d < hi })
	oKeys := gatherI(orders.Col("o_orderkey").Ints, oSel)
	oCust := gatherI(orders.Col("o_custkey").Ints, oSel)
	oPos, ocPos := hashJoin(oCust, cKeys)
	joKeys := make([]int64, len(oPos))
	joNation := make([]int64, len(oPos))
	for i := range oPos {
		joKeys[i] = oKeys[oPos[i]]
		joNation[i] = cNation[ocPos[i]]
	}

	// lineitem ⋈ orders.
	lPos, loPos := hashJoin(li.Col("l_orderkey").Ints, joKeys)
	lSupp := make([]int64, len(lPos))
	lNation := make([]int64, len(lPos))
	lRev := make([]float64, len(lPos))
	for i := range lPos {
		lSupp[i] = li.Col("l_suppkey").Ints[lPos[i]]
		lNation[i] = joNation[loPos[i]]
		lRev[i] = li.Col("l_extendedprice").Floats[lPos[i]] * (1 - li.Col("l_discount").Floats[lPos[i]])
	}

	// ⋈ supplier (on suppkey AND matching nation).
	jPos, jsPos := hashJoin(lSupp, sKeys)
	groups := map[string]float64{}
	for i := range jPos {
		if lNation[jPos[i]] != sNation[jsPos[i]] {
			continue
		}
		groups[sName[jsPos[i]]] += lRev[jPos[i]]
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
	s1 := selInt(li.Col("l_shipdate").Ints, func(d int64) bool { return d >= lo && d < hi })
	s2 := selFloat(li.Col("l_discount").Floats, func(d float64) bool { return d >= q6Lo && d <= q6Hi })
	s3 := selFloat(li.Col("l_quantity").Floats, func(q float64) bool { return q < 24 })
	sel := andSel(andSel(s1, s2), s3)
	price := gatherF(li.Col("l_extendedprice").Floats, sel)
	disc := gatherF(li.Col("l_discount").Floats, sel)
	rev := 0.0
	for i := range sel {
		rev += price[i] * disc[i]
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

	pSel := selEq(part.Col("p_type"), "ECONOMY ANODIZED STEEL")
	pKeys := gatherI(part.Col("p_partkey").Ints, pSel)

	rSel := selEq(region.Col("r_name"), "AMERICA")
	rKeys := gatherI(region.Col("r_regionkey").Ints, rSel)
	n1Pos, _ := hashJoin(nation.Col("n_regionkey").Ints, rKeys)
	n1Keys := gatherI(nation.Col("n_nationkey").Ints, n1Pos)

	cPos, _ := hashJoin(cust.Col("c_nationkey").Ints, n1Keys)
	cKeys := make([]int64, len(cPos))
	for i, p := range cPos {
		cKeys[i] = cust.Col("c_custkey").Ints[p]
	}

	oSel := selInt(orders.Col("o_orderdate").Ints, func(d int64) bool { return d >= lo && d <= hi })
	oKeys := gatherI(orders.Col("o_orderkey").Ints, oSel)
	oCust := gatherI(orders.Col("o_custkey").Ints, oSel)
	oDates := gatherI(orders.Col("o_orderdate").Ints, oSel)
	oPos, _ := hashJoin(oCust, cKeys)
	joKeys := make([]int64, len(oPos))
	joYear := make([]int64, len(oPos))
	for i, p := range oPos {
		joKeys[i] = oKeys[p]
		joYear[i] = int64(sqlparse.DateYear(int32(oDates[p])))
	}

	// lineitem ⋈ econ parts, then ⋈ orders, then supplier nation.
	lPos, _ := hashJoin(li.Col("l_partkey").Ints, pKeys)
	lOk := make([]int64, len(lPos))
	lSk := make([]int64, len(lPos))
	lRev := make([]float64, len(lPos))
	for i, p := range lPos {
		lOk[i] = li.Col("l_orderkey").Ints[p]
		lSk[i] = li.Col("l_suppkey").Ints[p]
		lRev[i] = li.Col("l_extendedprice").Floats[p] * (1 - li.Col("l_discount").Floats[p])
	}
	jPos, joPos := hashJoin(lOk, joKeys)
	jSk := make([]int64, len(jPos))
	jYear := make([]int64, len(jPos))
	jRev := make([]float64, len(jPos))
	for i := range jPos {
		jSk[i] = lSk[jPos[i]]
		jYear[i] = joYear[joPos[i]]
		jRev[i] = lRev[jPos[i]]
	}
	// supplier nation names.
	nk2name := map[int64]string{}
	for i, k := range nation.Col("n_nationkey").Ints {
		nk2name[k] = nation.Col("n_name").Str(i)
	}
	sPosAll, _ := hashJoin(jSk, supp.Col("s_suppkey").Ints)
	_ = sPosAll
	suppNation := map[int64]int64{}
	for i := 0; i < supp.NumRows; i++ {
		suppNation[supp.Col("s_suppkey").Ints[i]] = supp.Col("s_nationkey").Ints[i]
	}
	type acc struct{ num, den float64 }
	groups := map[int64]*acc{}
	for i := range jPos {
		nk := suppNation[jSk[i]]
		a := groups[jYear[i]]
		if a == nil {
			a = &acc{}
			groups[jYear[i]] = a
		}
		if nk2name[nk] == "BRAZIL" {
			a.num += jRev[i]
		}
		a.den += jRev[i]
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

	pSel := selStr(part.Col("p_name"), func(s string) bool { return strings.Contains(s, "green") })
	pKeys := gatherI(part.Col("p_partkey").Ints, pSel)

	lPos, _ := hashJoin(li.Col("l_partkey").Ints, pKeys)
	lPk := make([]int64, len(lPos))
	lSk := make([]int64, len(lPos))
	lOk := make([]int64, len(lPos))
	lAmt1 := make([]float64, len(lPos))
	lQty := make([]float64, len(lPos))
	for i, p := range lPos {
		lPk[i] = li.Col("l_partkey").Ints[p]
		lSk[i] = li.Col("l_suppkey").Ints[p]
		lOk[i] = li.Col("l_orderkey").Ints[p]
		lAmt1[i] = li.Col("l_extendedprice").Floats[p] * (1 - li.Col("l_discount").Floats[p])
		lQty[i] = li.Col("l_quantity").Floats[p]
	}
	// Composite-key join with partsupp (materialized composite keys).
	lComp := make([]int64, len(lPos))
	for i := range lPos {
		lComp[i] = lPk[i]<<20 | lSk[i]
	}
	psComp := make([]int64, ps.NumRows)
	for i := 0; i < ps.NumRows; i++ {
		psComp[i] = ps.Col("ps_partkey").Ints[i]<<20 | ps.Col("ps_suppkey").Ints[i]
	}
	jPos, psPos := hashJoin(lComp, psComp)
	amount := make([]float64, len(jPos))
	jSk := make([]int64, len(jPos))
	jOk := make([]int64, len(jPos))
	for i := range jPos {
		amount[i] = lAmt1[jPos[i]] - ps.Col("ps_supplycost").Floats[psPos[i]]*lQty[jPos[i]]
		jSk[i] = lSk[jPos[i]]
		jOk[i] = lOk[jPos[i]]
	}
	suppNation := map[int64]int64{}
	for i := 0; i < supp.NumRows; i++ {
		suppNation[supp.Col("s_suppkey").Ints[i]] = supp.Col("s_nationkey").Ints[i]
	}
	nk2name := map[int64]string{}
	for i := 0; i < nation.NumRows; i++ {
		nk2name[nation.Col("n_nationkey").Ints[i]] = nation.Col("n_name").Str(i)
	}
	orderYear := map[int64]int64{}
	for i := 0; i < orders.NumRows; i++ {
		orderYear[orders.Col("o_orderkey").Ints[i]] = int64(sqlparse.DateYear(int32(orders.Col("o_orderdate").Ints[i])))
	}
	groups := map[string]float64{}
	for i := range jPos {
		name := nk2name[suppNation[jSk[i]]]
		year := orderYear[jOk[i]]
		groups[name+"|"+f(float64(year))] += amount[i]
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

	oSel := selInt(orders.Col("o_orderdate").Ints, func(d int64) bool { return d >= lo && d < hi })
	oKeys := gatherI(orders.Col("o_orderkey").Ints, oSel)
	oCust := gatherI(orders.Col("o_custkey").Ints, oSel)

	lSel := selEq(li.Col("l_returnflag"), "R")
	lKeys := gatherI(li.Col("l_orderkey").Ints, lSel)
	lRev := make([]float64, len(lSel))
	for i, p := range lSel {
		lRev[i] = li.Col("l_extendedprice").Floats[p] * (1 - li.Col("l_discount").Floats[p])
	}
	lPos, oPos := hashJoin(lKeys, oKeys)
	groups := map[int64]float64{}
	for i := range lPos {
		groups[oCust[oPos[i]]] += lRev[lPos[i]]
	}
	nk2name := map[int64]string{}
	for i := 0; i < nation.NumRows; i++ {
		nk2name[nation.Col("n_nationkey").Ints[i]] = nation.Col("n_name").Str(i)
	}
	out := &Rows{Names: []string{"c_custkey", "revenue"}, Data: map[string][]float64{}}
	for i := 0; i < cust.NumRows; i++ {
		ck := cust.Col("c_custkey").Ints[i]
		rev, hit := groups[ck]
		if !hit {
			continue
		}
		key := strconv.FormatInt(ck, 10) + "|" + cust.Col("c_name").Str(i) + "|" +
			f(cust.Col("c_acctbal").Floats[i]) + "|" + cust.Col("c_phone").Str(i) + "|" +
			nk2name[cust.Col("c_nationkey").Ints[i]] + "|" + cust.Col("c_address").Str(i) + "|" +
			cust.Col("c_comment").Str(i)
		out.Data[key] = []float64{rev}
	}
	return out
}

// --- linear algebra ----------------------------------------------------

// SpMV joins the COO matrix with the vector column-at-a-time: the join
// index arrays and the multiplied column are fully materialized before
// the aggregation pass.
func (e *Engine) SpMV(matrix, vector string) (map[int64]float64, error) {
	m := e.cat.Table(matrix)
	v := e.cat.Table(vector)
	if m == nil || v == nil {
		return nil, fmt.Errorf("colstore: missing table")
	}
	mPos, vPos := hashJoin(m.Col("j").Ints, v.Col("k").Ints)
	prod := make([]float64, len(mPos))
	outI := make([]int64, len(mPos))
	mv := m.Col("v").Floats
	vx := v.Col("x").Floats
	mi := m.Col("i").Ints
	for i := range mPos {
		prod[i] = mv[mPos[i]] * vx[vPos[i]]
		outI[i] = mi[mPos[i]]
	}
	y := map[int64]float64{}
	for i := range outI {
		y[outI[i]] += prod[i]
	}
	return y, nil
}

// SpMM materializes the full join (i, j, product) columns before hash
// aggregation; maxPairs bounds the intermediate (the "oom" stand-in).
func (e *Engine) SpMM(m1, m2 string, maxPairs int) (nnz int, checksum float64, err error) {
	a := e.cat.Table(m1)
	b := e.cat.Table(m2)
	if a == nil || b == nil {
		return 0, 0, fmt.Errorf("colstore: missing table")
	}
	aPos, bPos := hashJoinBounded(a.Col("j").Ints, b.Col("i").Ints, maxPairs)
	if aPos == nil {
		return 0, 0, fmt.Errorf("colstore: join exceeded %d intermediate pairs (oom)", maxPairs)
	}
	outI := make([]int64, len(aPos))
	outJ := make([]int64, len(aPos))
	prod := make([]float64, len(aPos))
	ai := a.Col("i").Ints
	av := a.Col("v").Floats
	bj := b.Col("j").Ints
	bv := b.Col("v").Floats
	for i := range aPos {
		outI[i] = ai[aPos[i]]
		outJ[i] = bj[bPos[i]]
		prod[i] = av[aPos[i]] * bv[bPos[i]]
	}
	agg := map[[2]int64]float64{}
	for i := range outI {
		agg[[2]int64{outI[i], outJ[i]}] += prod[i]
	}
	for k, v := range agg {
		checksum += v * float64(k[0]+2*k[1]+1)
	}
	return len(agg), checksum, nil
}

// hashJoinBounded is hashJoin with an intermediate-size budget; it
// returns nil slices when the budget is exceeded.
func hashJoinBounded(left, right []int64, maxPairs int) (lpos, rpos []int32) {
	build := make(map[int64][]int32, len(right))
	for i, k := range right {
		build[k] = append(build[k], int32(i))
	}
	lpos = make([]int32, 0, len(left))
	rpos = make([]int32, 0, len(left))
	for i, k := range left {
		ms := build[k]
		if maxPairs > 0 && len(lpos)+len(ms) > maxPairs {
			return nil, nil
		}
		for _, r := range ms {
			lpos = append(lpos, int32(i))
			rpos = append(rpos, r)
		}
	}
	return lpos, rpos
}

// ConvertToCSR gathers a COO table's columns and compresses them to CSR
// — the data transformation a column store pays before calling a sparse
// BLAS routine (Table IV's mkl_scsrcoo analogue).
func (e *Engine) ConvertToCSR(matrix string, rows, cols int) (*blas.CSR, error) {
	m := e.cat.Table(matrix)
	if m == nil {
		return nil, fmt.Errorf("colstore: missing table %q", matrix)
	}
	n := m.NumRows
	i32 := make([]int32, n)
	j32 := make([]int32, n)
	vals := make([]float64, n)
	mi := m.Col("i").Ints
	mj := m.Col("j").Ints
	mv := m.Col("v").Floats
	for r := 0; r < n; r++ {
		i32[r] = int32(mi[r])
		j32[r] = int32(mj[r])
		vals[r] = mv[r]
	}
	coo, err := blas.NewCOO(rows, cols, i32, j32, vals)
	if err != nil {
		return nil, err
	}
	return blas.CompressCOO(coo), nil
}
