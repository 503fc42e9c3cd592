package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pairwise"
	"repro/internal/tpch"
)

// rowStrings renders every row of a result with floats as their bit
// patterns, sorted, so two results compare regardless of row order.
func rowStrings(res *exec.Result) []string {
	rows := make([]string, res.NumRows)
	var b strings.Builder
	for i := range rows {
		b.Reset()
		for _, c := range res.Cols {
			switch c.Kind {
			case exec.KindString:
				b.WriteString(c.Str[i])
			case exec.KindInt:
				b.WriteString(strconv.FormatInt(c.I64[i], 10))
			default:
				b.WriteString(strconv.FormatUint(math.Float64bits(c.F64[i]), 16))
			}
			b.WriteByte('|')
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return rows
}

// sameResult reports how two results differ ("" when bit-identical up
// to row order).
func sameResult(got, want *exec.Result) string {
	if got.NumRows != want.NumRows || len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("%d rows x %d cols, want %d x %d", got.NumRows, len(got.Cols), want.NumRows, len(want.Cols))
	}
	g, w := rowStrings(got), rowStrings(want)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("row %d: %s, want %s", i, g[i], w[i])
		}
	}
	return ""
}

// tpchGroupCols lists each query's GROUP BY columns in the key order the
// comparator engines use.
var tpchGroupCols = map[string][]string{
	"q1":  {"l_returnflag", "l_linestatus"},
	"q3":  {"l_orderkey", "o_orderdate", "o_shippriority"},
	"q5":  {"n_name"},
	"q6":  {},
	"q8":  {"o_year"},
	"q9":  {"n_name", "o_year"},
	"q10": {"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
}

// keyedRows converts an engine result to the comparators' form: group
// key "g1|g2|..." → aggregate values.
func keyedRows(res *exec.Result, groups []string) (map[string][]float64, error) {
	isGroup := map[string]bool{}
	var keyCols, valCols []*exec.Column
	for _, g := range groups {
		c := res.Col(g)
		if c == nil {
			return nil, fmt.Errorf("missing group column %s", g)
		}
		keyCols = append(keyCols, c)
		isGroup[g] = true
	}
	for _, c := range res.Cols {
		if !isGroup[c.Name] {
			valCols = append(valCols, c)
		}
	}
	out := make(map[string][]float64, res.NumRows)
	for i := 0; i < res.NumRows; i++ {
		parts := make([]string, len(keyCols))
		for k, c := range keyCols {
			switch c.Kind {
			case exec.KindString:
				parts[k] = c.Str[i]
			case exec.KindInt:
				parts[k] = strconv.FormatInt(c.I64[i], 10)
			default:
				parts[k] = strconv.FormatFloat(c.F64[i], 'g', -1, 64)
			}
		}
		vals := make([]float64, len(valCols))
		for k, c := range valCols {
			vals[k] = c.Float(i)
		}
		out[strings.Join(parts, "|")] = vals
	}
	return out, nil
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }

func sameKeyed(got, want map[string][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok || len(gv) != len(wv) {
			return fmt.Errorf("group %q missing or misshapen", k)
		}
		for i := range wv {
			if !closeTo(gv[i], wv[i]) {
				return fmt.Errorf("group %q value %d = %v, want %v", k, i, gv[i], wv[i])
			}
		}
	}
	return nil
}

// verifyTPCH checks the paper-literal text of each named query against
// the pairwise and column-store comparator engines over the same catalog.
func verifyTPCH(x *executor, eng *core.Engine, names []string) {
	pw := pairwise.New(eng.Catalog())
	cs := colstore.New(eng.Catalog())
	for _, name := range names {
		res, err := eng.Query(tpch.Queries[name])
		if err != nil {
			x.check(name+" paper text", err)
			continue
		}
		got, err := keyedRows(res, tpchGroupCols[name])
		if err != nil {
			x.check(name+" paper text", err)
			continue
		}
		pwRows, err := pw.RunTPCH(name)
		if err == nil {
			err = sameKeyed(got, pwRows.Data)
		}
		x.check(name+" vs pairwise", err)
		csRows, err := cs.RunTPCH(name)
		if err == nil {
			err = sameKeyed(got, csRows.Data)
		}
		x.check(name+" vs colstore", err)
	}
}
