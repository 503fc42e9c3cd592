package approx

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/refeval"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Scanner is row access for the tier's evaluator, over either a
// table's decoded columnar arrays (the exact scan) or a reservoir
// sample's row slices (the sample route). Both backends present the
// same (column, row) → native value view.
type Scanner struct {
	sch   *storage.Schema
	colIx map[string]int
	cols  []*storage.Column // columnar backend; nil for the row backend
	rows  [][]any           // row backend
	n     int
}

// NewTableScanner reads a snapshot-resolved table's raw columnar
// arrays directly (generations retain them alongside the encodings).
func NewTableScanner(t *storage.Table) *Scanner {
	s := &Scanner{sch: &t.Schema, cols: t.Cols, n: t.NumRows, colIx: map[string]int{}}
	for i := range t.Schema.Cols {
		s.colIx[t.Schema.Cols[i].Name] = i
	}
	return s
}

// NewRowScanner reads pre-decoded rows (a reservoir sample) under the
// same schema.
func NewRowScanner(sch *storage.Schema, rows [][]any) *Scanner {
	s := &Scanner{sch: sch, rows: rows, n: len(rows), colIx: map[string]int{}}
	for i := range sch.Cols {
		s.colIx[sch.Cols[i].Name] = i
	}
	return s
}

// NumRows reports the scan length.
func (s *Scanner) NumRows() int { return s.n }

func (s *Scanner) value(ci, ri int) any {
	if s.cols != nil {
		c := s.cols[ci]
		switch c.Def.Kind {
		case storage.Float64:
			return c.Floats[ri]
		case storage.String:
			return c.Strs[ri]
		default:
			return c.Ints[ri]
		}
	}
	return s.rows[ri][ci]
}

// Row materializes row ri as a decoded []any (used when feeding the
// reservoir).
func (s *Scanner) Row(ri int) []any {
	row := make([]any, len(s.sch.Cols))
	for ci := range row {
		row[ci] = s.value(ci, ri)
	}
	return row
}

// --- row expression evaluation (mirrors refeval's float64 semantics) ---

func (s *Scanner) colOf(cr sqlparse.ColRef) (int, error) {
	ci, ok := s.colIx[cr.Name]
	if !ok {
		return 0, fmt.Errorf("approx: unknown column %s", cr.Name)
	}
	return ci, nil
}

func (s *Scanner) evalBool(e sqlparse.Expr, ri int) (bool, error) {
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "and":
			l, err := s.evalBool(v.L, ri)
			if err != nil || !l {
				return false, err
			}
			return s.evalBool(v.R, ri)
		case "or":
			l, err := s.evalBool(v.L, ri)
			if err != nil || l {
				return l, err
			}
			return s.evalBool(v.R, ri)
		case "=", "<>", "<", "<=", ">", ">=":
			return s.compare(v.Op, v.L, v.R, ri)
		}
		return false, fmt.Errorf("approx: boolean op %s", v.Op)
	case sqlparse.UnaryExpr:
		if v.Op == "not" {
			b, err := s.evalBool(v.X, ri)
			return !b, err
		}
		return false, fmt.Errorf("approx: unary %s in boolean context", v.Op)
	case sqlparse.BetweenExpr:
		x, err := s.evalNum(v.X, ri)
		if err != nil {
			return false, err
		}
		lo, err := s.evalNum(v.Lo, ri)
		if err != nil {
			return false, err
		}
		hi, err := s.evalNum(v.Hi, ri)
		if err != nil {
			return false, err
		}
		in := x >= lo && x <= hi
		return in != v.Negate, nil
	case sqlparse.InExpr:
		if str, ok, err := s.evalStr(v.X, ri); err != nil {
			return false, err
		} else if ok {
			hit := false
			for _, ve := range v.Vals {
				lit, isStr := ve.(sqlparse.StringLit)
				if !isStr {
					return false, fmt.Errorf("approx: IN on string needs string literals")
				}
				if str == lit.Val {
					hit = true
					break
				}
			}
			return hit != v.Negate, nil
		}
		x, err := s.evalNum(v.X, ri)
		if err != nil {
			return false, err
		}
		hit := false
		for _, ve := range v.Vals {
			n, err := s.evalNum(ve, ri)
			if err != nil {
				return false, err
			}
			if x == n {
				hit = true
				break
			}
		}
		return hit != v.Negate, nil
	case sqlparse.LikeExpr:
		str, ok, err := s.evalStr(v.X, ri)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, fmt.Errorf("approx: LIKE on non-string")
		}
		return refeval.LikeMatch(str, v.Pattern) != v.Negate, nil
	}
	return false, fmt.Errorf("approx: unsupported boolean expr %T", e)
}

func (s *Scanner) compare(op string, le, re sqlparse.Expr, ri int) (bool, error) {
	ls, lok, err := s.evalStr(le, ri)
	if err != nil {
		return false, err
	}
	rs, rok, err := s.evalStr(re, ri)
	if err != nil {
		return false, err
	}
	if lok && rok {
		switch op {
		case "=":
			return ls == rs, nil
		case "<>":
			return ls != rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		default:
			return ls >= rs, nil
		}
	}
	if lok != rok {
		return false, fmt.Errorf("approx: mixed string/numeric comparison")
	}
	l, err := s.evalNum(le, ri)
	if err != nil {
		return false, err
	}
	r, err := s.evalNum(re, ri)
	if err != nil {
		return false, err
	}
	switch op {
	case "=":
		return l == r, nil
	case "<>":
		return l != r, nil
	case "<":
		return l < r, nil
	case "<=":
		return l <= r, nil
	case ">":
		return l > r, nil
	default:
		return l >= r, nil
	}
}

func (s *Scanner) evalStr(e sqlparse.Expr, ri int) (string, bool, error) {
	switch v := e.(type) {
	case sqlparse.StringLit:
		return v.Val, true, nil
	case sqlparse.ColRef:
		ci, err := s.colOf(v)
		if err != nil {
			return "", false, err
		}
		if s.sch.Cols[ci].Kind == storage.String {
			return s.value(ci, ri).(string), true, nil
		}
	}
	return "", false, nil
}

func (s *Scanner) evalNum(e sqlparse.Expr, ri int) (float64, error) {
	switch v := e.(type) {
	case sqlparse.NumberLit:
		return v.Val, nil
	case sqlparse.DateLit:
		return float64(v.Days), nil
	case sqlparse.ColRef:
		ci, err := s.colOf(v)
		if err != nil {
			return 0, err
		}
		switch s.sch.Cols[ci].Kind {
		case storage.String:
			return 0, fmt.Errorf("approx: string column %s in numeric context", v.Name)
		case storage.Float64:
			return s.value(ci, ri).(float64), nil
		default:
			return float64(s.value(ci, ri).(int64)), nil
		}
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "+", "-", "*", "/":
			l, err := s.evalNum(v.L, ri)
			if err != nil {
				return 0, err
			}
			r, err := s.evalNum(v.R, ri)
			if err != nil {
				return 0, err
			}
			switch v.Op {
			case "+":
				return l + r, nil
			case "-":
				return l - r, nil
			case "*":
				return l * r, nil
			default:
				return l / r, nil
			}
		default:
			b, err := s.evalBool(v, ri)
			if err != nil {
				return 0, err
			}
			if b {
				return 1, nil
			}
			return 0, nil
		}
	case sqlparse.UnaryExpr:
		if v.Op == "-" {
			n, err := s.evalNum(v.X, ri)
			return -n, err
		}
		b, err := s.evalBool(v, ri)
		if err != nil {
			return 0, err
		}
		if b {
			return 1, nil
		}
		return 0, nil
	case sqlparse.CaseExpr:
		for _, w := range v.Whens {
			c, err := s.evalBool(w.Cond, ri)
			if err != nil {
				return 0, err
			}
			if c {
				return s.evalNum(w.Then, ri)
			}
		}
		if v.Else != nil {
			return s.evalNum(v.Else, ri)
		}
		return 0, nil
	case sqlparse.ExtractExpr:
		d, err := s.evalNum(v.X, ri)
		if err != nil {
			return 0, err
		}
		days := int32(d)
		switch v.Unit {
		case "year":
			return float64(sqlparse.DateYear(days)), nil
		case "month":
			return float64(sqlparse.DateMonth(days)), nil
		default:
			return float64(sqlparse.DateDay(days)), nil
		}
	case sqlparse.BetweenExpr, sqlparse.InExpr, sqlparse.LikeExpr:
		b, err := s.evalBool(e, ri)
		if err != nil {
			return 0, err
		}
		if b {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("approx: unsupported numeric expr %T", e)
}

// --- canonical group/distinct keys (mirror the engine's pseudo-encoding) ---

// canonVal maps a float to its dict.CanonFloat representative.
func canonVal(v any) any {
	if f, ok := v.(float64); ok {
		return dict.CanonFloat(f)
	}
	return v
}

// canonKey renders a canonical value as an exact pairing string.
func canonKey(v any) string {
	switch x := v.(type) {
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		return "f" + strconv.FormatUint(dict.CanonFloatBits(x), 16)
	case string:
		return "s" + x
	}
	return fmt.Sprintf("?%v", v)
}

// --- exact scan evaluation ---

type groupAcc struct {
	keyVals []any
	rows    float64
	accs    []float64
	counts  []float64
	sets    []map[string]struct{}
	// accsSq/maxAbs track Σv² and max|v| per sum/avg aggregate — free on
	// the exact path, and exactly what the sample route's CLT bounds need.
	accsSq []float64
	maxAbs []float64
}

// scan runs the shared filter/group/accumulate loop over sc and returns
// the groups in first-seen order.
func (sh *Shape) scan(sc *Scanner) ([]*groupAcc, error) {
	groups := map[string]*groupAcc{}
	var order []*groupAcc
	for ri := 0; ri < sc.NumRows(); ri++ {
		if sh.Where != nil {
			ok, err := sc.evalBool(sh.Where, ri)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		key := ""
		var keyVals []any
		if len(sh.GroupBy) > 0 {
			keyVals = make([]any, len(sh.GroupBy))
			for i, gcol := range sh.GroupBy {
				v := canonVal(sc.value(sc.colIx[gcol], ri))
				keyVals[i] = v
				key += canonKey(v) + "\x00"
			}
		}
		g := groups[key]
		if g == nil {
			g = newGroupAcc(sh, keyVals)
			groups[key] = g
			order = append(order, g)
		}
		g.rows++
		for i, a := range sh.Aggs {
			if a.Distinct {
				v := canonVal(sc.value(sc.colIx[a.Col], ri))
				g.sets[i][canonKey(v)] = struct{}{}
				continue
			}
			switch a.Fn {
			case "count":
				g.accs[i]++
			case "sum", "avg":
				v, err := sc.evalNum(sqlparse.ColRef{Name: a.Col}, ri)
				if err != nil {
					return nil, err
				}
				g.accs[i] += v
				g.accsSq[i] += v * v
				g.counts[i]++
				if av := math.Abs(v); av > g.maxAbs[i] {
					g.maxAbs[i] = av
				}
			case "min":
				v, err := sc.evalNum(sqlparse.ColRef{Name: a.Col}, ri)
				if err != nil {
					return nil, err
				}
				if v < g.accs[i] {
					g.accs[i] = v
				}
			case "max":
				v, err := sc.evalNum(sqlparse.ColRef{Name: a.Col}, ri)
				if err != nil {
					return nil, err
				}
				if v > g.accs[i] {
					g.accs[i] = v
				}
			}
		}
	}
	return order, nil
}

func newGroupAcc(sh *Shape, keyVals []any) *groupAcc {
	g := &groupAcc{keyVals: keyVals, accs: make([]float64, len(sh.Aggs)), counts: make([]float64, len(sh.Aggs)), sets: make([]map[string]struct{}, len(sh.Aggs)), accsSq: make([]float64, len(sh.Aggs)), maxAbs: make([]float64, len(sh.Aggs))}
	for i, a := range sh.Aggs {
		switch a.Fn {
		case "min":
			g.accs[i] = math.Inf(1)
		case "max":
			g.accs[i] = math.Inf(-1)
		}
		if a.Distinct {
			g.sets[i] = map[string]struct{}{}
		}
	}
	return g
}

// finals computes the output value of every aggregate for one group,
// applying the engine's scalar conventions (±Inf→0 on empty, avg =
// sum/count incl. 0/0 = NaN).
func (sh *Shape) finals(g *groupAcc) []float64 {
	out := make([]float64, len(sh.Aggs))
	for i, a := range sh.Aggs {
		v := g.accs[i]
		if a.Distinct {
			v = float64(len(g.sets[i]))
		}
		if g.rows == 0 && math.IsInf(v, 0) {
			v = 0
		}
		if a.Fn == "avg" {
			v = v / g.counts[i]
		}
		out[i] = v
	}
	return out
}

// EvalScan evaluates the shape exactly over a full table scan: the
// engine's COUNT(DISTINCT) baseline (hash-set evaluation) and the
// approximate tier's exact fallback route.
func EvalScan(sh *Shape, sc *Scanner) (*exec.Result, error) {
	groups, err := sh.scan(sc)
	if err != nil {
		return nil, err
	}
	if len(sh.GroupBy) == 0 && len(groups) == 0 {
		// Scalar convention: one all-zero aggregate row.
		groups = append(groups, newGroupAcc(sh, nil))
	}
	res := newResult(sh, sc.sch)
	for _, g := range groups {
		appendRow(res, sh, g.keyVals, sh.finals(g))
	}
	return res, nil
}

// newResult allocates the typed output columns for a shape.
func newResult(sh *Shape, sch *storage.Schema) *exec.Result {
	res := &exec.Result{}
	for _, out := range sh.Out {
		col := &exec.Column{Name: out.Name}
		if out.Group >= 0 {
			switch sch.Col(sh.GroupBy[out.Group]).Kind {
			case storage.Float64:
				col.Kind = exec.KindFloat
			case storage.String:
				col.Kind = exec.KindString
			default:
				col.Kind = exec.KindInt
			}
		} else {
			col.Kind = exec.KindFloat
		}
		res.Cols = append(res.Cols, col)
	}
	return res
}

// appendRow appends one output row from group key values and finished
// aggregate values.
func appendRow(res *exec.Result, sh *Shape, keyVals []any, finals []float64) {
	for ci, out := range sh.Out {
		col := res.Cols[ci]
		if out.Group >= 0 {
			switch v := keyVals[out.Group].(type) {
			case int64:
				col.I64 = append(col.I64, v)
			case float64:
				col.F64 = append(col.F64, v)
			case string:
				col.Str = append(col.Str, v)
			}
			continue
		}
		col.F64 = append(col.F64, finals[out.Agg])
	}
	res.NumRows++
}
