package expr

import (
	"fmt"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// BlockSize is the most rows one kernel call covers: the selection and
// value vectors a kernel reads and writes hold at most this many rows.
const BlockSize = 2048

// Sel is a bound selection kernel. rows holds ascending row ids
// (len ≤ BlockSize); the kernel writes the ones satisfying its predicate,
// in order, to the front of out and returns that prefix. out must have
// room for len(rows) ids and may alias rows.
type Sel func(rows, out []int32) []int32

// Vec is a bound value kernel: out[i] = the expression at row rows[i],
// for every i < len(rows) ≤ BlockSize. Like Sel, it takes strictly
// ascending row ids: a block whose first and last ids lie len(rows)-1
// apart is read as the run [rows[0], rows[0]+len(rows)), so a permuted
// or repeated block such as [0 2 1 3] would silently read rows 0..3.
type Vec func(rows []int32, out []float64)

// Pred is a compiled predicate. It is immutable and safe to share; every
// goroutine binds its own kernel, which owns that goroutine's scratch
// vectors.
type Pred struct{ bind func() Sel }

// Bind returns a selection kernel for use by one goroutine.
func (p *Pred) Bind() Sel { return p.bind() }

// Num is a compiled numeric expression (dates as day counts, booleans as
// 0/1); like Pred, shared, and bound once per goroutine.
type Num struct{ bind func() Vec }

// Bind returns a value kernel for use by one goroutine.
func (n *Num) Bind() Vec { return n.bind() }

// CompilePred compiles a boolean expression into block selection
// kernels. A conjunction filters its right side over the survivors of
// its left; a column compared with (or BETWEEN) constants is one loop
// over the raw column; string predicates index a per-dictionary-entry
// table by code. Every column referenced must resolve within the
// binding.
func CompilePred(e sqlparse.Expr, b *Binding) (*Pred, error) {
	c := &compiler{b: b}
	f, err := c.blockBool(e)
	if err != nil {
		return nil, err
	}
	return &Pred{bind: f}, nil
}

// CompileNum compiles a numeric expression into block value kernels.
// Each operator is one loop over scratch vectors performing one float64
// operation per row, so a row's value is the same in any block, a
// one-row selection included.
func CompileNum(e sqlparse.Expr, b *Binding) (*Num, error) {
	c := &compiler{b: b}
	f, err := c.blockNum(e)
	if err != nil {
		return nil, err
	}
	return &Num{bind: f}, nil
}

// Rows fills ids with the row range [lo, hi) (hi-lo ≤ len(ids)) and
// returns it: the candidate list a block's first conjunct scans.
func Rows(ids []int32, lo, hi int) []int32 {
	ids = ids[:hi-lo]
	fillRange(ids, lo)
	return ids
}

// fillRange sets ids[i] = lo + i. It is never inlined: its loop then
// sits in the first 32 bytes of a function without a frame, which the
// linker starts on a 32-byte boundary, so no edit elsewhere can split
// the loop across a fetch window. Inlined into the scan's block loop,
// it once moved across a 64-byte boundary with unrelated edits, and Q6
// (filter-bound, this loop 13 % of its samples) read 12 % slower.
//
//go:noinline
func fillRange(ids []int32, lo int) {
	for i := range ids {
		ids[i] = int32(lo + i)
	}
}

// contiguous reports whether strictly ascending row ids form one run,
// and its first row.
func contiguous(rows []int32) (int, bool) {
	n := len(rows)
	if n == 0 {
		return 0, false
	}
	return int(rows[0]), int(rows[n-1]-rows[0]) == n-1
}

// cmpOp is a comparison operator resolved at compile time.
type cmpOp uint8

const (
	opEq cmpOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var cmpOps = map[string]cmpOp{"=": opEq, "<>": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe}

func (c *compiler) blockBool(e sqlparse.Expr) (func() Sel, error) {
	if codes, table, ok, err := c.stringPred(e); err != nil || ok {
		if err != nil {
			return nil, err
		}
		return func() Sel {
			return func(rows, out []int32) []int32 {
				k := 0
				for _, r := range rows {
					out[k] = r
					if table[codes[r]] {
						k++
					}
				}
				return out[:k]
			}
		}, nil
	}
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		switch v.Op {
		case "and", "or":
			l, err := c.blockBool(v.L)
			if err != nil {
				return nil, err
			}
			r, err := c.blockBool(v.R)
			if err != nil {
				return nil, err
			}
			if v.Op == "and" {
				return func() Sel {
					ls, rs := l(), r()
					return func(rows, out []int32) []int32 { return rs(ls(rows, out), out) }
				}, nil
			}
			// OR: the right side scans only the rows the left rejected; the
			// two ascending survivor lists merge.
			return func() Sel {
				ls, rs := l(), r()
				hit, rest := make([]int32, BlockSize), make([]int32, BlockSize)
				return func(rows, out []int32) []int32 {
					a := ls(rows, hit)
					return union(a, rs(minus(rows, a, rest), rest), out)
				}
			}, nil
		case "=", "<>", "<", "<=", ">", ">=":
			return c.blockComparison(v)
		default:
			return nil, fmt.Errorf("expr: %q is not a boolean operator", v.Op)
		}
	case sqlparse.UnaryExpr:
		if v.Op != "not" {
			return nil, fmt.Errorf("expr: unary %q is not boolean", v.Op)
		}
		x, err := c.blockBool(v.X)
		if err != nil {
			return nil, err
		}
		return func() Sel {
			xs := x()
			hit := make([]int32, BlockSize)
			return func(rows, out []int32) []int32 { return minus(rows, xs(rows, hit), out) }
		}, nil
	case sqlparse.BetweenExpr:
		return c.blockBetween(v)
	case sqlparse.InExpr:
		x, err := c.blockNum(v.X)
		if err != nil {
			return nil, err
		}
		vals, err := c.inList(v)
		if err != nil {
			return nil, err
		}
		neg := v.Negate
		return func() Sel {
			xv := x()
			xb := make([]float64, BlockSize)
			return func(rows, out []int32) []int32 {
				xv(rows, xb)
				k := 0
				for i, r := range rows {
					in := false
					for _, val := range vals {
						if xb[i] == val {
							in = true
							break
						}
					}
					out[k] = r
					if in != neg {
						k++
					}
				}
				return out[:k]
			}
		}, nil
	default:
		return nil, fmt.Errorf("expr: %T is not a boolean expression", e)
	}
}

// blockComparison compiles a numeric comparison: one loop over the raw
// column when one side is a column and the other a constant, otherwise
// both sides into vectors and a compare loop.
func (c *compiler) blockComparison(v sqlparse.BinaryExpr) (func() Sel, error) {
	op := cmpOps[v.Op]
	if k, ok := constNum(v.R); ok {
		if s := c.colConstSel(v.L, op, k); s != nil {
			return s, nil
		}
	}
	if k, ok := constNum(v.L); ok {
		// c op x ≡ x flip(op) c, NaN included (both false).
		if s := c.colConstSel(v.R, cmpOps[flipOp(v.Op)], k); s != nil {
			return s, nil
		}
	}
	l, err := c.blockNum(v.L)
	if err != nil {
		return nil, err
	}
	r, err := c.blockNum(v.R)
	if err != nil {
		return nil, err
	}
	return func() Sel {
		lv, rv := l(), r()
		lb, rb := make([]float64, BlockSize), make([]float64, BlockSize)
		return func(rows, out []int32) []int32 {
			lv(rows, lb)
			rv(rows, rb)
			return keepCmp(op, rows, out, lb, rb)
		}
	}, nil
}

// colConstSel returns the raw-column comparison kernel for a numeric
// column reference e, or nil when e is not one.
func (c *compiler) colConstSel(e sqlparse.Expr, op cmpOp, k float64) func() Sel {
	ints, floats, ok := c.numCol(e)
	switch {
	case !ok:
		return nil
	case floats == nil:
		return func() Sel {
			return func(rows, out []int32) []int32 { return keepCmpConst(op, rows, out, ints, k) }
		}
	default:
		return func() Sel {
			return func(rows, out []int32) []int32 { return keepCmpConst(op, rows, out, floats, k) }
		}
	}
}

// numCol resolves e to the raw buffer a numeric column reference reads.
// ok is false when e is anything else, which then compiles through the
// generic path (reporting any error there).
func (c *compiler) numCol(e sqlparse.Expr) (ints []int64, floats []float64, ok bool) {
	cr, isCol := e.(sqlparse.ColRef)
	if !isCol {
		return nil, nil, false
	}
	ints, floats, err := c.colBuf(cr)
	return ints, floats, err == nil
}

// colBuf resolves a column reference in numeric context to its raw
// buffer: a key column's int64 values (floats nil) or a numeric
// annotation's float64s.
func (c *compiler) colBuf(cr sqlparse.ColRef) (ints []int64, floats []float64, err error) {
	col := c.b.colFor(cr)
	switch {
	case col == nil:
		return nil, nil, fmt.Errorf("expr: unknown column %s", cr)
	case col.Def.Kind == storage.String:
		return nil, nil, fmt.Errorf("expr: string column %s in numeric context", cr)
	case col.Def.Role == storage.Key:
		// Keys participate in numeric expressions via raw values.
		return col.Ints, nil, nil
	}
	if floats = col.AnnFloats(); floats == nil {
		return nil, nil, fmt.Errorf("expr: column %s has no numeric buffer (catalog not frozen?)", cr)
	}
	return nil, floats, nil
}

func (c *compiler) blockBetween(v sqlparse.BetweenExpr) (func() Sel, error) {
	x, err := c.blockNum(v.X)
	if err != nil {
		return nil, err
	}
	lo, err := c.blockNum(v.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := c.blockNum(v.Hi)
	if err != nil {
		return nil, err
	}
	neg := v.Negate
	loK, loOK := constNum(v.Lo)
	hiK, hiOK := constNum(v.Hi)
	if ints, floats, ok := c.numCol(v.X); ok && loOK && hiOK {
		if floats == nil {
			return func() Sel {
				return func(rows, out []int32) []int32 { return keepBetween(rows, out, ints, loK, hiK, neg) }
			}, nil
		}
		return func() Sel {
			return func(rows, out []int32) []int32 { return keepBetween(rows, out, floats, loK, hiK, neg) }
		}, nil
	}
	return func() Sel {
		xv, lv, hv := x(), lo(), hi()
		xb, lb, hb := make([]float64, BlockSize), make([]float64, BlockSize), make([]float64, BlockSize)
		return func(rows, out []int32) []int32 {
			xv(rows, xb)
			lv(rows, lb)
			hv(rows, hb)
			k := 0
			for i, r := range rows {
				out[k] = r
				if neg {
					if xb[i] < lb[i] || xb[i] > hb[i] {
						k++
					}
				} else if xb[i] >= lb[i] && xb[i] <= hb[i] {
					k++
				}
			}
			return out[:k]
		}
	}, nil
}

// keepCmpConst keeps the rows whose column value compares true against k.
func keepCmpConst[T int64 | float64](op cmpOp, rows, out []int32, col []T, k float64) []int32 {
	n := 0
	switch op {
	case opEq:
		for _, r := range rows {
			out[n] = r
			if float64(col[r]) == k {
				n++
			}
		}
	case opNe:
		for _, r := range rows {
			out[n] = r
			if float64(col[r]) != k {
				n++
			}
		}
	case opLt:
		for _, r := range rows {
			out[n] = r
			if float64(col[r]) < k {
				n++
			}
		}
	case opLe:
		for _, r := range rows {
			out[n] = r
			if float64(col[r]) <= k {
				n++
			}
		}
	case opGt:
		for _, r := range rows {
			out[n] = r
			if float64(col[r]) > k {
				n++
			}
		}
	case opGe:
		for _, r := range rows {
			out[n] = r
			if float64(col[r]) >= k {
				n++
			}
		}
	}
	return out[:n]
}

// keepBetween keeps the rows whose column value lies in [lo, hi] (outside
// it when neg), with the comparisons of the generic BETWEEN kernel.
func keepBetween[T int64 | float64](rows, out []int32, col []T, lo, hi float64, neg bool) []int32 {
	n := 0
	if neg {
		for _, r := range rows {
			out[n] = r
			if x := float64(col[r]); x < lo || x > hi {
				n++
			}
		}
		return out[:n]
	}
	for _, r := range rows {
		out[n] = r
		if x := float64(col[r]); x >= lo && x <= hi {
			n++
		}
	}
	return out[:n]
}

// keepCmp keeps rows[i] where x[i] op y[i].
func keepCmp(op cmpOp, rows, out []int32, x, y []float64) []int32 {
	n := 0
	switch op {
	case opEq:
		for i, r := range rows {
			out[n] = r
			if x[i] == y[i] {
				n++
			}
		}
	case opNe:
		for i, r := range rows {
			out[n] = r
			if x[i] != y[i] {
				n++
			}
		}
	case opLt:
		for i, r := range rows {
			out[n] = r
			if x[i] < y[i] {
				n++
			}
		}
	case opLe:
		for i, r := range rows {
			out[n] = r
			if x[i] <= y[i] {
				n++
			}
		}
	case opGt:
		for i, r := range rows {
			out[n] = r
			if x[i] > y[i] {
				n++
			}
		}
	case opGe:
		for i, r := range rows {
			out[n] = r
			if x[i] >= y[i] {
				n++
			}
		}
	}
	return out[:n]
}

// minus writes the rows of a (ascending) not in sub (an ascending subset
// of a) to out, which may alias a.
func minus(a, sub, out []int32) []int32 {
	n, j := 0, 0
	for _, r := range a {
		if j < len(sub) && sub[j] == r {
			j++
			continue
		}
		out[n] = r
		n++
	}
	return out[:n]
}

// union merges two disjoint ascending lists into out (aliasing neither).
func union(a, b, out []int32) []int32 {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out[n] = a[i]
			i++
		} else {
			out[n] = b[j]
			j++
		}
		n++
	}
	n += copy(out[n:], a[i:])
	n += copy(out[n:], b[j:])
	return out[:n]
}

// arith is a compiled arithmetic operator.
type arith uint8

const (
	arAdd arith = iota
	arSub
	arMul
	arDiv
)

var ariths = map[string]arith{"+": arAdd, "-": arSub, "*": arMul, "/": arDiv}

func (c *compiler) blockNum(e sqlparse.Expr) (func() Vec, error) {
	if k, ok := constNum(e); ok {
		return func() Vec {
			return func(rows []int32, out []float64) {
				out = out[:len(rows)]
				for i := range out {
					out[i] = k
				}
			}
		}, nil
	}
	switch v := e.(type) {
	case sqlparse.ColRef:
		ints, floats, err := c.colBuf(v)
		if err != nil {
			return nil, err
		}
		// A run of consecutive rows (ascending, so first and last bound it)
		// reads the column as one contiguous slice.
		if floats == nil {
			return func() Vec {
				return func(rows []int32, out []float64) {
					out = out[:len(rows)]
					if lo, ok := contiguous(rows); ok {
						for i, x := range ints[lo : lo+len(rows)] {
							out[i] = float64(x)
						}
						return
					}
					for i, r := range rows {
						out[i] = float64(ints[r])
					}
				}
			}, nil
		}
		return func() Vec {
			return func(rows []int32, out []float64) {
				out = out[:len(rows)]
				if lo, ok := contiguous(rows); ok {
					copy(out, floats[lo:lo+len(rows)])
					return
				}
				for i, r := range rows {
					out[i] = floats[r]
				}
			}
		}, nil
	case sqlparse.BinaryExpr:
		if _, ok := ariths[v.Op]; !ok {
			// Boolean in numeric context evaluates to 0/1 (CASE shortcut).
			return c.blockBoolAsNum(v)
		}
		return c.arithNum(e)
	case sqlparse.UnaryExpr:
		switch v.Op {
		case "-":
			return c.arithNum(e)
		case "not":
			return c.blockBoolAsNum(v)
		}
		return nil, fmt.Errorf("expr: unary %q in numeric context", v.Op)
	case sqlparse.BetweenExpr, sqlparse.InExpr, sqlparse.LikeExpr:
		// Predicate forms in numeric context (e.g. a decomposed CASE
		// condition) evaluate to 0/1 like boolean BinaryExprs do.
		return c.blockBoolAsNum(e)
	case sqlparse.CaseExpr:
		return c.blockCase(v)
	case sqlparse.ExtractExpr:
		x, err := c.blockNum(v.X)
		if err != nil {
			return nil, err
		}
		var part func(int32) int
		switch v.Unit {
		case "year":
			part = sqlparse.DateYear
		case "month":
			part = sqlparse.DateMonth
		case "day":
			part = sqlparse.DateDay
		default:
			return nil, fmt.Errorf("expr: bad EXTRACT unit %q", v.Unit)
		}
		return func() Vec {
			xv := x()
			return func(rows []int32, out []float64) {
				xv(rows, out)
				for i := range out[:len(rows)] {
					out[i] = float64(part(int32(out[i])))
				}
			}
		}, nil
	default:
		return nil, fmt.Errorf("expr: unsupported expression %T in numeric context", e)
	}
}

// arithConstR computes out[i] = x[i] op k; out may alias x.
func arithConstR(op arith, out, x []float64, k float64) {
	x = x[:len(out)]
	switch op {
	case arAdd:
		for i := range out {
			out[i] = x[i] + k
		}
	case arSub:
		for i := range out {
			out[i] = x[i] - k
		}
	case arMul:
		for i := range out {
			out[i] = x[i] * k
		}
	case arDiv:
		for i := range out {
			out[i] = x[i] / k
		}
	}
}

// arithConstL computes out[i] = k op x[i]; out may alias x.
func arithConstL(op arith, out []float64, k float64, x []float64) {
	x = x[:len(out)]
	switch op {
	case arAdd:
		for i := range out {
			out[i] = k + x[i]
		}
	case arSub:
		for i := range out {
			out[i] = k - x[i]
		}
	case arMul:
		for i := range out {
			out[i] = k * x[i]
		}
	case arDiv:
		for i := range out {
			out[i] = k / x[i]
		}
	}
}

// arithVec computes out[i] = x[i] op y[i]; out may alias x.
func arithVec(op arith, out, x, y []float64) {
	x, y = x[:len(out)], y[:len(out)]
	switch op {
	case arAdd:
		for i := range out {
			out[i] = x[i] + y[i]
		}
	case arSub:
		for i := range out {
			out[i] = x[i] - y[i]
		}
	case arMul:
		for i := range out {
			out[i] = x[i] * y[i]
		}
	case arDiv:
		for i := range out {
			out[i] = x[i] / y[i]
		}
	}
}

// blockBoolAsNum compiles a predicate used in numeric context to 0/1.
func (c *compiler) blockBoolAsNum(e sqlparse.Expr) (func() Vec, error) {
	p, err := c.blockBool(e)
	if err != nil {
		return nil, err
	}
	return func() Vec {
		ps := p()
		hit := make([]int32, BlockSize)
		return func(rows []int32, out []float64) {
			h := ps(rows, hit)
			j := 0
			for i, r := range rows {
				if j < len(h) && h[j] == r {
					out[i] = 1
					j++
				} else {
					out[i] = 0
				}
			}
		}
	}, nil
}

// blockCase compiles CASE: each arm's condition scans the rows no
// earlier arm claimed, its THEN fills the rows it claims, and ELSE (0
// when absent) fills the rest.
func (c *compiler) blockCase(v sqlparse.CaseExpr) (func() Vec, error) {
	conds := make([]func() Sel, len(v.Whens))
	thens := make([]func() Vec, len(v.Whens))
	for i, w := range v.Whens {
		cond, err := c.blockBool(w.Cond)
		if err != nil {
			return nil, err
		}
		then, err := c.blockNum(w.Then)
		if err != nil {
			return nil, err
		}
		conds[i], thens[i] = cond, then
	}
	var elseV func() Vec
	if v.Else != nil {
		ev, err := c.blockNum(v.Else)
		if err != nil {
			return nil, err
		}
		elseV = ev
	}
	return func() Vec {
		cs := make([]Sel, len(conds))
		ts := make([]Vec, len(thens))
		for i := range conds {
			cs[i], ts[i] = conds[i](), thens[i]()
		}
		var es Vec
		if elseV != nil {
			es = elseV()
		}
		remRows, remPos := make([]int32, BlockSize), make([]int32, BlockSize)
		hit, hitPos := make([]int32, BlockSize), make([]int32, BlockSize)
		tmp := make([]float64, BlockSize)
		return func(rows []int32, out []float64) {
			rem, pos := remRows[:copy(remRows, rows)], remPos[:len(rows)]
			for i := range pos {
				pos[i] = int32(i)
			}
			for a := range cs {
				if len(rem) == 0 {
					return
				}
				h := cs[a](rem, hit)
				hp := hitPos[:0]
				k, j := 0, 0
				for i, r := range rem {
					if j < len(h) && h[j] == r {
						hp = append(hp, pos[i])
						j++
						continue
					}
					rem[k], pos[k] = r, pos[i]
					k++
				}
				rem, pos = rem[:k], pos[:k]
				ts[a](h, tmp)
				for i, p := range hp {
					out[p] = tmp[i]
				}
			}
			if es == nil {
				for _, p := range pos {
					out[p] = 0
				}
				return
			}
			es(rem, tmp)
			for i, p := range pos {
				out[p] = tmp[i]
			}
		}
	}, nil
}
