package expr

import "repro/internal/sqlparse"

// Vecs is a bound set kernel: outs[i] = expression i of the set at rows,
// for every expression, under Vec's rules for rows and out.
type Vecs func(rows []int32, outs [][]float64)

// Nums is a set of numeric expressions compiled together; like Num,
// shared, and bound once per goroutine.
type Nums struct {
	n    int
	bind func() Vecs
}

// Len is the number of expressions in the set.
func (ns *Nums) Len() int { return ns.n }

// Bind returns a set kernel for use by one goroutine.
func (ns *Nums) Bind() Vecs { return ns.bind() }

// CompileNums compiles numeric expressions as one set whose kernel
// computes each shared subexpression once per block: a subtree whose
// String() equals an expression of the set, or that occurs more than
// once, is computed into a vector of its own that every use reads.
// Arithmetic and negation read their operands' vectors; an operand used
// once computes into its parent's vector when it is the left (or only)
// one, so the set holds no more scratch than its expressions compiled
// alone. Every other form (columns, CASE, EXTRACT, predicates, literals)
// is blockNum's kernel. Each operator still performs one float64
// operation per row on the same operands, so every value is
// bit-identical to its expression's CompileNum kernel.
func CompileNums(es []sqlparse.Expr, b *Binding) (*Nums, error) {
	s, err := compileSet(&compiler{b: b}, es)
	if err != nil {
		return nil, err
	}
	return &Nums{n: len(es), bind: s.binder()}, nil
}

// arithNum compiles an arithmetic operator or negation, for blockNum,
// as a set of one expression: the set is the one compiler of
// arithmetic, and a subtree that occurs twice in e is computed once.
func (c *compiler) arithNum(e sqlparse.Expr) (func() Vec, error) {
	s, err := compileSet(c, []sqlparse.Expr{e})
	if err != nil {
		return nil, err
	}
	bind := s.binder()
	return func() Vec {
		vs, outs := bind(), make([][]float64, 1)
		return func(rows []int32, out []float64) {
			outs[0] = out
			vs(rows, outs)
		}
	}, nil
}

// compileSet compiles every expression of es into its output slot.
func compileSet(c *compiler, es []sqlparse.Expr) (*numSet, error) {
	s := &numSet{c: c, es: es, slots: len(es), out: make([]bool, len(es)),
		leaf: map[string]int{}, done: map[string]int{}, uses: map[string]int{}}
	for i, e := range es {
		if _, ok := constNum(e); !ok {
			if _, dup := s.leaf[e.String()]; !dup {
				s.leaf[e.String()] = i
			}
		}
		s.count(e)
	}
	for i := range es {
		if err := s.output(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// numSet compiles a set into steps over numbered vectors ("slots"):
// slot i < len(es) is the caller's output for expression i, the rest
// are temporaries that each hold one compiled subtree.
type numSet struct {
	c     *compiler
	es    []sqlparse.Expr
	leaf  map[string]int // String() → the first expression with it
	done  map[string]int // String() → the slot that holds it
	uses  map[string]int // String() → its uses, counted once per computed parent
	out   []bool         // expression i's output slot is computed
	slots int            // outputs, then temporaries
	steps []setStep      // in evaluation order
	vecs  []func() Vec   // the kernels of the steps that call one; bound per goroutine
}

// setStep computes one slot from rows and earlier slots; vecs are the
// set's kernels as one goroutine bound them.
type setStep func(rows []int32, bufs [][]float64, vecs []Vec)

// count counts e's use and, on its first, its operands' uses, through
// the forms the set computes from operand vectors.
func (s *numSet) count(e sqlparse.Expr) {
	if _, ok := constNum(e); ok {
		return
	}
	key := e.String()
	if s.uses[key]++; s.uses[key] > 1 {
		return
	}
	switch v := e.(type) {
	case sqlparse.BinaryExpr:
		if _, ok := ariths[v.Op]; ok {
			s.count(v.L)
			s.count(v.R)
		}
	case sqlparse.UnaryExpr:
		if v.Op == "-" {
			s.count(v.X)
		}
	}
}

// private reports whether e is a non-literal subtree used once and not
// an expression of the set: nothing else reads its vector.
func (s *numSet) private(e sqlparse.Expr) bool {
	if _, ok := constNum(e); ok {
		return false
	}
	_, isLeaf := s.leaf[e.String()]
	return !isLeaf && s.uses[e.String()] == 1
}

// inPlace returns dst after compiling a private operand e into it, or
// else the slot holding e (see operand).
func (s *numSet) inPlace(e sqlparse.Expr, dst int) (int, error) {
	if s.private(e) {
		return dst, s.emit(e, dst)
	}
	return s.operand(e)
}

// output compiles expression i into its own slot, once.
func (s *numSet) output(i int) error {
	if s.out[i] {
		return nil
	}
	s.out[i] = true
	if err := s.emit(s.es[i], i); err != nil {
		return err
	}
	if _, ok := constNum(s.es[i]); !ok {
		if _, had := s.done[s.es[i].String()]; !had {
			s.done[s.es[i].String()] = i
		}
	}
	return nil
}

// operand returns the slot holding e's value, compiling e first unless
// the set already computes it. A literal is never shared: it folds to a
// constant fill, and its String() need not name one value.
func (s *numSet) operand(e sqlparse.Expr) (int, error) {
	if _, ok := constNum(e); !ok {
		key := e.String()
		if slot, ok := s.done[key]; ok {
			return slot, nil
		}
		if i, ok := s.leaf[key]; ok {
			return i, s.output(i)
		}
	}
	slot := s.slots
	s.slots++
	if err := s.emit(e, slot); err != nil {
		return 0, err
	}
	if _, ok := constNum(e); !ok {
		s.done[e.String()] = slot
	}
	return slot, nil
}

// emit appends the steps that compute e into slot dst, mirroring
// blockNum's case order so the same operator applies to the same
// operands.
func (s *numSet) emit(e sqlparse.Expr, dst int) error {
	if _, ok := constNum(e); !ok {
		switch v := e.(type) {
		case sqlparse.BinaryExpr:
			if op, ok := ariths[v.Op]; ok {
				return s.emitArith(v, op, dst)
			}
		case sqlparse.UnaryExpr:
			if v.Op == "-" {
				x, err := s.inPlace(v.X, dst)
				if err != nil {
					return err
				}
				s.steps = append(s.steps, func(rows []int32, bufs [][]float64, _ []Vec) {
					out := bufs[dst][:len(rows)]
					xs := bufs[x][:len(out)]
					for i := range out {
						out[i] = -xs[i]
					}
				})
				return nil
			}
		}
	}
	f, err := s.c.blockNum(e)
	if err != nil {
		return err
	}
	k := len(s.vecs)
	s.vecs = append(s.vecs, f)
	s.steps = append(s.steps, func(rows []int32, bufs [][]float64, vecs []Vec) { vecs[k](rows, bufs[dst]) })
	return nil
}

// emitArith compiles one arithmetic operator over its operands' slots:
// against a literal on the right, then on the left, else two vectors,
// as blockNum does. A private left operand computes into dst first and
// the operator applies in place; a right one gets a temporary.
func (s *numSet) emitArith(v sqlparse.BinaryExpr, op arith, dst int) error {
	if k, ok := constNum(v.R); ok {
		x, err := s.inPlace(v.L, dst)
		if err != nil {
			return err
		}
		s.steps = append(s.steps, func(rows []int32, bufs [][]float64, _ []Vec) { arithConstR(op, bufs[dst][:len(rows)], bufs[x], k) })
		return nil
	}
	if k, ok := constNum(v.L); ok {
		y, err := s.inPlace(v.R, dst)
		if err != nil {
			return err
		}
		s.steps = append(s.steps, func(rows []int32, bufs [][]float64, _ []Vec) { arithConstL(op, bufs[dst][:len(rows)], k, bufs[y]) })
		return nil
	}
	x, err := s.inPlace(v.L, dst)
	if err != nil {
		return err
	}
	y, err := s.operand(v.R)
	if err != nil {
		return err
	}
	s.steps = append(s.steps, func(rows []int32, bufs [][]float64, _ []Vec) { arithVec(op, bufs[dst][:len(rows)], bufs[x], bufs[y]) })
	return nil
}

// binder returns the set's Bind: each goroutine binds its own kernels
// and temporaries; the outputs are the caller's.
func (s *numSet) binder() func() Vecs {
	steps, kernels, n, slots := s.steps, s.vecs, len(s.es), s.slots
	return func() Vecs {
		vecs := make([]Vec, len(kernels))
		for i, f := range kernels {
			vecs[i] = f()
		}
		bufs := make([][]float64, slots)
		for i := n; i < slots; i++ {
			bufs[i] = make([]float64, BlockSize)
		}
		return func(rows []int32, outs [][]float64) {
			copy(bufs, outs[:n])
			for _, st := range steps {
				st(rows, bufs, vecs)
			}
		}
	}
}
