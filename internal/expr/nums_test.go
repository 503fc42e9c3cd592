package expr

import (
	"math"
	"testing"

	"repro/internal/sqlparse"
)

// TestCompileNumsShares compiles Q1's aggregate arguments, and one
// expression with a private operand, as one set. A subtree that is
// another expression of the set (l_extendedprice, l_discount, the
// discounted price under the charge, l_quantity) is read, not
// recomputed; l_quantity * 2, used once, computes into its parent's
// vector. So the set runs nine steps over two temporaries where the
// expressions compiled alone evaluate eighteen nodes over four; and
// every vector is bit-identical to its expression's own kernel.
func TestCompileNumsShares(t *testing.T) {
	b := fixture(t)
	var es []sqlparse.Expr
	for _, src := range []string{
		"l_quantity",
		"l_extendedprice",
		"l_extendedprice * (1 - l_discount)",
		"l_extendedprice * (1 - l_discount) * (1 + l_quantity)",
		"l_discount",
		"l_quantity * 2 + l_discount",
	} {
		es = append(es, selectOf(t, src))
	}
	s, err := compileSet(&compiler{b: b}, es)
	if err != nil {
		t.Fatal(err)
	}
	// l_quantity, l_extendedprice, l_discount, 1 - l_discount, the
	// discounted price, 1 + l_quantity, the charge, then l_quantity * 2
	// and + l_discount in the last output; temporaries for 1 - l_discount
	// and 1 + l_quantity.
	if len(s.steps) != 9 || s.slots != len(es)+2 {
		t.Fatalf("%d steps over %d slots, want 9 over %d", len(s.steps), s.slots, len(es)+2)
	}

	n := b.Table.NumRows
	outs := make([][]float64, len(es))
	for i := range outs {
		outs[i] = make([]float64, BlockSize)
	}
	rows := Rows(make([]int32, BlockSize), 0, n)
	s.binder()()(rows, outs)
	for i, e := range es {
		num, err := CompileNum(e, b)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		num.Bind()(rows, want)
		for r, w := range want {
			if math.Float64bits(outs[i][r]) != math.Float64bits(w) {
				t.Errorf("%s at row %d: set %v, alone %v", e, r, outs[i][r], w)
			}
		}
	}
}
