package colstore

import (
	"reflect"
	"testing"

	"repro/internal/storage"
)

func TestSelOperators(t *testing.T) {
	ints := []int64{5, 10, 15, 20}
	if got := selInt(ints, func(v int64) bool { return v >= 10 && v < 20 }); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("selInt = %v", got)
	}
	strs := frozenStrings(t, "a", "b", "a", "ab")
	if got := selEq(strs, "a"); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("selEq = %v", got)
	}
	if got := selEq(strs, "zz"); len(got) != 0 {
		t.Fatalf("selEq of an absent literal = %v", got)
	}
	if got := selStr(strs, func(s string) bool { return s[0] == 'a' }); !reflect.DeepEqual(got, []int32{0, 2, 3}) {
		t.Fatalf("selStr = %v", got)
	}
	fs := []float64{0.5, 1.5, 2.5}
	if got := selFloat(fs, func(v float64) bool { return v > 1 }); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("selFloat = %v", got)
	}
}

func TestAndSel(t *testing.T) {
	a := []int32{0, 2, 4, 6}
	b := []int32{1, 2, 3, 6, 9}
	if got := andSel(a, b); !reflect.DeepEqual(got, []int32{2, 6}) {
		t.Fatalf("andSel = %v", got)
	}
	if got := andSel(a, nil); len(got) != 0 {
		t.Fatalf("andSel with empty = %v", got)
	}
}

func TestGathers(t *testing.T) {
	sel := []int32{2, 0}
	if got := gatherI([]int64{10, 20, 30}, sel); !reflect.DeepEqual(got, []int64{30, 10}) {
		t.Fatalf("gatherI = %v", got)
	}
	if got := gatherF([]float64{1, 2, 3}, sel); !reflect.DeepEqual(got, []float64{3, 1}) {
		t.Fatalf("gatherF = %v", got)
	}
	col := frozenStrings(t, "x", "y", "z")
	if got := gatherC(col, sel); col.Dict().DecodeString(got[0]) != "z" || col.Dict().DecodeString(got[1]) != "x" {
		t.Fatalf("gatherC = %v", got)
	}
}

// frozenStrings returns a frozen string annotation column holding vals.
func frozenStrings(t *testing.T, vals ...string) *storage.Column {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create(storage.Schema{Name: "t", Cols: []storage.ColumnDef{
		{Name: "s", Kind: storage.String, Role: storage.Annotation},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.SetColumnData(map[string]interface{}{"s": vals}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return tab.Col("s")
}

func TestHashJoinAllMatches(t *testing.T) {
	left := []int64{1, 2, 2, 3}
	right := []int64{2, 2, 4, 1}
	lp, rp := hashJoin(left, right)
	// Expect: left[0]=1 matches right[3]; left[1]=2 and left[2]=2 each
	// match right[0] and right[1] → 5 pairs total.
	if len(lp) != 5 || len(rp) != 5 {
		t.Fatalf("pairs = %d", len(lp))
	}
	count := map[[2]int32]int{}
	for i := range lp {
		count[[2]int32{lp[i], rp[i]}]++
	}
	for _, want := range [][2]int32{{0, 3}, {1, 0}, {1, 1}, {2, 0}, {2, 1}} {
		if count[want] != 1 {
			t.Fatalf("missing pair %v in %v", want, count)
		}
	}
}

func TestHashJoinBoundedAborts(t *testing.T) {
	left := []int64{1, 1, 1}
	right := []int64{1, 1, 1}
	lp, rp := hashJoinBounded(left, right, 4)
	if lp != nil || rp != nil {
		t.Fatal("9-pair join should exceed budget 4")
	}
	lp, _ = hashJoinBounded(left, right, 100)
	if len(lp) != 9 {
		t.Fatalf("unbounded join pairs = %d", len(lp))
	}
}

func TestUnknownQuery(t *testing.T) {
	e := New(storage.NewCatalog())
	if _, err := e.RunTPCH("q99"); err == nil {
		t.Error("unknown query should error")
	}
}

func TestSpMVMissingTable(t *testing.T) {
	e := New(storage.NewCatalog())
	if _, err := e.SpMV("nope", "nada"); err == nil {
		t.Error("missing tables should error")
	}
	if _, _, err := e.SpMM("nope", "nada", 0); err == nil {
		t.Error("missing tables should error")
	}
	if _, err := e.ConvertToCSR("nope", 1, 1); err == nil {
		t.Error("missing table should error")
	}
}
