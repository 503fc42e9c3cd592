package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseSF(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
	}{
		{"0.01,0.05", []float64{0.01, 0.05}},
		{" 0.05 , 0.01", []float64{0.01, 0.05}},
		{"1e-2", []float64{0.01}},
	} {
		got, err := parseSF(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSF(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	// Each of these once ran at a wrong scale or was silently dropped.
	for _, in := range []string{"0.O5", "1O", "abc", "0.01,abc", "", "0.01,", "0", "-1", "NaN", "Inf"} {
		if got, err := parseSF(in); err == nil {
			t.Errorf("parseSF(%q) = %v, want an error", in, got)
		}
	}
}

func TestParseDense(t *testing.T) {
	got, err := parseDense("256, 128,192")
	if want := []int{128, 192, 256}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseDense = %v, %v; want %v", got, err, want)
	}
	for _, in := range []string{"128.5", "12x", "abc", "128,abc", "", "0", "-64"} {
		if got, err := parseDense(in); err == nil {
			t.Errorf("parseDense(%q) = %v, want an error", in, got)
		}
	}
}

// TestOrdCell pins Table III's -attr.ord cell: a ratio for a plan with
// an attribute order, "-" for a scalar scan (Q1, Q6), whose worst-order
// run changes nothing and once printed run-to-run noise as a result.
func TestOrdCell(t *testing.T) {
	for _, tc := range []struct {
		dispatch string
		want     string
	}{
		{obs.DispatchScalarScan, "-"},
		{obs.DispatchWCOJ, "1.50x"},
		{obs.DispatchHybrid, "1.50x"},
	} {
		got := ordCell(tc.dispatch, 3*time.Millisecond, 2*time.Millisecond)
		if got != tc.want {
			t.Errorf("ordCell(%q) = %q, want %q", tc.dispatch, got, tc.want)
		}
	}
}
