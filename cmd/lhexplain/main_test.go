package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestAnalyzeQ3 runs `lhexplain -analyze q3`: the block reports the
// semijoin reduction of lineitem and the trie counters.
func TestAnalyzeQ3(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-analyze", "q3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, re := range []string{
		`(?m)^=== q3$`,
		`(?m)^semijoin: lineitem sel=\d+ reduced=\d+$`,
		`(?m)^tries: built=\d+ derived=\d+ cache hit=\d+ miss=\d+$`,
	} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("output lacks %s:\n%s", re, out)
		}
	}
}

// TestRejectsUnknownQuery: a name outside the TPC-H set is an error,
// reported before any data is generated.
func TestRejectsUnknownQuery(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"q99"}, &b); err == nil || !strings.Contains(err.Error(), "q99") {
		t.Fatalf("err = %v, want an unknown-query error", err)
	}
}
