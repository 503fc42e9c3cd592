package main

import (
	"go/parser"
	"go/token"
	"os"
	"runtime"
	"strings"
	"testing"
)

// The benchmark is one foreground process: it may not start children or
// open listeners.
func TestNoProcessOrNetworkImports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for file, f := range pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == "os/exec" || path == "net" || strings.HasPrefix(path, "net/") {
					t.Errorf("%s imports %s", file, path)
				}
			}
		}
	}
}

// A run must leave no goroutine and no directory behind. run reports a
// goroutine leak itself (rep.Correct); the count is checked again here.
func TestRunLeavesNothingBehind(t *testing.T) {
	root := t.TempDir()
	before := runtime.NumGoroutine()
	for _, trace := range []bool{false, true} {
		rep, err := run(config{workload: "ingest_mixed", seed: 1, rounds: 2, trace: trace, threads: 2, size: toySizes, tmpRoot: root})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Fatalf("run failed: %v", rep.errs)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines, %d before the runs", n, before)
	}
	left, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("%d entries left in the temp root, first %s", len(left), left[0].Name())
	}
}
