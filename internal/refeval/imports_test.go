package refeval

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyDifftestImportsRefeval keeps production code off the
// reference evaluator: an oracle the engine itself calls would agree
// with the engine by construction. Outside tests, only the differential
// harness (internal/difftest) may import this package.
func TestOnlyDifftestImportsRefeval(t *testing.T) {
	const self = "repro/internal/refeval"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		if dir := filepath.ToSlash(dir); dir == "internal/refeval" || dir == "internal/difftest" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			// The parser only accepts well-formed path literals.
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s; only internal/difftest and tests may", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
