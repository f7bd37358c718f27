package feedbackbypass_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameDeclaredTests keeps README.md and DESIGN.md from citing
// tests that no longer exist: every Test*, Benchmark* or Fuzz* name they
// quote must be a top-level func in some _test.go file of the tree
// (bench/, its own module, included). Renaming or deleting a quoted test
// fails here until the docs follow.
func TestDocsNameDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	quoted := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, n := range name.FindAllString(line, -1) {
				quoted++
				if !declared[n] {
					t.Errorf("%s:%d quotes %s, which no _test.go file declares", doc, i+1, n)
				}
			}
		}
	}
	if quoted == 0 {
		t.Error("no test names found in README.md or DESIGN.md; is the pattern stale?")
	}
}
