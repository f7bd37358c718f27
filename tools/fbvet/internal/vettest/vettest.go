// Package vettest is the fixture harness for the fbvet analyzers,
// honoring the `// want "regexp"` convention of x/tools' analysistest:
// it type-checks a fixture directory as one package against the
// standard library via the source importer, runs the analyzer, and
// diffs reported diagnostics against the fixture's expectations line by
// line.
//
// Expectation syntax: a comment `// want "rx"` (one or more Go-quoted
// or backquoted regexps) expects, on its own line, one diagnostic
// matching each regexp. Diagnostics on lines with no matching
// expectation, and expectations left unmatched, fail the test.
package vettest

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/tools/fbvet/internal/analysis"
)

// Pkg names one fixture package: the directory holding its .go files
// and the import path to type-check it under. Analyzers gate on package
// paths, so fixtures pick paths like "fixture/internal/persist" to land
// inside (or outside) an analyzer's scope.
type Pkg struct {
	Dir  string
	Path string
}

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var (
	wantRe   = regexp.MustCompile(`// want (.*)$`)
	quotedRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

// Run loads the fixture package, applies the analyzer, and reports any
// mismatch between diagnostics and `// want` expectations on t.
func Run(t *testing.T, a *analysis.Analyzer, pkg Pkg) {
	t.Helper()

	filenames, err := filepath.Glob(filepath.Join(pkg.Dir, "*.go"))
	if err != nil || len(filenames) == 0 {
		t.Fatalf("no fixture files in %s (%v)", pkg.Dir, err)
	}
	var wants []*expectation
	for _, name := range filenames {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			for _, q := range quotedRe.FindAllString(m[1], -1) {
				pattern, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", name, i+1, q, err)
				}
				wants = append(wants, &expectation{file: name, line: i + 1, rx: regexp.MustCompile(pattern)})
			}
		}
	}

	fset := token.NewFileSet()
	conf := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	diags, err := analysis.Check(conf, fset, pkg.Path, filenames, a)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}

diags:
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched = true
				continue diags
			}
		}
		t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}
