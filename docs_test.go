package feedbackbypass_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameDeclaredTests keeps README.md, DESIGN.md and the verify
// skill from citing tests that no longer exist: every Test*, Benchmark*,
// Fuzz* or Example* name they quote (Example_x or ExampleX; the bare word
// "Example", as in "Example 1" of the paper, is no name) must be a
// top-level func in some _test.go file of the tree (bench/, its own
// module, included). Renaming or deleting a quoted test fails here until
// the docs follow.
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
	name := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	quoted := 0
	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
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
		t.Error("no test names found in the docs; is the pattern stale?")
	}
}

// TestDocsQuoteValidFigures keeps the documented fbbench figures real:
// every `-figure X` quoted in README.md, DESIGN.md or the verify skill —
// in a code block or an inline span, broken across lines or not — must
// name a figure fbbench accepts. The valid names are the list fbbench
// itself prints for an unknown -figure.
func TestDocsQuoteValidFigures(t *testing.T) {
	out, _ := exec.Command(fbbenchBinary(t), "-figure", "nope").CombinedOutput()
	m := regexp.MustCompile(`valid: (.+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("fbbench printed no list of valid figures:\n%s", out)
	}
	valid := strings.Split(strings.TrimSpace(string(m[1])), ", ")
	figure := regexp.MustCompile(`(?:^|\s)--?figure[ =]+([^\s,;)]+)`)
	quoted := 0
	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		for _, code := range quotedCode(t, doc) {
			for _, f := range figure.FindAllStringSubmatch(code, -1) {
				quoted++
				if !slices.Contains(valid, f[1]) {
					t.Errorf("%s quotes -figure %s, which fbbench rejects (valid: %s)", doc, f[1], strings.Join(valid, ", "))
				}
			}
		}
	}
	if quoted == 0 {
		t.Error("no -figure quotes found; is the pattern stale?")
	}
}

// TestDocsQuoteDeclaredFlags keeps the documented command lines runnable:
// every -flag after `fbserve`, `fbbench`, `fbdemo`, `fbtree` or `run.sh`
// on a command line quoted in README.md, DESIGN.md, the verify skill or
// bench/README.md must be declared by a flag.<Kind>("name", …) or
// flag.Func("name", …) call in that command's main.go. bench/run.sh hands
// every argument to bench/main.go, which is read and not built here.
func TestDocsQuoteDeclaredFlags(t *testing.T) {
	mains := map[string]string{"run.sh": filepath.Join("bench", "main.go")}
	for _, cmd := range []string{"fbbench", "fbserve", "fbdemo", "fbtree"} {
		mains[cmd] = filepath.Join("cmd", cmd, "main.go")
	}
	declared := map[string][]string{}
	for cmd, main := range mains {
		declared[cmd] = declaredFlags(t, main)
	}
	flagTok := regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	quoted := 0
	docs := []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md"), filepath.Join("bench", "README.md")}
	for _, doc := range docs {
		for _, code := range quotedCode(t, doc) {
			for _, line := range strings.Split(code, "\n") {
				fields := strings.Fields(line)
				// The command is the last token naming one, so that
				// `go build -o bin/fbserve ./cmd/fbserve` quotes no flag.
				at, cmd := -1, ""
				for i, f := range fields {
					if b := path.Base(f); mains[b] != "" {
						at, cmd = i, b
					}
				}
				if at < 0 {
					continue
				}
				for _, f := range fields[at+1:] {
					if strings.ContainsAny(f[:1], "|&;>#") {
						break // the rest of the line is another command or a comment
					}
					if m := flagTok.FindStringSubmatch(f); m != nil {
						quoted++
						if !slices.Contains(declared[cmd], m[1]) {
							t.Errorf("%s quotes `%s -%s`, which %s does not declare", doc, cmd, m[1], mains[cmd])
						}
					}
				}
			}
		}
	}
	if quoted == 0 {
		t.Error("no command flags found; is the pattern stale?")
	}
}

// declaredFlags returns the flag names a command's main.go declares with
// flag.<Kind>("name", …) or flag.Func("name", …).
func declaredFlags(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s declares no flags; is the parser stale?", file)
	}
	return names
}

// quotedCode returns the code a Markdown file quotes: each fenced block,
// with backslash-continued lines joined, and each inline backtick span of
// a paragraph, with a span that breaks across lines joined onto one.
func quotedCode(t *testing.T, doc string) []string {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var code []string
	var prose, block strings.Builder
	fenced := false
	for _, line := range strings.Split(string(text), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			if fenced {
				code = append(code, strings.ReplaceAll(block.String(), "\\\n", " "))
				block.Reset()
			}
			fenced = !fenced
		case fenced:
			block.WriteString(line + "\n")
		default:
			prose.WriteString(line + "\n")
		}
	}
	for _, para := range strings.Split(prose.String(), "\n\n") {
		spans := strings.Split(para, "`")
		for i := 1; i < len(spans)-1; i += 2 {
			code = append(code, strings.ReplaceAll(spans[i], "\n", " "))
		}
	}
	return code
}
