// Command fbvet is the repository's invariant-enforcement plane: the
// five repo-native analyzers (fsseam, kernelpurity, sentinelwrap,
// lockdiscipline, errgate) behind the `go vet -vettool` protocol,
// written against the standard library only.
//
// It runs two ways:
//
//	go run ./tools/fbvet ./...          # standalone over package patterns
//	go vet -vettool=$(which fbvet) ./... # as a standard vet tool
//
// Both are the same binary: invoked with plain package patterns it
// re-executes itself through `go vet -vettool`, so the standard
// toolchain (package loading, build tags, test variants, the build and
// vet caches) does the driving either way, and CI exercises exactly
// the integration developers use locally.
//
// The protocol is three invocations: `-V=full` (a line ending in a
// content hash of the executable, which keys the vet cache), `-flags`
// (the JSON list of flags go vet may forward — none), and `<unit>.cfg`
// (one package: its files, and the compiler's export data for every
// import). fbvet keeps no cross-package facts, so dependency-only units
// (VetxOnly — the standard library among them) return at once.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/tools/fbvet/analyzers"
	"repro/tools/fbvet/internal/analysis"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		exe, err := os.ReadFile(must(os.Executable()))
		fmt.Printf("fbvet version devel buildID=%x\n", sha256.Sum256(must(exe, err)))
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(vetUnit(args[0]))
	case len(args) == 1 && args[0] == "help":
		for _, a := range analyzers.All() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
	default: // package patterns, with any go vet build flags before them
		os.Exit(standalone(args))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fbvet: %v\n", err)
		os.Exit(2)
	}
	return v
}

// unit is the part of go vet's per-package JSON config fbvet reads.
type unit struct {
	Compiler    string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string // import path in source -> package path
	PackageFile map[string]string // package path -> export data file
	VetxOnly    bool              // a dependency, vetted for facts only
	VetxOutput  string            // where go vet expects the facts

	SucceedOnTypecheckFailure bool // the compiler reports it instead
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// vetUnit analyzes the package described by cfgFile, prints its
// diagnostics to stderr as go vet expects, and returns the exit code.
func vetUnit(cfgFile string) int {
	var cfg unit
	must(0, json.Unmarshal(must(os.ReadFile(cfgFile)), &cfg))
	if cfg.VetxOutput != "" {
		must(0, os.WriteFile(cfg.VetxOutput, nil, 0o666)) // no facts
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	exports := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			resolved, ok := cfg.ImportMap[path]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", path)
			}
			return exports.Import(resolved)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	diags, err := analysis.Check(conf, fset, cfg.ImportPath, cfg.GoFiles, analyzers.All()...)
	if err != nil && !cfg.SucceedOnTypecheckFailure {
		must(0, err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// standalone re-invokes this binary through `go vet -vettool` with the
// given arguments (default ./...) and returns the exit code.
func standalone(args []string) int {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + must(os.Executable())}, args...)...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	must(0, err)
	return 0
}
