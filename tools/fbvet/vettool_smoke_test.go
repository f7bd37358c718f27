// Smoke tests proving fbvet integrates with the standard toolchain:
// the binary is built for real and driven through `go vet -vettool`
// against a scratch module, exactly as CI and developers run it.
//
// The scratch module deliberately re-introduces the two regressions the
// acceptance gate names — a direct os.Rename in an internal/persist
// package and a math.FMA call in an internal/vec package — and asserts
// the build fails with the right diagnostics; a clean module must pass.
package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildFbvet compiles the fbvet binary into a temp dir and returns its
// absolute path.
func buildFbvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fbvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building fbvet: %v\n%s", err, out)
	}
	return bin
}

// scratchModule writes a throwaway module with the given files and
// returns its root.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module smoke\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runVet(t *testing.T, vettool, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+vettool, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestVettoolRejectsReintroducedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go toolchain")
	}
	bin := buildFbvet(t)
	dir := scratchModule(t, map[string]string{
		"internal/persist/bad.go": `package persist

import "os"

func Commit(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}
`,
		"internal/vec/bad.go": `package vec

import "math"

func Dot(a, b, acc float64) float64 {
	return math.FMA(a, b, acc)
}
`,
	})
	out, err := runVet(t, bin, dir)
	if err == nil {
		t.Fatalf("go vet passed over a seam bypass and an FMA call; output:\n%s", out)
	}
	if !strings.Contains(out, "bypasses the persist.FS seam") {
		t.Errorf("missing fsseam diagnostic in output:\n%s", out)
	}
	if !strings.Contains(out, "math.FMA is forbidden") {
		t.Errorf("missing kernelpurity diagnostic in output:\n%s", out)
	}
}

func TestVettoolPassesCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go toolchain")
	}
	bin := buildFbvet(t)
	dir := scratchModule(t, map[string]string{
		"internal/persist/good.go": `package persist

type FS interface {
	Rename(oldpath, newpath string) error
}

func Commit(fs FS, oldpath, newpath string) error {
	return fs.Rename(oldpath, newpath)
}
`,
	})
	if out, err := runVet(t, bin, dir); err != nil {
		t.Fatalf("go vet failed on a clean module: %v\n%s", err, out)
	}
}

// TestVettoolWaiversHonored proves the waiver survives the toolchain
// round-trip, not just the in-process harness.
func TestVettoolWaiversHonored(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes the go toolchain")
	}
	bin := buildFbvet(t)
	dir := scratchModule(t, map[string]string{
		"internal/persist/waived.go": `package persist

import "os"

func Sweep(path string) error {
	return os.Remove(path) //fbvet:ok smoke: deliberate bypass under test
}

func Drop(f *os.File) {
	f.Close() //fbvet:ok smoke: deliberate discard under test
}
`,
	})
	if out, err := runVet(t, bin, dir); err != nil {
		t.Fatalf("go vet flagged waivered lines: %v\n%s", err, out)
	}
}

// TestPlainVetOwnsUpstreamPasses pins the reason fbvet bundles no
// general-purpose pass: copylocks and lostcancel are in the default set
// of plain `go vet`, the CI step before fbvet, so a forked RWMutex or a
// dropped cancel func still fails the build without this tool.
func TestPlainVetOwnsUpstreamPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain")
	}
	dir := scratchModule(t, map[string]string{
		"internal/service/bad.go": `package service

import (
	"context"
	"sync"
)

type Cache struct {
	mu sync.RWMutex
	n  int
}

func Fork(c *Cache) int {
	d := *c
	return d.n
}

func Leak(ctx context.Context) context.Context {
	ctx, _ = context.WithCancel(ctx)
	return ctx
}
`,
	})
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("plain go vet passed over a copied lock and a lost cancel; output:\n%s", out)
	}
	if !strings.Contains(string(out), "assignment copies lock value") {
		t.Errorf("missing copylocks diagnostic in output:\n%s", out)
	}
	if !strings.Contains(string(out), "cancel function returned by context.WithCancel should be called") {
		t.Errorf("missing lostcancel diagnostic in output:\n%s", out)
	}
}
