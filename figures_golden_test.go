package feedbackbypass_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures_golden.txt from the current fbbench output")

// figureTimings matches the two lines of fbbench's figure output that
// carry wall-clock time: the "(0.1s)" that ends the collection line and
// the "# total" line.
var figureTimings = regexp.MustCompile(`(?m)\(\d+\.\d+s\)$|^# total .*$`)

// TestPaperFiguresGolden pins every paper figure: `fbbench -figure all
// -scale 0.05 -queries 40 -k 8`, timings masked, must print
// testdata/figures_golden.txt byte for byte under GOMAXPROCS 1 and 4.
// Retrieval, feedback and the Simplex Tree all feed these series, so any
// change to a result list shows here. Run with GODEBUG=cpu.avx2=off to
// hold the portable Go kernels to the same file; -update rewrites it.
func TestPaperFiguresGolden(t *testing.T) {
	bin := fbbenchBinary(t)
	golden := filepath.Join("testdata", "figures_golden.txt")
	for _, procs := range []string{"1", "4"} {
		cmd := exec.Command(bin, "-figure", "all", "-scale", "0.05", "-queries", "40", "-k", "8")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s fbbench: %v", procs, err)
		}
		got := figureTimings.ReplaceAll(out, []byte("<time>"))
		if *update && procs == "1" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%s: figures differ from %s (rerun with -update only if the change is intended)\n%s", procs, golden, firstDiff(want, got))
		}
	}
}

// TestFbbenchRejectsBadInvocations holds fbbench to exit status 2, before
// any work, for an unknown -figure (including the removed serving,
// retrieval, tree and chaos figures) and for -save with a figure that
// trains no shared session — which must not create the file.
func TestFbbenchRejectsBadInvocations(t *testing.T) {
	bin := fbbenchBinary(t)
	saved := filepath.Join(t.TempDir(), "t.fbwl")
	for _, args := range [][]string{
		{"-figure", "nope"},
		{"-figure", "serve"},
		{"-figure", "shard"},
		{"-figure", "store"},
		{"-figure", "soak"},
		{"-figure", "knn"},
		{"-figure", "tree"},
		{"-figure", "chaos"},
		{"-figure", "lifecycle", "-save", saved},
		{"-figure", "12", "-save", saved},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("fbbench %v: err %v, want exit status 2\n%s", args, err, out)
		}
	}
	if _, err := os.Stat(saved); !os.IsNotExist(err) {
		t.Errorf("a rejected -save touched %s: %v", saved, err)
	}
}

var (
	fbbenchOnce sync.Once
	fbbenchBin  string
	fbbenchErr  error
)

// TestMain removes the shared fbbench build once every test has run.
func TestMain(m *testing.M) {
	code := m.Run()
	if fbbenchBin != "" {
		os.RemoveAll(filepath.Dir(fbbenchBin))
	}
	os.Exit(code)
}

// fbbenchBinary builds cmd/fbbench once per test binary run and returns
// its path; every test that execs fbbench shares the build.
func fbbenchBinary(t *testing.T) string {
	t.Helper()
	fbbenchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fbbench-test-")
		if err != nil {
			fbbenchErr = err
			return
		}
		fbbenchBin = filepath.Join(dir, "fbbench")
		if out, err := exec.Command("go", "build", "-o", fbbenchBin, "./cmd/fbbench").CombinedOutput(); err != nil {
			fbbenchErr = fmt.Errorf("go build ./cmd/fbbench: %v\n%s", err, out)
		}
	})
	if fbbenchErr != nil {
		t.Fatal(fbbenchErr)
	}
	return fbbenchBin
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return "line " + strconv.Itoa(i+1) + ":\n  want " + string(w) + "\n  got  " + string(g)
		}
	}
	return "lengths differ"
}
