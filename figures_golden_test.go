package feedbackbypass_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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
// hold the SSE2 kernels to the same file; -update rewrites it.
func TestPaperFiguresGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fbbench")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/fbbench").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/fbbench: %v\n%s", err, out)
	}
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
