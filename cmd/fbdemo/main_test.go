package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFbdemoSmoke builds fbdemo and runs it on a small collection: it
// must exit 0 and print the side-by-side header, one row per result
// (-n) and the relevant-count line. An unknown -category must make it
// exit non-zero.
func TestFbdemoSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fbdemo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-scale", "0.02", "-queries", "4", "-k", "5", "-n", "3"}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("fbdemo %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	text := string(out)
	if !strings.Contains(text, "Default results                    | FeedbackBypass results\n") {
		t.Errorf("no results header:\n%s", text)
	}
	row := regexp.MustCompile(`(?m)^[ *] #\d+ .* d=\d\.\d{3} \| [ *] #\d+ .* d=\d\.\d{3}$`)
	if rows := row.FindAllString(text, -1); len(rows) != 3 {
		t.Errorf("%d result rows, want 3 (-n 3):\n%s", len(rows), text)
	}
	if !regexp.MustCompile(`(?m)^relevant \(\*\) in top 3: default \d+, FeedbackBypass \d+$`).MatchString(text) {
		t.Errorf("no relevant-count line:\n%s", text)
	}

	out, err = exec.Command(bin, append(args, "-category", "Nope")...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), fmt.Sprintf("category %q has no items", "Nope")) {
		t.Fatalf("fbdemo -category Nope: err = %v, want a non-zero exit naming the category\n%s", err, out)
	}
}
