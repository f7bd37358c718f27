package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// The handler and assembly tests live in internal/httpapi; what stays
// here is what only the built binary can show: flags reaching the
// assembly, SIGTERM draining and compacting, and a second process
// recovering what the first one learned.

// buildBinary compiles cmd/fbserve once per test into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fbserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// process is one running fbserve child with its captured log.
type process struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer
}

// start execs the binary on a free loopback port and waits until
// /healthz answers 200: the server listens once the module is open.
func start(t *testing.T, bin string, args ...string) *process {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	p := &process{base: "http://" + addr}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = &p.log, &p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.cmd.Process.Kill(); _ = p.cmd.Wait() })
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(p.base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return p
		}
	}
	t.Fatalf("fbserve did not become healthy:\n%s", p.log.String())
	return nil
}

// terminate sends SIGTERM and requires a clean exit.
func (p *process) terminate(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("fbserve exit after SIGTERM: %v\n%s", err, p.log.String())
	}
}

func (p *process) call(t *testing.T, method, path string, body, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, p.base+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
}

type treeStats struct {
	Collections map[string]struct {
		Tree struct {
			Points int
		} `json:"tree"`
		Journaled int `json:"journaled"`
	} `json:"collections"`
}

// get fetches url, requires the given status and returns the body.
func get(t *testing.T, url string, status int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != status {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, status)
	}
	return body
}

// TestBinaryDurableRestart is the default durable deployment end to end
// on the real binary: `-dir D` renders the collection into
// D/collection.fbmx and serves query → feedback → close sessions (each
// feedback round counted on the wire, /stats and /metrics agreeing on
// the sessions, pprof off without its flag), SIGTERM drains and
// compacts the WAL into its census, and a second process on the same
// directory maps the collection file instead of rendering, serves the
// same labels and recovers the learned points with nothing left to
// replay; a directory holding a sharded module's MANIFEST stops
// start-up with an error naming it.
func TestBinaryDurableRestart(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	args := []string{"-scale", "0.03", "-seed", "5", "-k", "8", "-dir", dir}
	p := start(t, bin, args...)

	var health struct {
		Status string `json:"status"`
		Server struct {
			UptimeSeconds *float64 `json:"uptime_seconds"`
		} `json:"server"`
	}
	p.call(t, http.MethodGet, "/healthz", nil, &health)
	if health.Status != "ok" || health.Server.UptimeSeconds == nil || *health.Server.UptimeSeconds < 0 {
		t.Fatalf("/healthz: status %q, uptime %v", health.Status, health.Server.UptimeSeconds)
	}

	type state struct {
		Session uint64 `json:"session"`
		Results []struct {
			Index    int    `json:"index"`
			Category string `json:"category"`
			Theme    string `json:"theme"`
		} `json:"results"`
		Iterations int  `json:"iterations"`
		Converged  bool `json:"converged"`
	}
	var stats treeStats
	labels := map[int][2]string{} // result index → (category, theme) as the first process served it
	item := 0
	for ; ; item++ {
		if item == 32 {
			t.Fatal("no session's outcome was stored")
		}
		var st state
		p.call(t, http.MethodPost, "/query", map[string]any{"item": item}, &st)
		category := ""
		for _, r := range st.Results {
			if r.Index == item {
				category = r.Category
			}
			labels[r.Index] = [2]string{r.Category, r.Theme}
		}
		for rounds := 1; !st.Converged; rounds++ {
			scores := make([]float64, len(st.Results))
			for i, r := range st.Results {
				if r.Category == category {
					scores[i] = 1
				}
			}
			p.call(t, http.MethodPost, "/feedback", map[string]any{"session": st.Session, "scores": scores}, &st)
			if st.Iterations != rounds {
				t.Fatalf("/feedback round %d of item %d: %d iterations", rounds, item, st.Iterations)
			}
		}
		var closed struct {
			Session uint64 `json:"session"`
		}
		p.call(t, http.MethodPost, "/close", map[string]any{"session": st.Session}, &closed)
		if closed.Session != st.Session {
			t.Fatalf("/close answered session %d, want %d", closed.Session, st.Session)
		}
		p.call(t, http.MethodGet, "/stats", nil, &stats)
		if stats.Collections["default"].Tree.Points > 0 {
			break
		}
	}
	learned := stats.Collections["default"].Tree.Points
	sessions := item + 1

	var served struct {
		Server struct {
			PID       int    `json:"pid"`
			GoVersion string `json:"go_version"`
		} `json:"server"`
		Collections map[string]struct {
			Opened int `json:"opened"`
			Closed int `json:"closed"`
		} `json:"collections"`
	}
	p.call(t, http.MethodGet, "/stats", nil, &served)
	if c := served.Collections["default"]; c.Opened != sessions || c.Closed != sessions {
		t.Fatalf("/stats default collection: %+v, want %d sessions opened and closed", c, sessions)
	}
	if served.Server.PID <= 0 || served.Server.GoVersion == "" {
		t.Fatalf("/stats server block: %+v", served.Server)
	}
	metrics := string(get(t, p.base+"/metrics", http.StatusOK))
	for _, want := range []string{
		"# TYPE fb_service_request_seconds histogram",
		fmt.Sprintf(`fb_service_requests_total{collection="default",op="open",outcome="ok"} %d`+"\n", sessions),
		fmt.Sprintf(`fb_service_requests_total{collection="default",op="close",outcome="ok"} %d`+"\n", sessions),
		"fb_process_goroutines",
		"fb_process_start_time_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if !regexp.MustCompile(`fb_wal_append_seconds_count\{collection="default"\} [1-9]`).MatchString(metrics) {
		t.Error("/metrics has no WAL append")
	}
	if want := fmt.Sprintf(`fb_tree_points{collection="default"} %d`+"\n", learned); !strings.Contains(metrics, want) {
		t.Errorf("/metrics lacks %q", want)
	}
	get(t, p.base+"/debug/pprof/", http.StatusNotFound)

	p.terminate(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"collection.fbmx", core.JournalFile}; !slices.Equal(names, want) {
		t.Fatalf("shutdown left %v, want %v\n%s", names, want, p.log.String())
	}

	if first := p.log.String(); !strings.Contains(first, "rendering synth:scale=0.03,seed=5") {
		t.Fatalf("first start did not render the collection:\n%s", first)
	}

	p2 := start(t, bin, args...)
	var st state
	p2.call(t, http.MethodPost, "/query", map[string]any{"item": 0}, &st)
	same := 0
	for _, r := range st.Results {
		if want, ok := labels[r.Index]; ok {
			if got := [2]string{r.Category, r.Theme}; got != want {
				t.Fatalf("restart labels item %d %q, the first process %q", r.Index, got, want)
			}
			same++
		}
	}
	if same == 0 {
		t.Fatal("the restart's results share no item with the first process's")
	}
	p2.call(t, http.MethodGet, "/stats", nil, &stats)
	if c := stats.Collections["default"]; c.Tree.Points != learned || c.Journaled != 0 {
		t.Fatalf("/stats after restart: %+v, want %d points and an empty journal", c, learned)
	}
	p2.terminate(t)
	second := p2.log.String()
	for _, want := range []string{"from mmap backend", filepath.Join(dir, "collection.fbmx") + " holds synth:scale=0.03,seed=5: mapped, not rendered"} {
		if !strings.Contains(second, want) {
			t.Fatalf("restart log lacks %q:\n%s", want, second)
		}
	}
	if strings.Contains(second, "rendering") {
		t.Fatalf("the restart rendered the collection:\n%s", second)
	}

	// A wrongly accepted open would serve forever; the deadline reaps it.
	manifest := filepath.Join(dir, "MANIFEST")
	if err := os.WriteFile(manifest, []byte("FBMN"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0")...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), manifest) {
		t.Fatalf("a directory holding %s: err = %v, want a refusal naming it\n%s", manifest, err, out)
	}
}

// TestBinaryServesExportedFBMX: -export-fbmx path writes a synth:
// collection as an FBMX file labelled with its canonical spec. Served
// with -collection path.fbmx -dir, the file backs a learning session;
// SIGTERM compacts, and a restart on the same directory reports the mmap
// backend and the learned points. The same file placed in a fresh -dir as
// collection.fbmx is mapped by a start naming the collection in another
// spelling, not rendered again.
func TestBinaryServesExportedFBMX(t *testing.T) {
	bin := buildBinary(t)
	tmp := t.TempDir()
	export := filepath.Join(tmp, "birds.fbmx")
	if out, err := exec.Command(bin, "-collection", "synth:scale=0.05", "-seed", "5", "-export-fbmx", export).CombinedOutput(); err != nil {
		t.Fatalf("-export-fbmx: %v\n%s", err, out)
	}
	dir := filepath.Join(tmp, "state")
	args := []string{"-k", "5", "-collection", export, "-dir", dir}
	p := start(t, bin, args...)

	type state struct {
		Session uint64 `json:"session"`
		Results []struct {
			Category string `json:"category"`
		} `json:"results"`
		Converged bool `json:"converged"`
	}
	var stats struct {
		Collections map[string]struct {
			Collection struct {
				Backend string `json:"backend"`
			} `json:"collection"`
			Tree struct {
				Points int
			} `json:"tree"`
			Journaled int `json:"journaled"`
		} `json:"collections"`
	}
	for item := 0; stats.Collections["default"].Tree.Points == 0; item++ {
		if item == 32 {
			t.Fatal("no session's outcome was stored")
		}
		var st state
		p.call(t, http.MethodPost, "/query", map[string]any{"item": item}, &st)
		if len(st.Results) == 0 || st.Results[0].Category == "" {
			t.Fatalf("/query: %+v, want results with the file's categories", st)
		}
		category := st.Results[0].Category
		for !st.Converged {
			scores := make([]float64, len(st.Results))
			for i, r := range st.Results {
				if r.Category == category {
					scores[i] = 1
				}
			}
			p.call(t, http.MethodPost, "/feedback", map[string]any{"session": st.Session, "scores": scores}, &st)
		}
		var closed struct {
			Session uint64 `json:"session"`
		}
		p.call(t, http.MethodPost, "/close", map[string]any{"session": st.Session}, &closed)
		p.call(t, http.MethodGet, "/stats", nil, &stats)
	}
	learned := stats.Collections["default"].Tree.Points
	p.terminate(t)
	if _, err := os.Stat(filepath.Join(dir, "collection.fbmx")); !os.IsNotExist(err) {
		t.Fatalf("an FBMX collection was kept in -dir (stat err = %v)", err)
	}

	p2 := start(t, bin, args...)
	p2.call(t, http.MethodGet, "/stats", nil, &stats)
	if c := stats.Collections["default"]; c.Collection.Backend != "mmap" || c.Tree.Points != learned || c.Journaled != 0 {
		t.Fatalf("/stats after restart: %+v, want the mmap backend, %d points and an empty journal", c, learned)
	}
	p2.terminate(t)

	kept := filepath.Join(tmp, "kept")
	if err := os.Mkdir(kept, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(kept, "collection.fbmx"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	p3 := start(t, bin, "-scale", "0.05", "-seed", "5", "-dir", kept)
	p3.terminate(t)
	if log := p3.log.String(); !strings.Contains(log, "holds synth:scale=0.05,seed=5: mapped, not rendered") || strings.Contains(log, "rendering") {
		t.Fatalf("the exported file placed in -dir was not mapped:\n%s", log)
	}
}

// TestBinaryRefusesBadFlags: a negative timeout, which net/http would
// read as none, a scale that is not finite and > 0, and a scale whose
// collection outgrows the feature matrix each stop start-up with a
// message naming the flag or the spec, before anything listens. A
// wrongly accepted start would serve forever; the deadline reaps it.
func TestBinaryRefusesBadFlags(t *testing.T) {
	bin := buildBinary(t)
	for _, c := range []struct{ flag, value, want string }{
		{"-read-header-timeout", "-1s", "-read-header-timeout"},
		{"-read-timeout", "-1ms", "-read-timeout"},
		{"-write-timeout", "-5s", "-write-timeout"},
		{"-idle-timeout", "-1m", "-idle-timeout"},
		{"-request-timeout", "-1ns", "-request-timeout"},
		{"-scale", "NaN", "synth:scale=NaN"},
		{"-scale", "+Inf", "synth:scale=+Inf"},
		{"-scale", "0", "synth:scale=0"},
		{"-scale", "-3", "synth:scale=-3"},
		{"-collection", "synth:scale=NaN", "synth:scale=NaN"},
		{"-collection", "synth:scale=0.01,scale=0.02", "synth:scale=0.01,scale=0.02"},
		{"-scale", "1e9", "rows exceed"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-scale", "0.01", c.flag, c.value).CombinedOutput()
		cancel()
		if err == nil || !strings.Contains(string(out), c.want) || strings.Contains(string(out), "panic") {
			t.Errorf("fbserve %s %s: err = %v, want a refusal naming %q\n%s", c.flag, c.value, err, c.want, out)
		}
	}
}
