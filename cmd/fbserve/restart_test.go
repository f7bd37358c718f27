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
// /healthz answers 200 (503 while a shard replays is waited out).
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

type shardStats struct {
	Collections map[string]struct {
		Shards []struct {
			Points    int `json:"points"`
			Journaled int `json:"journaled"`
		} `json:"shards"`
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
// compacts every WAL into its snapshot, and a second process on the
// same directory maps the collection file instead of rendering, serves
// the same labels and recovers the learned points with nothing left to
// replay; reopening with another -shards is refused at start-up.
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
	var stats shardStats
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
		if shards := stats.Collections["default"].Shards; len(shards) != 1 {
			t.Fatalf("/stats shards of a default -shards 1 collection: %+v", shards)
		} else if shards[0].Points > 0 {
			break
		}
	}
	learned := stats.Collections["default"].Shards[0].Points
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
	if !regexp.MustCompile(`fb_wal_append_seconds_count\{collection="default",shard="0"\} [1-9]`).MatchString(metrics) {
		t.Error("/metrics has no WAL append on shard 0")
	}
	get(t, p.base+"/debug/pprof/", http.StatusNotFound)

	p.terminate(t)
	if entries, err := os.ReadDir(filepath.Join(dir, "shard-000")); err != nil || len(entries) != 1 || entries[0].Name() != core.JournalFile {
		t.Fatalf("shutdown left shard-000 holding %v (%v), want %s alone\n%s", entries, err, core.JournalFile, p.log.String())
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
	if shards := stats.Collections["default"].Shards; len(shards) != 1 || shards[0].Points != learned || shards[0].Journaled != 0 {
		t.Fatalf("/stats shards after restart: %+v, want one shard with %d points and an empty journal", shards, learned)
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0", "-shards", "4")...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "has 1 shards, asked for 4") {
		t.Fatalf("-shards 4 on a 1-shard directory: err = %v, want the manifest refusal\n%s", err, out)
	}
}

// TestBinaryShardedRound is one query → feedback → close round against a
// 4-shard durable module on the real binary: /healthz goes ready, the
// directory gets its manifest and four shard directories, /stats exposes
// four per-shard counter blocks with the closed session's insert in
// exactly one of them, /metrics labels the per-shard gauges and insert
// histograms by shard, and SIGTERM drains. Reopening the directory with
// -shards 2 or with the default -shards 1 is then refused at start-up.
func TestBinaryShardedRound(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	p := start(t, bin, "-scale", "0.05", "-k", "5", "-dir", dir, "-shards", "4")

	var health struct {
		Status string `json:"status"`
	}
	p.call(t, http.MethodGet, "/healthz", nil, &health)
	if health.Status != "ok" {
		t.Fatalf("/healthz status %q", health.Status)
	}
	for _, name := range []string{"MANIFEST", "shard-003"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	var st struct {
		Session    uint64 `json:"session"`
		Iterations int    `json:"iterations"`
	}
	p.call(t, http.MethodPost, "/query", map[string]any{"item": 0, "k": 5}, &st)
	p.call(t, http.MethodPost, "/feedback", map[string]any{"session": st.Session, "scores": []float64{1, 0, 1, 0, 0}}, &st)
	if st.Iterations != 1 {
		t.Fatalf("/feedback: %d iterations, want 1", st.Iterations)
	}
	var closed struct {
		Session uint64 `json:"session"`
	}
	p.call(t, http.MethodPost, "/close", map[string]any{"session": st.Session}, &closed)
	if closed.Session != st.Session {
		t.Fatalf("/close answered session %d, want %d", closed.Session, st.Session)
	}

	var stats struct {
		Collections map[string]struct {
			Shards []struct {
				Inserts int64 `json:"inserts"`
			} `json:"shards"`
		} `json:"collections"`
	}
	p.call(t, http.MethodGet, "/stats", nil, &stats)
	shards := stats.Collections["default"].Shards
	if len(shards) != 4 {
		t.Fatalf("/stats has %d shard blocks, want 4", len(shards))
	}
	// At least one insert, and all of them in one shard.
	var sum, most int64
	for _, s := range shards {
		sum += s.Inserts
		most = max(most, s.Inserts)
	}
	if sum < 1 || sum != most {
		t.Fatalf("/stats shard inserts %+v: want at least one, all in one shard", shards)
	}
	metrics := string(get(t, p.base+"/metrics", http.StatusOK))
	for _, want := range []string{`fb_tree_points{collection="default",shard="0"}`, `fb_tree_points{collection="default",shard="3"}`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if !regexp.MustCompile(`fb_shard_insert_seconds_count\{collection="default",shard="[0-3]"\} [1-9]`).MatchString(metrics) {
		t.Error("/metrics counts no shard insert")
	}
	p.terminate(t)

	// A wrongly accepted open would serve forever; the deadline reaps it,
	// and that counts as acceptance, not refusal.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "2"}, "has 4 shards, asked for 2"},
		{nil, "has 4 shards, asked for 1"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		args := append([]string{"-addr", "127.0.0.1:0", "-scale", "0.05", "-dir", dir}, c.args...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if err == nil || timedOut || !strings.Contains(string(out), c.want) {
			t.Fatalf("fbserve %v on a 4-shard directory: err = %v (timed out %v), want the manifest refusal %q\n%s", c.args, err, timedOut, c.want, out)
		}
	}
}

// TestBinaryTwoCollections serves two named collections from one
// process: a synthetic one, which -dir keeps as birds/collection.fbmx,
// and its -export-fbmx file, with an IVF tier in front of the export
// only. Sessions run through the scoped /c/<name>/ routes, an unknown
// collection is a 404, /stats keeps both collections' counters apart and
// mmap-resident, and SIGTERM drains.
func TestBinaryTwoCollections(t *testing.T) {
	bin := buildBinary(t)
	tmp := t.TempDir()
	export := filepath.Join(tmp, "birds.fbmx")
	birds := "birds=synth:scale=0.05,seed=5"
	if out, err := exec.Command(bin, "-collection", birds, "-export-fbmx", "birds="+export).CombinedOutput(); err != nil {
		t.Fatalf("-export-fbmx: %v\n%s", err, out)
	}
	if _, err := os.Stat(export); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "multi")
	p := start(t, bin, "-k", "5", "-collection", birds, "-collection", "photos="+export,
		"-ann", "photos:nlist=16,nprobe=4", "-dir", dir)

	var health struct {
		Status      string `json:"status"`
		Collections int    `json:"collections"`
	}
	p.call(t, http.MethodGet, "/healthz", nil, &health)
	if health.Status != "ok" || health.Collections != 2 {
		t.Fatalf("/healthz: %+v, want ok with 2 collections", health)
	}
	if _, err := os.Stat(filepath.Join(dir, "birds", "collection.fbmx")); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "photos")); err != nil || !fi.IsDir() {
		t.Fatalf("photos directory: %v", err)
	}

	type state struct {
		Collection string `json:"collection"`
		Session    uint64 `json:"session"`
		Results    []struct {
			Category string `json:"category"`
		} `json:"results"`
		Iterations int `json:"iterations"`
	}
	var closed struct {
		Session uint64 `json:"session"`
	}
	var s1 state
	p.call(t, http.MethodPost, "/c/birds/query", map[string]any{"item": 0, "k": 5}, &s1)
	if s1.Collection != "birds" {
		t.Fatalf("/c/birds/query answered collection %q", s1.Collection)
	}
	p.call(t, http.MethodPost, "/c/birds/feedback", map[string]any{"session": s1.Session, "scores": []float64{1, 0, 1, 0, 0}}, &s1)
	if s1.Iterations != 1 {
		t.Fatalf("/c/birds/feedback: %d iterations, want 1", s1.Iterations)
	}
	p.call(t, http.MethodPost, "/c/birds/close", map[string]any{"session": s1.Session}, &closed)
	if closed.Session != s1.Session {
		t.Fatalf("/c/birds/close answered session %d, want %d", closed.Session, s1.Session)
	}

	// A read-only session against the export, whose file carries labels.
	var s2 state
	p.call(t, http.MethodPost, "/c/photos/query", map[string]any{"item": 0, "k": 5}, &s2)
	if s2.Collection != "photos" || len(s2.Results) == 0 || s2.Results[0].Category == "" {
		t.Fatalf("/c/photos/query: %+v, want photos results with a category", s2)
	}
	p.call(t, http.MethodPost, "/c/photos/close", map[string]any{"session": s2.Session}, &closed)
	if closed.Session != s2.Session {
		t.Fatalf("/c/photos/close answered session %d, want %d", closed.Session, s2.Session)
	}

	resp, err := http.Post(p.base+"/c/nope/query", "application/json", strings.NewReader(`{"item": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/c/nope/query: status %d, want 404", resp.StatusCode)
	}

	var stats struct {
		Collections map[string]struct {
			Collection struct {
				Backend string `json:"backend"`
				Index   string `json:"index"`
			} `json:"collection"`
			Retrieval string `json:"retrieval"`
			Feedbacks int    `json:"feedbacks"`
			Opened    int    `json:"opened"`
		} `json:"collections"`
	}
	p.call(t, http.MethodGet, "/stats", nil, &stats)
	b, ph := stats.Collections["birds"], stats.Collections["photos"]
	const ivf = "ivf(nlist=16,nprobe=4,quant=f32)"
	switch {
	case len(stats.Collections) != 2:
		t.Fatalf("/stats has %d collections, want 2", len(stats.Collections))
	case b.Collection.Backend != "mmap" || ph.Collection.Backend != "mmap":
		t.Fatalf("/stats backends birds %q, photos %q, want mmap", b.Collection.Backend, ph.Collection.Backend)
	case ph.Collection.Index != ivf || ph.Retrieval != ivf || b.Collection.Index != "":
		t.Fatalf("/stats index photos %q (retrieval %q), birds %q: want the IVF tier on photos only", ph.Collection.Index, ph.Retrieval, b.Collection.Index)
	case b.Feedbacks != 1 || ph.Feedbacks != 0 || b.Opened != 1 || ph.Opened != 1:
		t.Fatalf("/stats birds %+v, photos %+v: want one session each, the feedback round on birds only", b, ph)
	}
	p.terminate(t)
}
