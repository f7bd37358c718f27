package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
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

// TestBinaryDurableRestart is the default durable deployment end to end
// on the real binary: `-dir D` serves learning sessions, SIGTERM drains
// and compacts every WAL into its snapshot, and a second process on the
// same directory recovers the learned points with nothing left to
// replay; reopening with another -shards is refused at start-up.
func TestBinaryDurableRestart(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()
	args := []string{"-scale", "0.03", "-seed", "5", "-k", "8", "-dir", dir}
	p := start(t, bin, args...)

	type state struct {
		Session uint64 `json:"session"`
		Results []struct {
			Index    int    `json:"index"`
			Category string `json:"category"`
		} `json:"results"`
		Converged bool `json:"converged"`
	}
	var stats shardStats
	for item := 0; ; item++ {
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
		}
		for !st.Converged {
			scores := make([]float64, len(st.Results))
			for i, r := range st.Results {
				if r.Category == category {
					scores[i] = 1
				}
			}
			p.call(t, http.MethodPost, "/feedback", map[string]any{"session": st.Session, "scores": scores}, &st)
		}
		p.call(t, http.MethodPost, "/close", map[string]any{"session": st.Session}, &struct{}{})
		p.call(t, http.MethodGet, "/stats", nil, &stats)
		if shards := stats.Collections["default"].Shards; len(shards) != 1 {
			t.Fatalf("/stats shards of a default -shards 1 collection: %+v", shards)
		} else if shards[0].Points > 0 {
			break
		}
	}
	learned := stats.Collections["default"].Shards[0].Points

	p.terminate(t)
	if _, err := os.Stat(filepath.Join(dir, "shard-000", core.SnapshotFile)); err != nil {
		t.Fatalf("shutdown left no snapshot: %v\n%s", err, p.log.String())
	}

	p2 := start(t, bin, args...)
	p2.call(t, http.MethodGet, "/stats", nil, &stats)
	if shards := stats.Collections["default"].Shards; len(shards) != 1 || shards[0].Points != learned || shards[0].Journaled != 0 {
		t.Fatalf("/stats shards after restart: %+v, want one shard with %d points and an empty journal", shards, learned)
	}
	p2.terminate(t)

	// A wrongly accepted open would serve forever; the deadline reaps it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, append(args, "-addr", "127.0.0.1:0", "-shards", "4")...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "has 1 shards, asked for 4") {
		t.Fatalf("-shards 4 on a 1-shard directory: err = %v, want the manifest refusal\n%s", err, out)
	}
}
