package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDurableSingleShardRestart is the default durable deployment end to
// end: `-dir D -shards 1` builds a one-shard module, serves a learning
// session, shuts down gracefully through the collection's one bypass
// handle (every WAL compacted, then closed), and a restart on the same
// directory reports /healthz "replaying" (503) while the shard recovers
// and "ok" (200) once it has — with the learned state intact and exactly
// one entry under /stats shards throughout.
func TestDurableSingleShardRestart(t *testing.T) {
	cfg := Config{
		Scale: 0.03, Seed: 5, K: 8, Epsilon: 0.05, Dir: t.TempDir(),
		CompactEvery: 512, MaxSessions: 16, IterBudget: 5, CacheSize: 16, Shards: 1,
	}
	spec := "synth:scale=0.03,seed=5"
	c, err := BuildCollection("default", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bypass.WaitReady(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(map[string]*Collection{"default": c}, "default", nil, false))

	for item := 0; c.Bypass.Stats().Points == 0; item++ {
		if item == 32 {
			t.Fatal("no session's outcome was stored")
		}
		if resp, _ := driveSession(t, srv, c.Dataset, item); resp.StatusCode != http.StatusOK {
			t.Fatalf("close: status %d", resp.StatusCode)
		}
	}
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	shards := stats.Collections["default"].Shards
	if len(shards) != 1 || shards[0].Inserts == 0 || shards[0].Journaled == 0 || shards[0].WALBytes == 0 {
		t.Fatalf("/stats shards of a -shards 1 durable collection: %+v", shards)
	}
	learned := c.Bypass.Stats().Points

	// Graceful shutdown, as main does it: stop serving, drain, shutdown.
	srv.Close()
	if _, _, err := c.Service.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	if _, err := os.Stat(filepath.Join(cfg.Dir, "shard-000", core.SnapshotFile)); err != nil {
		t.Fatalf("shutdown left no snapshot: %v", err)
	}

	// Restart on the same directory with the shard's recovery held open.
	gate := newGateFS(core.JournalFile)
	restarted := newRecoveringCollection(t, c.Dataset, cfg.Dir, cfg.Shards, gate)
	srv2 := httptest.NewServer(NewMux(map[string]*Collection{"default": restarted}, "default", nil, false))
	defer srv2.Close()

	var health struct {
		Status    string           `json:"status"`
		Replaying map[string][]int `json:"replaying"`
	}
	if code := getJSON(t, srv2.URL+"/healthz", &health); code != http.StatusServiceUnavailable || health.Status != "replaying" {
		t.Fatalf("healthz during recovery: %d %+v, want 503 replaying", code, health)
	}
	if r := health.Replaying["default"]; len(r) != 1 || r[0] != 0 {
		t.Fatalf("healthz names replaying shards %v, want [0]", r)
	}
	gate.release()
	if err := restarted.Bypass.WaitReady(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv2.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after recovery: %d %+v, want 200 ok", code, health)
	}
	if code := getJSON(t, srv2.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	shards = stats.Collections["default"].Shards
	if len(shards) != 1 || shards[0].Points != learned {
		t.Fatalf("/stats shards after restart: %+v, want one shard with %d points", shards, learned)
	}
	if shards[0].Journaled != 0 {
		t.Errorf("shutdown left %d journaled inserts uncompacted", shards[0].Journaled)
	}
}

// TestShardCountMismatchRefused: a 4-shard module directory opened with
// the default -shards 1 is refused by the module's own manifest check.
func TestShardCountMismatchRefused(t *testing.T) {
	cfg := Config{
		Scale: 0.03, Seed: 5, K: 8, Epsilon: 0.05, Dir: t.TempDir(),
		CompactEvery: 512, MaxSessions: 16, IterBudget: 5, CacheSize: 16, Shards: 4,
	}
	spec := "synth:scale=0.03,seed=5"
	c, err := BuildCollection("default", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bypass.WaitReady(); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()

	cfg.Shards = 1
	_, err = BuildCollection("default", spec, cfg)
	if err == nil || !strings.Contains(err.Error(), "has 4 shards, asked for 1") {
		t.Fatalf("default -shards 1 on a 4-shard directory: err = %v, want the manifest refusal", err)
	}
}
