package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDurableRestart is the default durable deployment end to end: `-dir
// D` builds one module, serves a learning session, shuts down gracefully
// (the log compacted, then closed), and a restart on the same directory
// recovers before it serves — its /healthz is "ok" (200) at once, with
// the learned state intact. A directory of a retired layout fails the
// collection's build before it renders anything.
func TestDurableRestart(t *testing.T) {
	cfg := Config{
		Scale: 0.03, Seed: 5, K: 8, Epsilon: 0.05, Dir: t.TempDir(),
		CompactEvery: 512, MaxSessions: 16, IterBudget: 5, CacheSize: 16,
	}
	spec := "synth:scale=0.03,seed=5"
	c, err := BuildCollection("default", spec, cfg)
	if err != nil {
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
	if st := stats.Collections["default"]; st.InsertsStored == 0 || st.Journaled == 0 || st.WALBytes == 0 {
		t.Fatalf("/stats of a durable collection after a stored insert: %+v", st)
	}
	learned := c.Bypass.Stats().Points

	// Graceful shutdown, as main does it: stop serving, drain, shutdown.
	srv.Close()
	if _, _, err := c.Service.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{CollectionFile, core.JournalFile}; !slices.Equal(names, want) {
		t.Fatalf("shutdown left %v, want %v", names, want)
	}

	restarted, err := BuildCollection("default", spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Shutdown()
	srv2 := httptest.NewServer(NewMux(map[string]*Collection{"default": restarted}, "default", nil, false))
	defer srv2.Close()
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv2.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz of a restarted collection: %d %+v, want 200 ok", code, health)
	}
	if code := getJSON(t, srv2.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st := stats.Collections["default"]; st.Tree.Points != learned || st.Journaled != 0 {
		t.Fatalf("/stats after restart: %d points and %d journaled inserts, want %d and 0", st.Tree.Points, st.Journaled, learned)
	}

	// A directory of a retired layout — the sharded one's manifest, the
	// two-file format's snapshot — stops the build before it renders.
	for _, retired := range []string{"MANIFEST", core.SnapshotFile} {
		other := cfg
		other.Dir = t.TempDir()
		path := filepath.Join(other.Dir, retired)
		if err := os.WriteFile(path, []byte("FBMN"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := BuildCollection("default", spec, other); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("build over %s: err = %v, want a refusal naming it", retired, err)
		}
		if _, err := os.Stat(filepath.Join(other.Dir, CollectionFile)); !os.IsNotExist(err) {
			t.Fatalf("build refused over %s left %s (stat err = %v)", retired, CollectionFile, err)
		}
	}
}
