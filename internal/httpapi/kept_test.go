package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/imagegen"
	"repro/internal/store"
)

// TestBuildGolden's collection hashes (internal/dataset) at seed 1.
const (
	golden005 = 0x1561694b2c234f91
	golden03  = 0xe8670ea4cdf29a12
)

// keptHash checks the collection kept in dir against its golden value
// twice: the hash the writer stored in the file's header, and one
// recomputed here from ds's mapped rows and labels, the way
// TestBuildGolden hashes a freshly rendered collection.
func keptHash(t *testing.T, ds *dataset.Dataset, dir string, want uint64) {
	t.Helper()
	m, l, err := store.OpenFBMX(filepath.Join(dir, CollectionFile))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if l.Hash != want {
		t.Fatalf("kept collection: stored hash %#016x, want %#016x", l.Hash, want)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, it := range ds.Items {
		for _, v := range it.Feature {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		h.Write([]byte(it.Category + "\x00" + it.Theme + "\x00"))
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("kept collection: mapped rows and labels hash to %#016x, want %#016x", got, want)
	}
}

// openKept builds the dataset a single-collection -dir start serves.
func openKept(t *testing.T, spec string, cfg Config) (*dataset.Dataset, error) {
	t.Helper()
	ds, _, err := BuildDataset(spec, cfg.Dir, cfg)
	if err == nil && !ds.Matrix().Mapped() {
		t.Fatal("kept collection served from the heap")
	}
	if _, serr := os.Stat(filepath.Join(cfg.Dir, CollectionFile)); err == nil && serr != nil {
		t.Fatalf("kept collection mapped, but not kept in its directory: %v", serr)
	}
	return ds, err
}

// fileOf stats the kept collection file: a re-render replaces it through
// a rename, so os.SameFile tells a reused file from a rewritten one.
func fileOf(t *testing.T, dir string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, CollectionFile))
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// TestKeptCollectionGolden: a -dir start renders a synth: collection
// once into collection.fbmx and later starts map it. The file reopens
// under an equivalent spec spelling, and is rendered again after a
// flipped payload byte or a changed scale — each time hashing to
// TestBuildGolden's value for the spec it serves.
func TestKeptCollectionGolden(t *testing.T) {
	cfg := Config{Scale: 0.3, Seed: 1, Dir: t.TempDir()}
	reopen := func(spec string, want uint64) os.FileInfo {
		t.Helper()
		ds, err := openKept(t, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Matrix().Close()
		keptHash(t, ds, cfg.Dir, want)
		return fileOf(t, cfg.Dir)
	}

	first := reopen("synth:", golden03)
	if again := reopen("synth:scale=0.3,seed=1", golden03); !os.SameFile(first, again) {
		t.Fatal("an equivalent spec rendered the collection again")
	}

	path := filepath.Join(cfg.Dir, CollectionFile)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 4096+3); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], 4096+3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	flipped := fileOf(t, cfg.Dir)
	if rerendered := reopen("synth:", golden03); os.SameFile(flipped, rerendered) {
		t.Fatal("a corrupt collection file was served instead of rendered again")
	}

	cfg.Scale = 0.05
	before := fileOf(t, cfg.Dir)
	if rescaled := reopen("synth:", golden005); os.SameFile(before, rescaled) {
		t.Fatal("a changed -scale served the file of the old scale")
	}
}

// TestKeptCollectionCrashSchedule enumerates every mutating operation
// of the first-start collection write as a crash point. After each, a
// restart on a healthy filesystem serves the golden collection from
// collection.fbmx, and no temporary file survives it.
func TestKeptCollectionCrashSchedule(t *testing.T) {
	spec, gen := "synth:scale=0.05,seed=1", imagegen.IMSILike(1, 0.05)
	counting := faultfs.New(nil)
	ds, err := keptCollection(counting, filepath.Join(t.TempDir(), CollectionFile), spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	ds.Matrix().Close()
	ops := counting.Ops()
	// open, header page, one payload chunk, labels, header rewrite, fsync,
	// rename, directory fsync.
	if ops != 8 {
		t.Fatalf("the collection write took %d mutating operations, want 8", ops)
	}
	for n := 1; n <= ops; n++ {
		cfg := Config{Dir: t.TempDir()}
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)
		if _, err := keptCollection(fs, filepath.Join(cfg.Dir, CollectionFile), spec, gen); !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("crash at op %d: first start returned %v, want ErrCrashed", n, err)
		}
		ds, err := openKept(t, spec, cfg)
		if err != nil {
			t.Fatalf("crash at op %d: restart: %v", n, err)
		}
		keptHash(t, ds, cfg.Dir, golden005)
		ds.Matrix().Close()
		if _, err := os.Stat(filepath.Join(cfg.Dir, CollectionFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("crash at op %d: a temporary file survived the restart: %v", n, err)
		}
	}
}

// TestKeptCollectionWireParity: one scripted query → feedback → close
// sequence returns byte-identical bodies from a server without -dir
// (rendered into the heap), from the first -dir start (which renders
// and writes the collection file) and from a restart that maps that
// file with fresh module state.
func TestKeptCollectionWireParity(t *testing.T) {
	spec := "synth:scale=0.05,seed=3"
	base := Config{K: 8, Epsilon: 0.05, CompactEvery: 512, MaxSessions: 16, IterBudget: 5, CacheSize: 16}
	dir := t.TempDir()
	durable := base
	durable.Dir = dir

	heap := scriptBodies(t, spec, base)
	first := scriptBodies(t, spec, durable)
	written := fileOf(t, dir)
	// Keep the collection file, drop the learned state the script left.
	if err := os.Remove(filepath.Join(dir, core.JournalFile)); err != nil {
		t.Fatal(err)
	}
	restart := scriptBodies(t, spec, durable)
	if !os.SameFile(written, fileOf(t, dir)) {
		t.Fatal("the restart rendered the collection again")
	}
	if len(first) != len(heap) || len(restart) != len(heap) {
		t.Fatalf("%d, %d and %d responses", len(heap), len(first), len(restart))
	}
	for i := range heap {
		if !bytes.Equal(heap[i], first[i]) || !bytes.Equal(first[i], restart[i]) {
			t.Fatalf("response %d differs:\nheap:    %s\nfirst:   %s\nrestart: %s", i, heap[i], first[i], restart[i])
		}
	}
}

// scriptBodies builds the collection, plays three oracle-scored sessions
// over HTTP and returns every response body in order.
func scriptBodies(t *testing.T, spec string, cfg Config) [][]byte {
	t.Helper()
	c, err := BuildCollection(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(c, nil, false))
	defer func() {
		srv.Close()
		if _, _, err := c.Service.Drain(context.Background()); err != nil {
			t.Error(err)
		}
		c.Shutdown()
	}()
	if cfg.Dir != "" && c.backend() != "mmap" {
		t.Fatalf("-dir collection served from the %s backend", c.backend())
	}
	var bodies [][]byte
	post := func(route string, req any) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+route, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", route, resp.StatusCode, err, body)
		}
		bodies = append(bodies, body)
		return body
	}
	for item := 0; item < 3; item++ {
		var st stateJSON
		if err := json.Unmarshal(post("/query", queryRequest{Item: &item, K: 8}), &st); err != nil {
			t.Fatal(err)
		}
		for !st.Converged {
			scores := make([]float64, len(st.Results))
			for i, r := range st.Results {
				if r.Category == c.Dataset.Items[item].Category {
					scores[i] = 1
				}
			}
			if err := json.Unmarshal(post("/feedback", feedbackRequest{Session: st.Session, Scores: scores}), &st); err != nil {
				t.Fatal(err)
			}
		}
		post("/close", closeRequest{Session: st.Session})
	}
	return bodies
}
