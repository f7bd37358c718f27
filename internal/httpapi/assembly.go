// Package httpapi is the FeedbackBypass serving assembly and its HTTP
// edge: the one place a collection spec becomes a dataset, a dataset
// becomes the production stack — retrieval engine, one
// shardedbypass.Sharded module, one service.Service — and that stack is
// exposed as the JSON routes cmd/fbserve listens on. cmd/fbserve is
// flags and process lifecycle around this package; the in-process
// figures of internal/experiments measure the same Assemble the server
// runs, not a copy of it.
package httpapi

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/obsv"
	"repro/internal/service"
	"repro/internal/shardedbypass"
	"repro/internal/store"
)

// Config carries the flag values every collection build needs.
type Config struct {
	Scale        float64
	Seed         int64
	K            int
	Epsilon      float64
	Dir          string
	SyncWAL      bool
	CompactEvery int
	MaxSessions  int
	IterBudget   int
	CacheSize    int
	Shards       int
	MaxVertices  int
	MaxBytes     int64
	AgeHorizon   uint64
	Multi        bool     // more than one collection: durable state nests under Dir/<name>/
	ANN          ANNSpecs // -ann flags: approximate retrieval tiers per collection
	Obs          *obsv.Registry
}

// ANNSpec is one parsed -ann flag: the IVF build/probe parameters for a
// collection's approximate retrieval tier.
type ANNSpec struct {
	nlist, nprobe int
	quant         ann.Quant
	seed          int64
}

// Options are the ann.Build parameters the spec selects.
func (s ANNSpec) Options() ann.Options {
	return ann.Options{NList: s.nlist, NProbe: s.nprobe, Quant: s.quant, Seed: s.seed}
}

// ANNSpecs accumulates repeated -ann flags: a bare spec applies to every
// collection, a name-prefixed spec to that collection only (and
// overrides a bare one).
type ANNSpecs struct {
	def    *ANNSpec
	byName map[string]ANNSpec
}

// Add parses one -ann flag value.
func (a *ANNSpecs) Add(value string) error {
	name := ""
	spec := value
	// "photos:nlist=256,..." — a collection prefix is everything before
	// the first ':' as long as no '=' precedes it.
	if i := strings.IndexAny(value, ":="); i >= 0 && value[i] == ':' {
		name, spec = value[:i], value[i+1:]
	}
	var s ANNSpec
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("ann spec: want key=value, got %q", kv)
		}
		var err error
		switch key {
		case "nlist":
			s.nlist, err = strconv.Atoi(val)
		case "nprobe":
			s.nprobe, err = strconv.Atoi(val)
		case "quant":
			s.quant, err = ann.ParseQuant(val)
		case "seed":
			s.seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("unknown ann parameter %q", key)
		}
		if err != nil {
			return fmt.Errorf("ann spec %q: %w", kv, err)
		}
	}
	if name == "" {
		if a.def != nil {
			return errors.New("ann spec: duplicate collection-wide -ann flag")
		}
		a.def = &s
		return nil
	}
	if a.byName == nil {
		a.byName = make(map[string]ANNSpec)
	}
	if _, dup := a.byName[name]; dup {
		return fmt.Errorf("ann spec: duplicate -ann flag for collection %q", name)
	}
	a.byName[name] = s
	return nil
}

// ForName resolves the spec applying to a collection: its own, else the
// collection-wide one, else nil.
func (a *ANNSpecs) ForName(name string) *ANNSpec {
	if s, ok := a.byName[name]; ok {
		return &s
	}
	return a.def
}

// Collection is one named collection's full serving stack: dataset over
// its backend, retrieval engine, bypass module, and its own service —
// sessions, prediction cache and admission control are all per
// collection.
type Collection struct {
	Name    string
	Dataset *dataset.Dataset
	Service *service.Service
	Bypass  *shardedbypass.Sharded // the bypass behind Service: health and shutdown handle

	backend string            // "heap" or "mmap"
	source  string            // the spec it was built from
	durable bool              // Bypass journals to a module directory
	mm      *store.MmapMatrix // close handle (nil unless FBMX-backed)
	ann     *ann.Index        // approximate retrieval tier (nil = exact scan)
	annSrc  string            // "built" or the loaded sidecar path
}

// CollectionSpecs accumulates repeated -collection flags in order.
type CollectionSpecs []struct{ Name, Spec string }

// Add parses one -collection flag value.
func (cs *CollectionSpecs) Add(value string) error {
	name, spec, ok := strings.Cut(value, "=")
	if !ok || name == "" || spec == "" {
		return fmt.Errorf("want name=spec, got %q", value)
	}
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return fmt.Errorf("collection name %q: only [a-zA-Z0-9_-] allowed", name)
		}
	}
	for _, c := range *cs {
		if c.Name == name {
			return fmt.Errorf("duplicate collection %q", name)
		}
	}
	*cs = append(*cs, struct{ Name, Spec string }{name, spec})
	return nil
}

// CompactAged runs one aging compaction pass over the collection's
// tree(s) and logs what it reclaimed.
func (c *Collection) CompactAged() {
	stats, err := c.Service.CompactAged(context.Background())
	if err != nil {
		log.Printf("fbserve: %s: compaction: %v", c.Name, err)
	}
	var before, after, reclaimed int
	for _, st := range stats {
		before += st.Before
		after += st.After
		reclaimed += st.Reclaimed
	}
	if reclaimed > 0 {
		log.Printf("%s: aging compaction reclaimed %d vertices (%d -> %d)", c.Name, reclaimed, before, after)
	}
}

// Shutdown makes the collection's learned state durable — every shard's
// WAL compacted into its snapshot, then closed — and releases the
// retrieval backend. Sessions must have been drained first.
func (c *Collection) Shutdown() {
	if c.durable {
		if err := c.Bypass.Compact(); err != nil {
			log.Printf("fbserve: %s: compact: %v", c.Name, err)
		}
		if err := c.Bypass.Close(); err != nil {
			log.Printf("fbserve: %s: close: %v", c.Name, err)
		}
		log.Printf("%s: compacted %d shard WALs; %d points durable", c.Name, c.Bypass.NumShards(), c.Bypass.Stats().Points)
	}
	if c.ann != nil {
		if err := c.ann.Close(); err != nil {
			log.Printf("fbserve: %s: releasing index: %v", c.Name, err)
		}
	}
	if c.mm != nil {
		if err := c.mm.Close(); err != nil {
			log.Printf("fbserve: %s: unmapping collection: %v", c.Name, err)
		}
	}
}

// moduleStateAt reports whether dir holds durable bypass state — a
// module manifest or a root-layout snapshot/WAL pair — used to refuse
// collection-layout changes that would silently shadow learned state.
func moduleStateAt(dir string) bool {
	for _, f := range []string{core.SnapshotFile, core.JournalFile, shardedbypass.ManifestFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			return true
		}
	}
	return false
}

// ResolveDefault picks the collection the bare legacy routes serve: the
// one named "default" when present, else the only collection, else none.
func ResolveDefault(colls map[string]*Collection) string {
	if _, ok := colls["default"]; ok {
		return "default"
	}
	if len(colls) == 1 {
		for name := range colls {
			return name
		}
	}
	return ""
}

// BuildDataset resolves a collection spec into a dataset over the
// appropriate backend.
func BuildDataset(spec string, cfg Config) (*dataset.Dataset, string, *store.MmapMatrix, error) {
	if params, ok := strings.CutPrefix(spec, "synth:"); ok {
		scale, seed := cfg.Scale, cfg.Seed
		if params != "" {
			for _, kv := range strings.Split(params, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, "", nil, fmt.Errorf("synth spec: want key=value, got %q", kv)
				}
				var err error
				switch key {
				case "scale":
					scale, err = strconv.ParseFloat(val, 64)
				case "seed":
					seed, err = strconv.ParseInt(val, 10, 64)
				default:
					err = fmt.Errorf("unknown synth parameter %q", key)
				}
				if err != nil {
					return nil, "", nil, fmt.Errorf("synth spec %q: %w", kv, err)
				}
			}
		}
		ds, err := dataset.Build(imagegen.IMSILike(seed, scale), histogram.DefaultExtractor)
		if err != nil {
			return nil, "", nil, err
		}
		return ds, "heap", nil, nil
	}
	path := strings.TrimPrefix(spec, "fbmx:")
	if !strings.HasPrefix(spec, "fbmx:") && !strings.HasSuffix(path, ".fbmx") {
		return nil, "", nil, fmt.Errorf("spec %q: want synth:..., fbmx:path, or a .fbmx file path", spec)
	}
	mm, err := store.OpenMmap(path)
	if err != nil {
		return nil, "", nil, err
	}
	// A long-lived server pays the one-time page walk to know the
	// collection it announces is intact (see DESIGN.md on FBMX checksums).
	if err := mm.Verify(); err != nil {
		_ = mm.Close()
		return nil, "", nil, err
	}
	ds, err := dataset.FromBackend(mm, nil, nil)
	if err != nil {
		_ = mm.Close()
		return nil, "", nil, err
	}
	return ds, "mmap", mm, nil
}

// attachANN resolves a collection's approximate retrieval tier. An FBMX
// collection with an FBIX sidecar next to it (<path minus .fbmx>.fbix)
// loads the sidecar — its trained structure wins over the flag, whose
// nprobe (when set) still applies as the probe-tuning override. With no
// sidecar, a -ann flag triggers an in-process build. No sidecar and no
// flag means the exact scan.
func attachANN(name string, ds *dataset.Dataset, mm *store.MmapMatrix, as *ANNSpec) (*ann.Index, string, error) {
	if mm != nil {
		sidecar := strings.TrimSuffix(mm.Path(), ".fbmx") + ".fbix"
		if _, err := os.Stat(sidecar); err == nil {
			idx, err := ann.OpenFBIX(sidecar)
			if err != nil {
				return nil, "", fmt.Errorf("loading index sidecar %s: %w", sidecar, err)
			}
			if err := idx.Bind(ds.Matrix()); err != nil {
				_ = idx.Close()
				return nil, "", fmt.Errorf("index sidecar %s: %w", sidecar, err)
			}
			if as != nil && as.nprobe > 0 {
				if err := idx.SetNProbe(as.nprobe); err != nil {
					_ = idx.Close()
					return nil, "", err
				}
			}
			return idx, sidecar, nil
		}
	}
	if as == nil {
		return nil, "", nil
	}
	idx, err := ann.Build(ds.Matrix(), as.Options())
	if err != nil {
		return nil, "", fmt.Errorf("building index for %s: %w", name, err)
	}
	return idx, "built", nil
}

// BuildCollection resolves spec into a dataset (and its approximate
// tier, if any) and assembles the collection's serving stack over it.
func BuildCollection(name, spec string, cfg Config) (*Collection, error) {
	ds, backend, mm, err := BuildDataset(spec, cfg)
	if err != nil {
		return nil, err
	}
	var idx *ann.Index
	fail := func(err error) (*Collection, error) {
		if idx != nil {
			_ = idx.Close()
		}
		if mm != nil {
			_ = mm.Close()
		}
		return nil, err
	}
	var annSrc string
	idx, annSrc, err = attachANN(name, ds, mm, cfg.ANN.ForName(name))
	if err != nil {
		return fail(err)
	}
	var searcher knn.BatchSearcher // stays a nil interface when idx is nil
	if idx != nil {
		idx.Observe(cfg.Obs, collectionLabels(name)...)
		searcher = idx
	}
	c, err := Assemble(name, ds, searcher, cfg)
	if err != nil {
		return fail(err)
	}
	c.backend, c.source, c.mm, c.ann, c.annSrc = backend, spec, mm, idx, annSrc
	log.Printf("collection %s: %d items (%d bins) from %s backend (%s)", name, ds.Len(), ds.Dim, backend, spec)
	if idx != nil {
		log.Printf("collection %s: approximate tier %s (%s)", name, idx.Describe(), annSrc)
	}
	return c, nil
}

// collectionLabels is the label set every instrument of a collection
// carries, so a multi-collection process stays separable at the scrape.
func collectionLabels(name string) []obsv.Label {
	return []obsv.Label{obsv.L("collection", name)}
}

// Assemble builds the production serving stack over a dataset: the
// retrieval engine (searcher in place of the exact scan when non-nil),
// one shardedbypass.Sharded module of cfg.Shards trees — journaled under
// cfg.Dir when set — and the service in front of both. It is the only
// place outside tests and bench/ that constructs a service.Service;
// cmd/fbserve reaches it through BuildCollection, the in-process figures
// call it directly. The caller keeps ownership of ds and searcher.
func Assemble(name string, ds *dataset.Dataset, searcher knn.BatchSearcher, cfg Config) (*Collection, error) {
	eng, err := engine.New(ds, engine.Options{Searcher: searcher})
	if err != nil {
		return nil, err
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		return nil, err
	}
	treeCfg := core.Config{
		Epsilon: cfg.Epsilon, DefaultWeights: codec.DefaultWeights(),
		MaxVertices: cfg.MaxVertices, MaxBytes: cfg.MaxBytes,
		AgeHorizon: cfg.AgeHorizon,
	}

	dir := cfg.Dir
	if dir != "" && cfg.Multi {
		// Nested layout. Refuse to shadow a single-collection module
		// sitting at the directory root: its learned state would be
		// silently unread under dir/<name>/.
		if moduleStateAt(cfg.Dir) {
			return nil, fmt.Errorf("module state at %s uses the single-collection layout; move it to %s before serving multiple collections",
				cfg.Dir, filepath.Join(cfg.Dir, "<name>"))
		}
		dir = filepath.Join(cfg.Dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	} else if dir != "" {
		// Flat layout. Refuse to shadow a nested module left by a
		// previous multi-collection run of this collection name.
		if nested := filepath.Join(dir, name); moduleStateAt(nested) {
			return nil, fmt.Errorf("module state at %s uses the multi-collection layout; move it to %s (or keep serving multiple collections)",
				nested, dir)
		}
	}

	c := &Collection{Name: name, Dataset: ds, durable: dir != ""}
	obsLabels := collectionLabels(name)
	bypOpts := shardedbypass.Options{Shards: cfg.Shards, Obs: cfg.Obs, ObsLabels: obsLabels}
	if c.durable {
		// Shards recover their WALs in parallel while the server comes up;
		// requests hitting a replaying shard get 503.
		bypOpts.Durable = core.DurableOptions{CompactEvery: cfg.CompactEvery, Sync: cfg.SyncWAL}
		c.Bypass, err = shardedbypass.OpenAsync(dir, codec.D(), codec.P(), treeCfg, bypOpts)
		if err != nil {
			return nil, fmt.Errorf("opening durable module: %w", err)
		}
		go func() {
			if err := c.Bypass.WaitReady(); err != nil {
				// Terminal for this collection only: its healthz reports
				// "failed" (500) and shard-routed requests keep erroring,
				// while every other collection serves on. Killing the
				// process here would take healthy collections down with it.
				log.Printf("fbserve: %s: shard recovery failed (collection unavailable): %v", name, err)
				return
			}
			log.Printf("%s: durable module at %s: %d shards live, %d points recovered, %d journaled inserts",
				name, dir, c.Bypass.NumShards(), c.Bypass.Stats().Points, c.Bypass.Journaled())
		}()
	} else {
		c.Bypass, err = shardedbypass.New(codec.D(), codec.P(), treeCfg, bypOpts)
		if err != nil {
			return nil, err
		}
	}

	c.Service, err = service.New(eng, c.Bypass, service.Options{
		MaxSessions:     cfg.MaxSessions,
		IterationBudget: cfg.IterBudget,
		CacheSize:       cfg.CacheSize,
		DefaultK:        cfg.K,
		Obs:             cfg.Obs,
		ObsLabels:       obsLabels,
	})
	if err != nil {
		_ = c.Bypass.Close()
		return nil, err
	}
	return c, nil
}
