// Package httpapi is the FeedbackBypass serving assembly and its HTTP
// edge: the one place a collection spec becomes a dataset, a dataset
// becomes the production stack — retrieval engine, one core bypass
// module, one service.Service — and that stack is
// exposed as the JSON routes cmd/fbserve listens on. cmd/fbserve is
// flags and process lifecycle around this package. The figures of
// internal/experiments do not call Assemble: they build their own engine
// and module (engine.New, core.New) and drive the same engine.Loop a
// served session drives, which TestServedSessionIsTheFiguresLoop
// (internal/service) holds to the same rounds and insert decision.
package httpapi

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/service"
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
	MaxVertices  int
	AgeHorizon   uint64
	Multi        bool // more than one collection: durable state nests under Dir/<name>/
	Obs          *obsv.Registry
}

// Collection is one named collection's full serving stack: dataset over
// its backend, retrieval engine, bypass module, and its own service —
// sessions, prediction cache and admission control are all per
// collection.
type Collection struct {
	Name    string
	Dataset *dataset.Dataset
	Service *service.Service
	Bypass  *core.Bypass // the bypass behind Service: its counters and health

	backend string              // "heap" or "mmap"
	durable *core.DurableBypass // Bypass's durable layer; nil in memory
	mm      *store.MmapMatrix   // close handle (nil unless FBMX-backed)
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

// CompactAged runs one aging compaction pass over the collection's tree
// and logs what it reclaimed.
func (c *Collection) CompactAged() {
	st, err := c.Service.CompactAged(context.Background())
	if err != nil {
		log.Printf("fbserve: %s: compaction: %v", c.Name, err)
	}
	if st.Reclaimed > 0 {
		log.Printf("%s: aging compaction reclaimed %d vertices (%d -> %d)", c.Name, st.Reclaimed, st.Before, st.After)
	}
}

// Shutdown makes the collection's learned state durable — its log
// compacted to a census with an empty journal, then closed — and
// releases the retrieval backend. Sessions must have been drained first.
func (c *Collection) Shutdown() {
	if c.durable != nil {
		if err := c.durable.Compact(); err != nil {
			log.Printf("fbserve: %s: compact: %v", c.Name, err)
		}
		if err := c.durable.Close(); err != nil {
			log.Printf("fbserve: %s: close: %v", c.Name, err)
		}
		log.Printf("%s: compacted the WAL; %d points durable", c.Name, c.Bypass.Stats().Points)
	}
	if c.mm != nil {
		if err := c.mm.Close(); err != nil {
			log.Printf("fbserve: %s: unmapping collection: %v", c.Name, err)
		}
	}
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

// CollectionFile is the FBMX file in its durable directory that a
// synth: collection served with -dir is kept in.
const CollectionFile = "collection.fbmx"

// BuildDataset resolves a collection spec into a dataset over the
// appropriate backend. With dir, the collection's durable directory, a
// synth: collection is kept there as CollectionFile and mapped like any
// FBMX file; with dir "" (no -dir) it is rendered into the heap.
func BuildDataset(spec, dir string, cfg Config) (*dataset.Dataset, string, *store.MmapMatrix, error) {
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
		gen := imagegen.IMSILike(seed, scale)
		if dir == "" {
			ds, err := dataset.Build(gen, histogram.DefaultExtractor)
			return ds, "heap", nil, err
		}
		// The canonical spec is built from the resolved values, so
		// "-scale 1" and "synth:scale=1,seed=1" name one collection file.
		canon := fmt.Sprintf("synth:scale=%g,seed=%d", scale, seed)
		ds, mm, err := keptCollection(nil, filepath.Join(dir, CollectionFile), canon, gen)
		return ds, "mmap", mm, err
	}
	path := strings.TrimPrefix(spec, "fbmx:")
	if !strings.HasPrefix(spec, "fbmx:") && !strings.HasSuffix(path, ".fbmx") {
		return nil, "", nil, fmt.Errorf("spec %q: want synth:..., fbmx:path, or a .fbmx file path", spec)
	}
	ds, mm, err := openFBMX(path)
	return ds, "mmap", mm, err
}

// keptCollection maps the collection file at path when it holds an
// intact copy of the collection canon names. Otherwise it logs why,
// renders, writes the file atomically through fsys and maps what it
// wrote: the file is derived state, so it is replaced, never refused.
func keptCollection(fsys persist.FS, path, canon string, gen imagegen.Config) (*dataset.Dataset, *store.MmapMatrix, error) {
	ds, mm, err := openFBMX(path)
	if err == nil && mm.Labels().Spec == canon {
		log.Printf("collection file %s holds %s: mapped, not rendered", path, canon)
		return ds, mm, nil
	}
	if err == nil {
		err = fmt.Errorf("it holds %s", mm.Labels().Spec)
		_ = mm.Close()
	}
	log.Printf("collection file %s not reused (%v): rendering %s", path, err, canon)
	if ds, err = dataset.Build(gen, histogram.DefaultExtractor); err != nil {
		return nil, nil, err
	}
	if err := store.WriteFBMXFS(fsys, path, ds.Matrix(), ds.Labels(canon)); err != nil {
		return nil, nil, fmt.Errorf("keeping the collection in %s: %w", path, err)
	}
	return openFBMX(path)
}

// openFBMX maps an FBMX collection file and builds the dataset over it
// with the labels stored beside its rows. A long-lived server pays the
// one-time page walk of Verify to know the collection it announces is
// intact (see DESIGN.md on FBMX checksums).
func openFBMX(path string) (*dataset.Dataset, *store.MmapMatrix, error) {
	mm, err := store.OpenMmap(path)
	if err != nil {
		return nil, nil, err
	}
	if err := mm.Verify(); err != nil {
		_ = mm.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	ds, err := dataset.FromBackend(mm, mm.Labels())
	if err != nil {
		_ = mm.Close()
		return nil, nil, err
	}
	return ds, mm, nil
}

// BuildCollection resolves spec into a dataset and assembles the
// collection's serving stack over it. A durable directory of a retired
// layout is refused before the dataset is built, so the refusal renders
// nothing and writes no CollectionFile.
func BuildCollection(name, spec string, cfg Config) (*Collection, error) {
	dir, err := collectionDir(name, cfg)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		// Refuse a retired layout before rendering the collection for it.
		if err := core.RefuseRetired(persist.OSFS, dir); err != nil {
			return nil, err
		}
	}
	ds, backend, mm, err := BuildDataset(spec, dir, cfg)
	if err != nil {
		return nil, err
	}
	c, err := Assemble(name, ds, cfg)
	if err != nil {
		if mm != nil {
			_ = mm.Close()
		}
		return nil, err
	}
	c.backend, c.mm = backend, mm
	log.Printf("collection %s: %d items (%d bins) from %s backend (%s)", name, ds.Len(), ds.Dim, backend, spec)
	return c, nil
}

// collectionLabels is the label set every instrument of a collection
// carries, so a multi-collection process stays separable at the scrape.
func collectionLabels(name string) []obsv.Label {
	return []obsv.Label{obsv.L("collection", name)}
}

// collectionDir is collection name's durable directory ("" without
// -dir), created if missing: cfg.Dir itself for a single collection,
// cfg.Dir/<name> with several. It refuses a layout flip that would
// silently shadow learned state written under the other layout.
func collectionDir(name string, cfg Config) (string, error) {
	if cfg.Dir == "" {
		return "", nil
	}
	dir := cfg.Dir
	if cfg.Multi {
		// Nested layout. Refuse to shadow a single-collection module
		// sitting at the directory root: its learned state would be
		// silently unread under dir/<name>/.
		if core.HoldsModule(persist.OSFS, cfg.Dir) {
			return "", fmt.Errorf("module state at %s uses the single-collection layout; move it to %s before serving multiple collections",
				cfg.Dir, filepath.Join(cfg.Dir, "<name>"))
		}
		dir = filepath.Join(cfg.Dir, name)
	} else if nested := filepath.Join(dir, name); core.HoldsModule(persist.OSFS, nested) {
		// Flat layout. Refuse to shadow a nested module left by a
		// previous multi-collection run of this collection name.
		return "", fmt.Errorf("module state at %s uses the multi-collection layout; move it to %s (or keep serving multiple collections)",
			nested, dir)
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// Assemble builds the production serving stack over a dataset: the
// retrieval engine (the exact scan), one core bypass module — journaled
// under the collection's durable directory when cfg.Dir is set, and
// recovered from it before Assemble returns — and the service in front
// of both. It is the only place outside tests and bench/ that
// constructs a service.Service; cmd/fbserve reaches it through
// BuildCollection. The caller keeps ownership of ds.
func Assemble(name string, ds *dataset.Dataset, cfg Config) (*Collection, error) {
	dir, err := collectionDir(name, cfg)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		return nil, err
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		return nil, err
	}
	treeCfg := core.Config{
		Epsilon: cfg.Epsilon, DefaultWeights: codec.DefaultWeights(),
		MaxVertices: cfg.MaxVertices,
		AgeHorizon:  cfg.AgeHorizon,
	}

	c := &Collection{Name: name, Dataset: ds}
	obsLabels := collectionLabels(name)
	if dir != "" {
		c.durable, err = core.OpenDurable(dir, codec.D(), codec.P(), treeCfg, core.DurableOptions{
			CompactEvery: cfg.CompactEvery, Sync: cfg.SyncWAL, Obs: cfg.Obs, ObsLabels: obsLabels,
		})
		if err != nil {
			return nil, fmt.Errorf("opening durable module: %w", err)
		}
		c.Bypass = c.durable.Bypass
		log.Printf("%s: durable module at %s: %d points recovered, %d journaled inserts",
			name, dir, c.Bypass.Stats().Points, c.durable.Journaled())
	} else {
		if c.Bypass, err = core.New(codec.D(), codec.P(), treeCfg); err != nil {
			return nil, err
		}
		c.Bypass.Observe(cfg.Obs, obsLabels...)
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
		if c.durable != nil {
			_ = c.durable.Close()
		}
		return nil, err
	}
	return c, nil
}
