// Package httpapi is the FeedbackBypass serving assembly and its HTTP
// edge: the one place a collection spec becomes a dataset, a dataset
// becomes the production stack — retrieval engine, one core bypass
// module, one service.Service — and that stack is
// exposed as the JSON routes cmd/fbserve listens on. cmd/fbserve is
// flags and process lifecycle around this package. The figures of
// internal/experiments do not call Assemble: they build their own engine
// and module (engine.New, core.New or core.OpenDurable) and drive the
// same engine.Loop a served session drives, which
// TestServedSessionIsTheFiguresLoop (internal/service) holds to the same
// rounds and insert decision.
package httpapi

import (
	"errors"
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

// Config carries the flag values the collection build needs.
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
	Obs          *obsv.Registry
}

// collectionName names the one collection a process serves: the key of
// the /stats map, its name in that block, and the collection label of
// every metric series.
const collectionName = "default"

// collectionLabels is the label set every instrument of the collection
// carries.
var collectionLabels = []obsv.Label{obsv.L("collection", collectionName)}

// Collection is the collection's full serving stack: dataset over its
// feature matrix, retrieval engine, bypass module, and the service —
// sessions, prediction cache and admission control.
type Collection struct {
	Dataset *dataset.Dataset
	Service *service.Service
	Bypass  *core.Bypass // the bypass behind Service: its counters, log and health
}

// backend names where the collection's rows reside, as /stats reports
// it: "mmap" for a mapped FBMX file, "heap" otherwise.
func (c *Collection) backend() string {
	if c.Dataset.Matrix().Mapped() {
		return "mmap"
	}
	return "heap"
}

// Shutdown makes the collection's learned state durable — one last
// compaction, which with -dir leaves a census with an empty journal,
// then the log closed — and closes the feature matrix. Sessions must
// have been drained first.
func (c *Collection) Shutdown() {
	if err := c.Bypass.Compact(); err != nil {
		log.Printf("fbserve: compact: %v", err)
	}
	walBytes := c.Bypass.WALSize()
	if err := c.Bypass.Close(); err != nil {
		log.Printf("fbserve: close: %v", err)
	}
	log.Printf("compacted and closed the module: %d points, %d log bytes", c.Bypass.Stats().Points, walBytes)
	if err := c.Dataset.Matrix().Close(); err != nil {
		log.Printf("fbserve: unmapping collection: %v", err)
	}
}

// CollectionFile is the FBMX file in its durable directory that a
// synth: collection served with -dir is kept in.
const CollectionFile = "collection.fbmx"

// BuildDataset resolves a collection spec into a dataset, and returns
// the canonical spec beside it: the one a kept or exported collection
// file is labelled with. A synth: spec is canonical once its scale and
// seed are resolved, so "synth:" under -scale 1 and
// "synth:scale=1,seed=1" name one collection; an FBMX file's is the
// spec it records. With dir, the collection's durable directory, a
// synth: collection is kept there as CollectionFile and opened like any
// FBMX file; with dir "" (no -dir) it is rendered into the heap. The
// caller closes ds.Matrix().
func BuildDataset(spec, dir string, cfg Config) (ds *dataset.Dataset, canon string, err error) {
	if params, ok := strings.CutPrefix(spec, "synth:"); ok {
		scale, seed := cfg.Scale, cfg.Seed
		if params != "" {
			for _, kv := range strings.Split(params, ",") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, "", fmt.Errorf("synth spec: want key=value, got %q", kv)
				}
				switch key {
				case "scale":
					scale, err = strconv.ParseFloat(val, 64)
				case "seed":
					seed, err = strconv.ParseInt(val, 10, 64)
				default:
					err = fmt.Errorf("unknown synth parameter %q", key)
				}
				if err != nil {
					return nil, "", fmt.Errorf("synth spec %q: %w", kv, err)
				}
			}
		}
		gen := imagegen.IMSILike(seed, scale)
		canon = fmt.Sprintf("synth:scale=%g,seed=%d", scale, seed)
		if dir == "" {
			ds, err = dataset.Build(gen, histogram.DefaultExtractor)
		} else {
			ds, err = keptCollection(nil, filepath.Join(dir, CollectionFile), canon, gen)
		}
		return ds, canon, err
	}
	path := strings.TrimPrefix(spec, "fbmx:")
	if !strings.HasPrefix(spec, "fbmx:") && !strings.HasSuffix(path, ".fbmx") {
		return nil, "", fmt.Errorf("spec %q: want synth:..., fbmx:path, or a .fbmx file path", spec)
	}
	return openFBMX(path)
}

// keptCollection opens the collection file at path when it holds an
// intact copy of the collection canon names. Otherwise it logs why,
// renders, writes the file atomically through fsys and opens what it
// wrote: the file is derived state, so it is replaced, never refused.
func keptCollection(fsys persist.FS, path, canon string, gen imagegen.Config) (*dataset.Dataset, error) {
	ds, spec, err := openFBMX(path)
	if err == nil && spec == canon {
		log.Printf("collection file %s holds %s: mapped, not rendered", path, canon)
		return ds, nil
	}
	if err == nil {
		err = fmt.Errorf("it holds %s", spec)
		_ = ds.Matrix().Close()
	}
	log.Printf("collection file %s not reused (%v): rendering %s", path, err, canon)
	if ds, err = dataset.Build(gen, histogram.DefaultExtractor); err != nil {
		return nil, err
	}
	if err := store.WriteFBMXFS(fsys, path, ds.Matrix(), ds.Labels(canon)); err != nil {
		return nil, fmt.Errorf("keeping the collection in %s: %w", path, err)
	}
	ds, _, err = openFBMX(path)
	return ds, err
}

// openFBMX opens an FBMX collection file, every checksum verified (see
// DESIGN.md on FBMX checksums), builds the dataset over it with the
// labels stored beside its rows, and returns the spec the file records.
func openFBMX(path string) (*dataset.Dataset, string, error) {
	m, l, err := store.OpenFBMX(path)
	if err != nil {
		return nil, "", err
	}
	ds, err := dataset.FromMatrix(m, l)
	if err != nil {
		_ = m.Close()
		return nil, "", err
	}
	return ds, l.Spec, nil
}

// BuildCollection resolves spec into a dataset and assembles the
// collection's serving stack over it. A durable directory that holds a
// retired layout, or a module nested one directory down, is refused
// before the dataset is built, so the refusal renders nothing and
// writes no CollectionFile.
func BuildCollection(spec string, cfg Config) (*Collection, error) {
	if cfg.Dir != "" {
		if err := core.RefuseRetired(persist.OSFS, cfg.Dir); err != nil {
			return nil, err
		}
		if err := refuseNested(cfg.Dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	ds, _, err := BuildDataset(spec, cfg.Dir, cfg)
	if err != nil {
		return nil, err
	}
	c, err := Assemble(ds, cfg)
	if err != nil {
		_ = ds.Matrix().Close()
		return nil, err
	}
	log.Printf("collection %s: %d items (%d bins) from %s backend (%s)", collectionName, ds.Len(), ds.Dim, c.backend(), spec)
	return c, nil
}

// refuseNested returns an error naming the module file in a
// subdirectory of dir, the layout an earlier multi-collection fbserve
// left (<dir>/<name>/tree.fbwl). Serving dir itself would start a fresh
// module beside that learned state and never read it.
func refuseNested(dir string) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if file := core.ModuleFile(persist.OSFS, sub); file != "" {
			return fmt.Errorf("%s is module state nested under -dir %s, the retired multi-collection layout; "+
				"to keep it, serve -dir %s, or move the files of %s into %s", file, dir, sub, sub, dir)
		}
	}
	return nil
}

// Assemble builds the production serving stack over a dataset: the
// retrieval engine (the exact scan), one core bypass module — journaled
// under cfg.Dir when it is set, and recovered from it before Assemble
// returns; compacting every cfg.CompactEvery accepted inserts either
// way — and the service in front of both. It is the only place
// outside tests and bench/ that constructs a service.Service;
// cmd/fbserve reaches it through BuildCollection. The collection takes
// ds over: Shutdown closes its matrix (which does nothing in the heap).
func Assemble(ds *dataset.Dataset, cfg Config) (*Collection, error) {
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

	c := &Collection{Dataset: ds}
	c.Bypass, err = core.OpenDurable(cfg.Dir, codec.D(), codec.P(), treeCfg, core.DurableOptions{
		CompactEvery: cfg.CompactEvery, Sync: cfg.SyncWAL, Obs: cfg.Obs, ObsLabels: collectionLabels,
	})
	if err != nil {
		return nil, fmt.Errorf("opening the bypass module: %w", err)
	}
	log.Printf("bypass module: %d points, %d journaled inserts recovered", c.Bypass.Stats().Points, c.Bypass.Journaled())

	c.Service, err = service.New(eng, c.Bypass, service.Options{
		MaxSessions:     cfg.MaxSessions,
		IterationBudget: cfg.IterBudget,
		CacheSize:       cfg.CacheSize,
		DefaultK:        cfg.K,
		Obs:             cfg.Obs,
		ObsLabels:       collectionLabels,
	})
	if err != nil {
		_ = c.Bypass.Close()
		return nil, err
	}
	return c, nil
}
