// Command fbserve is the FeedbackBypass network service: a long-lived
// HTTP/JSON server placing the learned Mopt beside interactive
// retrieval engines (Figure 4 of the paper) and serving many concurrent
// user sessions — over one or several named collections — through
// internal/service.
//
// Collections. One process serves any number of named collections, each
// with its own retrieval engine, bypass (and durable directory), and
// prediction cache. -collection name=spec is repeatable; a spec is
// either
//
//	synth:scale=0.3,seed=7   a generated in-heap collection, or
//	/data/photos.fbmx        an FBMX collection file (also fbmx:path),
//	                         opened read-only via mmap so the feature
//	                         slab lives in the page cache, not the heap
//
// With no -collection flags the server runs one collection named
// "default" built from -scale/-seed, exactly the pre-multi-collection
// behaviour.
//
// Endpoints (per collection under /c/<name>/..., with the bare legacy
// paths routed to the default collection):
//
//	GET  /healthz             liveness across all collections
//	GET  /stats               per-collection counters, cache occupancy, tree shape
//	GET  /c/N/healthz         one collection's liveness
//	GET  /c/N/stats           one collection's counters
//	POST /c/N/query           open a session: {"item": 3, "k": 5} or
//	                          {"feature": [...], "k": 5} → first results + session id
//	GET  /c/N/session?id=S    current session state without advancing it
//	POST /c/N/feedback        {"session": S, "scores": [1,0,...]} → refined results
//	POST /c/N/close           {"session": S} → converged OQPs inserted into the bypass
//
// Session ids are scoped to their collection. An unknown collection
// name is 404. Results carry each item's category and theme so a client
// (or a human with curl) can play the relevance oracle; an FBMX file
// stores them beside its rows. On SIGINT/SIGTERM the server stops
// accepting connections, drains every collection's in-flight sessions
// (inserting converged outcomes), and — for durable collections —
// compacts the write-ahead logs before exiting.
//
// Usage:
//
//	fbserve -addr :8080 -scale 0.3 -k 10                  # in-memory
//	fbserve -addr :8080 -dir /var/lib/fbserve -sync       # durable
//	fbserve -addr :8080 -dir /var/lib/fbserve -shards 8   # sharded
//	fbserve -addr :8080 \
//	    -collection birds=synth:scale=0.2,seed=7 \
//	    -collection photos=/data/photos.fbmx \
//	    -dir /var/lib/fbserve                             # multi-collection
//
// With several collections and -dir, each collection's durable state
// lives under <dir>/<name>/ (a single collection keeps the whole dir,
// preserving existing layouts). A synth: collection served with -dir is
// rendered once into collection.fbmx there; later starts map the file
// instead of rendering, and render again only when it is missing,
// corrupt or rendered from another spec. Every collection's bypass is
// one internal/shardedbypass module of -shards independent Simplex
// Trees (default 1); the shard count is baked into each module
// directory's manifest, so reopening with a different -shards is
// refused.
//
// -export-fbmx name=path builds the named collection, writes its rows
// and labels to path as an FBMX file (atomically), and exits — the way
// to turn a synthetic collection into an mmap-servable file.
//
// Approximate retrieval. -ann [name:]nlist=N,nprobe=N[,quant=f32|i8]
// [,seed=N] puts an IVF index (internal/ann) in front of a collection's
// exact scan: queries probe the nprobe nearest partitions through a
// quantized slab and exact-rerank the shortlist, trading a bounded
// recall loss for a large bandwidth reduction (nprobe=nlist reproduces
// the exact scan bit for bit). A bare spec applies to every collection;
// name-prefixed specs win for their collection. An FBMX-backed
// collection automatically loads an FBIX sidecar sitting next to its
// file (photos.fbmx → photos.fbix); the sidecar's trained structure
// wins, with the flag's nprobe applied as the tuning override.
// -export-fbix name=path trains the named collection's index (per -ann,
// or defaults) and writes the sidecar, then exits. /stats reports the
// active tier per collection (collection.index, retrieval).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/httpapi"
	"repro/internal/obsv"
	"repro/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		scale       = flag.Float64("scale", 0.3, "collection scale (1 = the paper's ~10,000 images)")
		seed        = flag.Int64("seed", 1, "random seed for the synthetic collection")
		k           = flag.Int("k", 10, "default results per query")
		epsilon     = flag.Float64("epsilon", 0.05, "Simplex Tree insert threshold ε")
		dir         = flag.String("dir", "", "durable module directory (one log per shard); empty = in-memory")
		syncWAL     = flag.Bool("sync", false, "fsync the WAL on every accepted insert (durable mode)")
		compactEach = flag.Int("compact-every", 512, "compact the WAL after this many journaled inserts (durable mode)")
		maxSessions = flag.Int("max-sessions", 1024, "in-flight session bound per collection (further opens get 429)")
		iterBudget  = flag.Int("iter-budget", engine.DefaultMaxIterations, "feedback rounds allowed per session")
		cacheSize   = flag.Int("cache", 1024, "LRU prediction cache entries per collection (negative disables)")
		shards      = flag.Int("shards", 1, "partition each bypass across this many independent Simplex Trees")
		exportFBMX  = flag.String("export-fbmx", "", "name=path: write the named collection's feature matrix as an FBMX file and exit")
		exportFBIX  = flag.String("export-fbix", "", "name=path: build the named collection's IVF index (per -ann, or defaults) and write it as an FBIX sidecar, then exit")
		maxVertices = flag.Int("max-vertices", 0, "per-collection Simplex Tree vertex quota; at the bound inserts get 507, reads stay live (0 = unlimited)")
		maxBytes    = flag.Int64("max-bytes", 0, "per-collection tree heap-footprint quota in bytes; same 507 semantics (0 = unlimited)")
		ageHorizon  = flag.Uint64("age-horizon", 0, "reclaim vertices not reinforced within this many accepted inserts; compaction drops them (0 = aging off)")
		compactInt  = flag.Duration("compact-interval", 0, "run an aging compaction pass over every collection at this interval (0 = only on quota pressure)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in: profiling endpoints expose internals)")

		// Every http.Server timeout defaults non-zero: a server with
		// unlimited header/body/write time holds a goroutine and a
		// connection per stalled client forever (slowloris).
		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http.Server.ReadHeaderTimeout (0 disables)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http.Server.ReadTimeout (0 disables)")
		writeTimeout      = flag.Duration("write-timeout", 30*time.Second, "http.Server.WriteTimeout (0 disables)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server.IdleTimeout for keep-alive connections (0 disables)")
		requestTimeout    = flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline; expired requests get 503 + Retry-After (0 disables)")
	)
	var specs httpapi.CollectionSpecs
	flag.Func("collection", "serve a named collection: name=synth:scale=F,seed=N or name=path.fbmx (repeatable)", specs.Add)
	var annFlags httpapi.ANNSpecs
	flag.Func("ann", "approximate retrieval tier: [name:]nlist=N,nprobe=N[,quant=f32|i8][,seed=N]; bare applies to all collections (repeatable)", annFlags.Add)
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("fbserve: -shards must be >= 1, got %d", *shards)
	}
	if len(specs) == 0 {
		specs = httpapi.CollectionSpecs{{Name: "default", Spec: fmt.Sprintf("synth:scale=%g,seed=%d", *scale, *seed)}}
	}
	reg := obsv.NewRegistry()
	httpapi.RegisterProcessMetrics(reg)
	cfg := httpapi.Config{
		Scale: *scale, Seed: *seed, K: *k, Epsilon: *epsilon,
		Dir: *dir, SyncWAL: *syncWAL, CompactEvery: *compactEach,
		MaxSessions: *maxSessions, IterBudget: *iterBudget, CacheSize: *cacheSize,
		Shards: *shards, MaxVertices: *maxVertices, MaxBytes: *maxBytes,
		AgeHorizon: *ageHorizon,
		Multi:      len(specs) > 1, ANN: annFlags, Obs: reg,
	}

	if *exportFBMX != "" {
		export("-export-fbmx", *exportFBMX, specs, cfg, func(name, spec, path string, ds *dataset.Dataset) (string, error) {
			return fmt.Sprintf("collection %s (%d items, %d bins)", name, ds.Len(), ds.Dim), store.WriteFBMX(path, ds.Matrix(), ds.Labels(spec))
		})
		return
	}
	if *exportFBIX != "" {
		export("-export-fbix", *exportFBIX, specs, cfg, func(name, _, path string, ds *dataset.Dataset) (string, error) {
			opts := ann.Options{Seed: cfg.Seed}
			if as := cfg.ANN.ForName(name); as != nil {
				opts = as.Options()
			}
			idx, err := ann.Build(ds.Matrix(), opts)
			if err != nil {
				return "", fmt.Errorf("building index: %w", err)
			}
			return fmt.Sprintf("%s index of collection %s (%d items)", idx.Describe(), name, ds.Len()), ann.WriteFBIX(path, idx)
		})
		return
	}

	colls := make(map[string]*httpapi.Collection, len(specs))
	order := make([]*httpapi.Collection, 0, len(specs))
	total := 0
	for _, s := range specs {
		c, err := httpapi.BuildCollection(s.Name, s.Spec, cfg)
		if err != nil {
			log.Fatalf("fbserve: collection %s: %v", s.Name, err)
		}
		colls[s.Name] = c
		order = append(order, c)
		total += c.Dataset.Len()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.Hardened(httpapi.NewMux(colls, httpapi.ResolveDefault(colls), reg, *pprofOn), *requestTimeout, reg),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	go func() {
		log.Printf("serving %d collections (%d items total) on %s", len(colls), total, *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("fbserve: %v", err)
		}
	}()

	// Scheduled lifecycle compaction: every -compact-interval each
	// collection rebuilds its tree(s), dropping vertices not reinforced
	// within -age-horizon; the service layer invalidates exactly the
	// shards whose pass reclaimed something. Quota-pressure compaction
	// inside the store fires regardless — the ticker bounds memory
	// proactively instead of waiting for 507s.
	var tick <-chan time.Time // nil without -compact-interval: never fires
	if *compactInt > 0 {
		ticker := time.NewTicker(*compactInt)
		defer ticker.Stop()
		tick = ticker.C
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for running := true; running; {
		select {
		case <-ctx.Done():
			running = false
		case <-tick:
			for _, c := range order {
				c.CompactAged()
			}
		}
	}

	// Graceful shutdown: stop accepting, drain every collection's
	// sessions (inserting their converged outcomes), then make each
	// collection's learned state durable and release its backend.
	log.Print("shutting down ...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("fbserve: shutdown: %v", err)
	}
	for _, c := range order {
		closed, inserted, err := c.Service.Drain(shutdownCtx)
		if err != nil {
			log.Printf("fbserve: %s: drain: %v", c.Name, err)
		}
		log.Printf("%s: drained %d sessions (%d outcomes inserted)", c.Name, closed, inserted)
		c.Shutdown()
	}
}

// export runs one -export-* mode: value is name=path naming a configured
// collection; write receives that collection's spec and dataset and
// returns what it wrote, for the log line. Only the named collection's
// dataset is built — no other collection is paid for, no durable state
// is opened.
func export(flagName, value string, specs httpapi.CollectionSpecs, cfg httpapi.Config, write func(name, spec, path string, ds *dataset.Dataset) (string, error)) {
	name, path, ok := strings.Cut(value, "=")
	var spec string
	for _, s := range specs {
		if s.Name == name {
			spec = s.Spec
		}
	}
	if !ok || path == "" || spec == "" {
		log.Fatalf("fbserve: %s %q: want name=path with a configured collection", flagName, value)
	}
	ds, _, mm, err := httpapi.BuildDataset(spec, "", cfg)
	if err != nil {
		log.Fatalf("fbserve: collection %s: %v", name, err)
	}
	what, err := write(name, spec, path, ds)
	if err != nil {
		log.Fatalf("fbserve: exporting %s: %v", name, err)
	}
	if mm != nil {
		_ = mm.Close()
	}
	log.Printf("exported %s to %s", what, path)
}
