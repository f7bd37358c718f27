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
// one Simplex Tree (internal/core); with -dir its log is recovered
// before the server listens, so /healthz answers only once every
// collection is open, and a directory it cannot open stops start-up.
//
// -export-fbmx name=path builds the named collection, writes its rows
// and labels to path as an FBMX file (atomically), and exits — the way
// to turn a synthetic collection into an mmap-servable file.
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
		dir         = flag.String("dir", "", "durable module directory (one tree log per collection); empty = in-memory")
		syncWAL     = flag.Bool("sync", false, "fsync the WAL on every accepted insert (durable mode)")
		compactEach = flag.Int("compact-every", 512, "compact the WAL after this many journaled inserts (durable mode)")
		maxSessions = flag.Int("max-sessions", 1024, "in-flight session bound per collection (further opens get 429)")
		iterBudget  = flag.Int("iter-budget", engine.DefaultMaxIterations, "feedback rounds allowed per session")
		cacheSize   = flag.Int("cache", 1024, "LRU prediction cache entries per collection (negative disables)")
		exportFBMX  = flag.String("export-fbmx", "", "name=path: write the named collection's feature matrix as an FBMX file and exit")
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
	flag.Parse()

	if len(specs) == 0 {
		specs = httpapi.CollectionSpecs{{Name: "default", Spec: fmt.Sprintf("synth:scale=%g,seed=%d", *scale, *seed)}}
	}
	reg := obsv.NewRegistry()
	httpapi.RegisterProcessMetrics(reg)
	cfg := httpapi.Config{
		Scale: *scale, Seed: *seed, K: *k, Epsilon: *epsilon,
		Dir: *dir, SyncWAL: *syncWAL, CompactEvery: *compactEach,
		MaxSessions: *maxSessions, IterBudget: *iterBudget, CacheSize: *cacheSize,
		MaxVertices: *maxVertices, MaxBytes: *maxBytes, AgeHorizon: *ageHorizon,
		Multi: len(specs) > 1, Obs: reg,
	}

	if *exportFBMX != "" {
		exportCollection(*exportFBMX, specs, cfg)
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
	// collection rebuilds its tree, dropping vertices not reinforced
	// within -age-horizon; the service layer invalidates the prediction
	// cache when a pass reclaimed something. Quota-pressure compaction
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

// exportCollection runs -export-fbmx: value is name=path naming a
// configured collection, whose rows and labels are written to path as an
// FBMX file. Only the named collection's dataset is built — no other
// collection is paid for, no durable state is opened.
func exportCollection(value string, specs httpapi.CollectionSpecs, cfg httpapi.Config) {
	name, path, ok := strings.Cut(value, "=")
	var spec string
	for _, s := range specs {
		if s.Name == name {
			spec = s.Spec
		}
	}
	if !ok || path == "" || spec == "" {
		log.Fatalf("fbserve: -export-fbmx %q: want name=path with a configured collection", value)
	}
	ds, _, mm, err := httpapi.BuildDataset(spec, "", cfg)
	if err != nil {
		log.Fatalf("fbserve: collection %s: %v", name, err)
	}
	if err := store.WriteFBMX(path, ds.Matrix(), ds.Labels(spec)); err != nil {
		log.Fatalf("fbserve: exporting %s: %v", name, err)
	}
	if mm != nil {
		_ = mm.Close()
	}
	log.Printf("exported collection %s (%d items, %d bins) to %s", name, ds.Len(), ds.Dim, path)
}
