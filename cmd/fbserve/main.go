// Command fbserve is the FeedbackBypass network service: a long-lived
// HTTP/JSON server placing the learned Mopt beside an interactive
// retrieval engine (Figure 4 of the paper) and serving many concurrent
// user sessions over one collection through internal/service. Two
// collections are two processes.
//
// The collection. -collection spec names it; a spec is either
//
//	synth:scale=0.3,seed=7   a generated in-heap collection, or
//	/data/photos.fbmx        an FBMX collection file (also fbmx:path),
//	                         opened read-only via mmap so the feature
//	                         slab lives in the page cache, not the heap
//
// Without -collection the server renders the synth: collection of
// -scale and -seed.
//
// Endpoints:
//
//	GET  /healthz             liveness
//	GET  /stats               counters (read from /metrics' series), cache occupancy, tree shape
//	GET  /metrics             Prometheus text exposition
//	POST /query               open a session: {"item": 3, "k": 5} or
//	                          {"feature": [...], "k": 5} → first results + session id
//	GET  /session?id=S        current session state without advancing it
//	POST /feedback            {"session": S, "scores": [1,0,...]} → refined results
//	POST /close               {"session": S} → converged OQPs inserted into the bypass
//
// /stats files the collection under the name "default", and every
// metric series carries collection="default". Results carry each item's
// category and theme so a client (or a human with curl) can play the
// relevance oracle; an FBMX file stores them beside its rows. On
// SIGINT/SIGTERM the server stops accepting connections, drains the
// in-flight sessions (inserting converged outcomes), and compacts the
// module — with -dir, its log to a census with an empty journal — before
// exiting.
//
// Every -compact-every accepted inserts, with or without -dir, the
// module compacts: it drops the vertices not reinforced within
// -age-horizon accepted inserts, then with -dir commits a fresh log
// whose census is the tree. An insert over -max-vertices compacts too.
//
// Usage:
//
//	fbserve -addr :8080 -scale 0.3 -k 10                  # in-memory
//	fbserve -addr :8080 -dir /var/lib/fbserve -sync       # durable
//	fbserve -collection /data/photos.fbmx -dir /var/lib/photos
//
// With -dir the collection's durable state lives in that directory. A
// synth: collection served with -dir is rendered once into
// collection.fbmx there; later starts map the file instead of rendering,
// and render again only when it is missing, corrupt or rendered from
// another spec. The bypass is one Simplex Tree (internal/core); with
// -dir its log is recovered before the server listens, so /healthz
// answers only once the module is open, and a directory it cannot open
// stops start-up — among them one whose subdirectory holds a module, the
// <dir>/<name>/ layout of the retired multi-collection server.
//
// -export-fbmx path builds the collection, writes its rows and labels to
// path as an FBMX file (atomically), and exits — the way to turn a
// synthetic collection into an mmap-servable file.
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
		dir         = flag.String("dir", "", "durable module directory (the tree log, and the kept synth: collection); empty = in-memory")
		syncWAL     = flag.Bool("sync", false, "fsync the WAL on every accepted insert (durable mode)")
		compactEach = flag.Int("compact-every", 512, "compact the module after this many accepted inserts: drop vertices past -age-horizon, and with -dir commit a fresh log (0 = only on quota pressure and at shutdown)")
		maxSessions = flag.Int("max-sessions", 1024, "in-flight session bound (further opens get 429)")
		iterBudget  = flag.Int("iter-budget", engine.DefaultMaxIterations, "feedback rounds allowed per session")
		cacheSize   = flag.Int("cache", 1024, "LRU prediction cache entries (negative disables)")
		spec        = flag.String("collection", "", "the collection to serve: synth:scale=F,seed=N, fbmx:path or path.fbmx (default: synth: at -scale and -seed)")
		exportFBMX  = flag.String("export-fbmx", "", "write the collection's feature matrix and labels to this path as an FBMX file and exit")
		maxVertices = flag.Int("max-vertices", 0, "Simplex Tree vertex quota, 8·(D+N) bytes of point and value per vertex; at the bound inserts get 507, reads stay live (0 = unlimited)")
		ageHorizon  = flag.Uint64("age-horizon", 0, "reclaim vertices not reinforced within this many accepted inserts; the -compact-every compaction drops them (0 = aging off)")
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
	flag.Parse()

	if *spec == "" {
		*spec = fmt.Sprintf("synth:scale=%g,seed=%d", *scale, *seed)
	}
	reg := obsv.NewRegistry()
	httpapi.RegisterProcessMetrics(reg)
	cfg := httpapi.Config{
		Scale: *scale, Seed: *seed, K: *k, Epsilon: *epsilon,
		Dir: *dir, SyncWAL: *syncWAL, CompactEvery: *compactEach,
		MaxSessions: *maxSessions, IterBudget: *iterBudget, CacheSize: *cacheSize,
		MaxVertices: *maxVertices, AgeHorizon: *ageHorizon, Obs: reg,
	}

	if *exportFBMX != "" {
		exportCollection(*spec, *exportFBMX, cfg)
		return
	}

	c, err := httpapi.BuildCollection(*spec, cfg)
	if err != nil {
		log.Fatalf("fbserve: collection: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.Hardened(httpapi.NewMux(c, reg, *pprofOn), *requestTimeout, reg),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	go func() {
		log.Printf("serving %d items on %s", c.Dataset.Len(), *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("fbserve: %v", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	// Graceful shutdown: stop accepting, drain the sessions (inserting
	// their converged outcomes), then make the learned state durable and
	// close the feature matrix.
	log.Print("shutting down ...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("fbserve: shutdown: %v", err)
	}
	closed, inserted, err := c.Service.Drain(shutdownCtx)
	if err != nil {
		log.Printf("fbserve: drain: %v", err)
	}
	log.Printf("drained %d sessions (%d outcomes inserted)", closed, inserted)
	c.Shutdown()
}

// exportCollection runs -export-fbmx: it builds the collection spec
// names and writes its rows and labels to path as an FBMX file labelled
// with the canonical spec, so the file placed in a -dir as
// collection.fbmx is mapped, not rendered again. No durable state is
// opened.
func exportCollection(spec, path string, cfg httpapi.Config) {
	ds, canon, err := httpapi.BuildDataset(spec, "", cfg)
	if err != nil {
		log.Fatalf("fbserve: collection: %v", err)
	}
	if err := store.WriteFBMX(path, ds.Matrix(), ds.Labels(canon)); err != nil {
		log.Fatalf("fbserve: exporting the collection: %v", err)
	}
	_ = ds.Matrix().Close()
	log.Printf("exported %s (%d items, %d bins) to %s", canon, ds.Len(), ds.Dim, path)
}
