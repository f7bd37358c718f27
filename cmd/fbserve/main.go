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
// (or a human with curl) can play the relevance oracle (FBMX-backed
// collections carry empty labels; their sessions are scored by the
// client). On SIGINT/SIGTERM the server stops accepting connections,
// drains every collection's in-flight sessions (inserting converged
// outcomes), and — for durable collections — compacts the write-ahead
// logs before exiting.
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
// preserving existing layouts). Every collection's bypass is one
// internal/shardedbypass module of -shards independent Simplex Trees
// (default 1); the shard count is baked into each module directory's
// manifest, so reopening with a different -shards is refused.
//
// -export-fbmx name=path builds the named collection, writes its
// feature matrix to path as an FBMX file (atomically), and exits — the
// way to turn a synthetic collection into an mmap-servable file.
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
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

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

// processStart anchors the uptime reported by /stats and /healthz.
var processStart = time.Now()

// Request IDs: a per-process random prefix plus an atomic counter, so
// every response (including timeouts and panics) is correlatable in logs
// without coordination and without math/rand in a pinned-determinism
// repo. The prefix is drawn once at startup.
var (
	ridPrefix  = newRIDPrefix()
	ridCounter atomic.Uint64
)

func newRIDPrefix() string {
	var b [4]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// A broken entropy source should not stop the server; PID keeps
		// prefixes distinct across processes well enough for logs.
		return fmt.Sprintf("%08x", os.Getpid())
	}
	return hex.EncodeToString(b[:])
}

// newRequestID returns a process-unique request ID like "3fa9c12b-42".
func newRequestID() string {
	return fmt.Sprintf("%s-%d", ridPrefix, ridCounter.Add(1))
}

// ridKey carries the request ID through the request context so every
// error body can echo it.
type ridKey struct{}

// requestIDFrom extracts the request ID, "" when the request did not
// pass through hardened (direct handler tests).
func requestIDFrom(r *http.Request) string {
	if r == nil {
		return ""
	}
	id, _ := r.Context().Value(ridKey{}).(string)
	return id
}

// errUnknownCollection is the sentinel behind the 404 for routes naming
// a collection this process does not serve.
var errUnknownCollection = errors.New("fbserve: unknown collection")

// serveConfig carries the flag values every collection build needs.
type serveConfig struct {
	scale       float64
	seed        int64
	k           int
	epsilon     float64
	dir         string
	syncWAL     bool
	compactEach int
	maxSessions int
	iterBudget  int
	cacheSize   int
	shards      int
	maxVertices int
	maxBytes    int64
	ageHorizon  uint64
	multi       bool     // more than one collection: durable state nests under dir/<name>/
	ann         annSpecs // -ann flags: approximate retrieval tiers per collection
	obs         *obsv.Registry
}

// annSpec is one parsed -ann flag: the IVF build/probe parameters for a
// collection's approximate retrieval tier.
type annSpec struct {
	nlist, nprobe int
	quant         ann.Quant
	seed          int64
}

// annSpecs accumulates repeated -ann flags: a bare spec applies to every
// collection, a name-prefixed spec to that collection only (and
// overrides a bare one).
type annSpecs struct {
	def    *annSpec
	byName map[string]annSpec
}

func (a *annSpecs) add(value string) error {
	name := ""
	spec := value
	// "photos:nlist=256,..." — a collection prefix is everything before
	// the first ':' as long as no '=' precedes it.
	if i := strings.IndexAny(value, ":="); i >= 0 && value[i] == ':' {
		name, spec = value[:i], value[i+1:]
	}
	var s annSpec
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
		a.byName = make(map[string]annSpec)
	}
	if _, dup := a.byName[name]; dup {
		return fmt.Errorf("ann spec: duplicate -ann flag for collection %q", name)
	}
	a.byName[name] = s
	return nil
}

// forName resolves the spec applying to a collection: its own, else the
// collection-wide one, else nil.
func (a *annSpecs) forName(name string) *annSpec {
	if s, ok := a.byName[name]; ok {
		return &s
	}
	return a.def
}

// serverTimeouts carries the http.Server hardening knobs. Every one
// defaults non-zero: a server with unlimited header/body/write time holds
// a goroutine and a connection per stalled client forever (slowloris).
type serverTimeouts struct {
	readHeader time.Duration // time to read request headers
	read       time.Duration // time to read the full request
	write      time.Duration // time from end-of-headers to last response byte
	idle       time.Duration // keep-alive idle limit
	request    time.Duration // per-request handler deadline (context); 0 disables
}

// collection is one named collection's full serving stack: dataset over
// its backend, retrieval engine, bypass module, and its own service —
// sessions, prediction cache and admission control are all per
// collection.
type collection struct {
	name    string
	backend string // "heap" or "mmap"
	source  string // the spec it was built from
	ds      *dataset.Dataset
	svc     *service.Service
	byp     *shardedbypass.Sharded // the bypass behind svc: health and shutdown handle
	durable bool                   // byp journals to a module directory
	mm      *store.MmapMatrix      // close handle (nil unless FBMX-backed)
	ann     *ann.Index             // approximate retrieval tier (nil = exact scan)
	annSrc  string                 // "built" or the loaded sidecar path
}

// collectionSpecs accumulates repeated -collection flags in order.
type collectionSpecs []struct{ name, spec string }

func (cs *collectionSpecs) add(value string) error {
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
		if c.name == name {
			return fmt.Errorf("duplicate collection %q", name)
		}
	}
	*cs = append(*cs, struct{ name, spec string }{name, spec})
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		scale       = flag.Float64("scale", 0.3, "collection scale (1 = the paper's ~10,000 images)")
		seed        = flag.Int64("seed", 1, "random seed for the synthetic collection")
		k           = flag.Int("k", 10, "default results per query")
		epsilon     = flag.Float64("epsilon", 0.05, "Simplex Tree insert threshold ε")
		dir         = flag.String("dir", "", "durable module directory (WAL + snapshots); empty = in-memory")
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

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http.Server.ReadHeaderTimeout (0 disables)")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http.Server.ReadTimeout (0 disables)")
		writeTimeout      = flag.Duration("write-timeout", 30*time.Second, "http.Server.WriteTimeout (0 disables)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server.IdleTimeout for keep-alive connections (0 disables)")
		requestTimeout    = flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline; expired requests get 503 + Retry-After (0 disables)")
	)
	var specs collectionSpecs
	flag.Func("collection", "serve a named collection: name=synth:scale=F,seed=N or name=path.fbmx (repeatable)", specs.add)
	var annFlags annSpecs
	flag.Func("ann", "approximate retrieval tier: [name:]nlist=N,nprobe=N[,quant=f32|i8][,seed=N]; bare applies to all collections (repeatable)", annFlags.add)
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("fbserve: -shards must be >= 1, got %d", *shards)
	}
	if len(specs) == 0 {
		if err := specs.add(fmt.Sprintf("default=synth:scale=%g,seed=%d", *scale, *seed)); err != nil {
			log.Fatalf("fbserve: %v", err)
		}
	}
	reg := obsv.NewRegistry()
	registerProcessMetrics(reg)
	cfg := serveConfig{
		scale: *scale, seed: *seed, k: *k, epsilon: *epsilon,
		dir: *dir, syncWAL: *syncWAL, compactEach: *compactEach,
		maxSessions: *maxSessions, iterBudget: *iterBudget, cacheSize: *cacheSize,
		shards: *shards, maxVertices: *maxVertices, maxBytes: *maxBytes,
		ageHorizon: *ageHorizon,
		multi:      len(specs) > 1, ann: annFlags, obs: reg,
	}

	if *exportFBMX != "" {
		// Export needs only the named collection's dataset — don't pay
		// for (or open durable state of) any other configured collection.
		name, path, ok := strings.Cut(*exportFBMX, "=")
		var spec string
		for _, s := range specs {
			if s.name == name {
				spec = s.spec
			}
		}
		if !ok || path == "" || spec == "" {
			log.Fatalf("fbserve: -export-fbmx %q: want name=path with a configured collection", *exportFBMX)
		}
		ds, _, mm, err := buildDataset(spec, cfg)
		if err != nil {
			log.Fatalf("fbserve: collection %s: %v", name, err)
		}
		if err := store.WriteFBMX(path, ds.Matrix()); err != nil {
			log.Fatalf("fbserve: exporting %s: %v", name, err)
		}
		if mm != nil {
			_ = mm.Close()
		}
		log.Printf("exported collection %s (%d items, %d bins) to %s", name, ds.Len(), ds.Dim, path)
		return
	}

	if *exportFBIX != "" {
		name, path, ok := strings.Cut(*exportFBIX, "=")
		var spec string
		for _, s := range specs {
			if s.name == name {
				spec = s.spec
			}
		}
		if !ok || path == "" || spec == "" {
			log.Fatalf("fbserve: -export-fbix %q: want name=path with a configured collection", *exportFBIX)
		}
		ds, _, mm, err := buildDataset(spec, cfg)
		if err != nil {
			log.Fatalf("fbserve: collection %s: %v", name, err)
		}
		opts := ann.Options{Seed: cfg.seed}
		if as := cfg.ann.forName(name); as != nil {
			opts = ann.Options{NList: as.nlist, NProbe: as.nprobe, Quant: as.quant, Seed: as.seed}
		}
		idx, err := ann.Build(ds.Matrix(), opts)
		if err != nil {
			log.Fatalf("fbserve: building index for %s: %v", name, err)
		}
		if err := ann.WriteFBIX(path, idx); err != nil {
			log.Fatalf("fbserve: exporting index for %s: %v", name, err)
		}
		if mm != nil {
			_ = mm.Close()
		}
		log.Printf("exported %s index of collection %s (%d items) to %s", idx.Describe(), name, ds.Len(), path)
		return
	}

	colls := make(map[string]*collection, len(specs))
	order := make([]string, 0, len(specs))
	for _, s := range specs {
		c, err := buildCollection(s.name, s.spec, cfg)
		if err != nil {
			log.Fatalf("fbserve: collection %s: %v", s.name, err)
		}
		colls[s.name] = c
		order = append(order, s.name)
		log.Printf("collection %s: %d items (%d bins) from %s backend (%s)", c.name, c.ds.Len(), c.ds.Dim, c.backend, c.source)
		if c.ann != nil {
			log.Printf("collection %s: approximate tier %s (%s)", c.name, c.ann.Describe(), c.annSrc)
		}
	}

	defaultName := resolveDefault(colls)
	timeouts := serverTimeouts{
		readHeader: *readHeaderTimeout,
		read:       *readTimeout,
		write:      *writeTimeout,
		idle:       *idleTimeout,
		request:    *requestTimeout,
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hardened(newMux(colls, defaultName, reg, *pprofOn), timeouts.request, reg),
		ReadHeaderTimeout: timeouts.readHeader,
		ReadTimeout:       timeouts.read,
		WriteTimeout:      timeouts.write,
		IdleTimeout:       timeouts.idle,
	}
	go func() {
		total := 0
		for _, c := range colls {
			total += c.ds.Len()
		}
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
	compactDone := make(chan struct{})
	if *compactInt > 0 {
		go func() {
			ticker := time.NewTicker(*compactInt)
			defer ticker.Stop()
			for {
				select {
				case <-compactDone:
					return
				case <-ticker.C:
					for _, name := range order {
						stats, err := colls[name].svc.CompactAged(context.Background())
						if err != nil {
							log.Printf("fbserve: %s: compaction: %v", name, err)
						}
						var before, after, reclaimed int
						for _, st := range stats {
							before += st.Before
							after += st.After
							reclaimed += st.Reclaimed
						}
						if reclaimed > 0 {
							log.Printf("%s: aging compaction reclaimed %d vertices (%d -> %d)", name, reclaimed, before, after)
						}
					}
				}
			}
		}()
	}

	// Graceful shutdown: stop accepting, drain every collection's
	// sessions (inserting their converged outcomes), then make each
	// collection's learned state durable and release its backend.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Print("shutting down ...")
	close(compactDone)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("fbserve: shutdown: %v", err)
	}
	for _, name := range order {
		c := colls[name]
		closed, inserted, err := c.svc.Drain(shutdownCtx)
		if err != nil {
			log.Printf("fbserve: %s: drain: %v", name, err)
		}
		log.Printf("%s: drained %d sessions (%d outcomes inserted)", name, closed, inserted)
		c.shutdown()
	}
}

// shutdown makes the collection's learned state durable — every shard's
// WAL compacted into its snapshot, then closed — and releases the
// retrieval backend. Sessions must have been drained first.
func (c *collection) shutdown() {
	if c.durable {
		if err := c.byp.Compact(); err != nil {
			log.Printf("fbserve: %s: compact: %v", c.name, err)
		}
		if err := c.byp.Close(); err != nil {
			log.Printf("fbserve: %s: close: %v", c.name, err)
		}
		log.Printf("%s: compacted %d shard WALs; %d points durable", c.name, c.byp.NumShards(), c.byp.Stats().Points)
	}
	if c.ann != nil {
		if err := c.ann.Close(); err != nil {
			log.Printf("fbserve: %s: releasing index: %v", c.name, err)
		}
	}
	if c.mm != nil {
		if err := c.mm.Close(); err != nil {
			log.Printf("fbserve: %s: unmapping collection: %v", c.name, err)
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

// resolveDefault picks the collection the bare legacy routes serve: the
// one named "default" when present, else the only collection, else none.
func resolveDefault(colls map[string]*collection) string {
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

// buildDataset resolves a collection spec into a dataset over the
// appropriate backend.
func buildDataset(spec string, cfg serveConfig) (*dataset.Dataset, string, *store.MmapMatrix, error) {
	if params, ok := strings.CutPrefix(spec, "synth:"); ok {
		scale, seed := cfg.scale, cfg.seed
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
func attachANN(name string, ds *dataset.Dataset, mm *store.MmapMatrix, as *annSpec) (*ann.Index, string, error) {
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
	idx, err := ann.Build(ds.Matrix(), ann.Options{
		NList: as.nlist, NProbe: as.nprobe, Quant: as.quant, Seed: as.seed,
	})
	if err != nil {
		return nil, "", fmt.Errorf("building index for %s: %w", name, err)
	}
	return idx, "built", nil
}

// buildCollection assembles one collection's serving stack.
func buildCollection(name, spec string, cfg serveConfig) (*collection, error) {
	ds, backend, mm, err := buildDataset(spec, cfg)
	if err != nil {
		return nil, err
	}
	var idx *ann.Index
	fail := func(err error) (*collection, error) {
		if idx != nil {
			_ = idx.Close()
		}
		if mm != nil {
			_ = mm.Close()
		}
		return nil, err
	}
	var annSrc string
	idx, annSrc, err = attachANN(name, ds, mm, cfg.ann.forName(name))
	if err != nil {
		return fail(err)
	}
	// Every instrument this collection registers carries its name, so a
	// multi-collection process stays separable at the scrape.
	obsLabels := []obsv.Label{obsv.L("collection", name)}
	if idx != nil && cfg.obs != nil {
		idx.Observe(cfg.obs, obsLabels...)
	}
	engOpts := engine.Options{}
	if idx != nil {
		engOpts.Searcher = idx
	}
	eng, err := engine.New(ds, engOpts)
	if err != nil {
		return fail(err)
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		return fail(err)
	}
	treeCfg := core.Config{
		Epsilon: cfg.epsilon, DefaultWeights: codec.DefaultWeights(),
		MaxVertices: cfg.maxVertices, MaxBytes: cfg.maxBytes,
		AgeHorizon: cfg.ageHorizon,
	}

	dir := cfg.dir
	if dir != "" && cfg.multi {
		// Nested layout. Refuse to shadow a single-collection module
		// sitting at the directory root: its learned state would be
		// silently unread under dir/<name>/.
		if moduleStateAt(cfg.dir) {
			return fail(fmt.Errorf("module state at %s uses the single-collection layout; move it to %s before serving multiple collections",
				cfg.dir, filepath.Join(cfg.dir, "<name>")))
		}
		dir = filepath.Join(cfg.dir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
	} else if dir != "" {
		// Flat layout. Refuse to shadow a nested module left by a
		// previous multi-collection run of this collection name.
		if nested := filepath.Join(dir, name); moduleStateAt(nested) {
			return fail(fmt.Errorf("module state at %s uses the multi-collection layout; move it to %s (or keep serving multiple collections)",
				nested, dir))
		}
	}

	c := &collection{name: name, backend: backend, source: spec, ds: ds, mm: mm, ann: idx, annSrc: annSrc, durable: dir != ""}
	bypOpts := shardedbypass.Options{Shards: cfg.shards, Obs: cfg.obs, ObsLabels: obsLabels}
	if c.durable {
		// Shards recover their WALs in parallel while the server comes up;
		// requests hitting a replaying shard get 503.
		bypOpts.Durable = core.DurableOptions{CompactEvery: cfg.compactEach, Sync: cfg.syncWAL}
		c.byp, err = shardedbypass.OpenAsync(dir, codec.D(), codec.P(), treeCfg, bypOpts)
		if err != nil {
			return fail(fmt.Errorf("opening durable module: %w", err))
		}
		go func() {
			if err := c.byp.WaitReady(); err != nil {
				// Terminal for this collection only: its healthz reports
				// "failed" (500) and shard-routed requests keep erroring,
				// while every other collection serves on. Killing the
				// process here would take healthy collections down with it.
				log.Printf("fbserve: %s: shard recovery failed (collection unavailable): %v", name, err)
				return
			}
			log.Printf("%s: durable module at %s: %d shards live, %d points recovered, %d journaled inserts",
				name, dir, c.byp.NumShards(), c.byp.Stats().Points, c.byp.Journaled())
		}()
	} else {
		c.byp, err = shardedbypass.New(codec.D(), codec.P(), treeCfg, bypOpts)
		if err != nil {
			return fail(err)
		}
	}

	c.svc, err = service.New(eng, c.byp, service.Options{
		MaxSessions:     cfg.maxSessions,
		IterationBudget: cfg.iterBudget,
		CacheSize:       cfg.cacheSize,
		DefaultK:        cfg.k,
		Obs:             cfg.obs,
		ObsLabels:       obsLabels,
	})
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// resultJSON is one retrieved item, annotated with the oracle's category
// and theme so clients can score relevance.
type resultJSON struct {
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
	Category string  `json:"category"`
	Theme    string  `json:"theme"`
}

// stateJSON is the wire form of a session snapshot.
type stateJSON struct {
	Collection string       `json:"collection"`
	Session    uint64       `json:"session"`
	K          int          `json:"k"`
	Results    []resultJSON `json:"results"`
	Iterations int          `json:"iterations"`
	BudgetLeft int          `json:"budget_left"`
	Converged  bool         `json:"converged"`
	CacheHit   bool         `json:"cache_hit"`
	Warm       bool         `json:"warm"`
}

type queryRequest struct {
	// Item selects a collection image as the query (the usual demo path);
	// Feature supplies a raw normalized histogram instead.
	Item    *int      `json:"item"`
	Feature []float64 `json:"feature"`
	K       int       `json:"k"`
}

type feedbackRequest struct {
	Session uint64    `json:"session"`
	Scores  []float64 `json:"scores"`
}

type closeRequest struct {
	Session uint64 `json:"session"`
}

type closeResponse struct {
	Collection string `json:"collection"`
	Session    uint64 `json:"session"`
	Iterations int    `json:"iterations"`
	Inserted   bool   `json:"inserted"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RequestID echoes the X-Request-Id the hardened wrapper assigned;
	// empty only for handlers mounted without the wrapper (unit tests).
	RequestID string `json:"request_id,omitempty"`
}

// collectionInfo identifies a collection and its retrieval substrate in
// stats responses.
type collectionInfo struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	Items   int    `json:"items"`
	Dim     int    `json:"dim"`
	// Index describes the approximate retrieval tier when one is active
	// (e.g. "ivf(nlist=64,nprobe=8,quant=f32)"); IndexSource is "built"
	// or the FBIX sidecar path it was loaded from.
	Index       string `json:"index,omitempty"`
	IndexSource string `json:"index_source,omitempty"`
}

// collectionStats is one collection's /stats block: the serving-layer
// counters plus the collection's identity, so isolation between
// collections is observable (each has its own sessions, cache and tree).
type collectionStats struct {
	Collection collectionInfo `json:"collection"`
	service.Stats
}

// statsResponse is the global /stats shape: one block per collection
// plus the process-identity block.
type statsResponse struct {
	Server      serverInfo                 `json:"server"`
	Collections map[string]collectionStats `json:"collections"`
}

// serverInfo identifies the process behind a /stats or /healthz reply:
// operators correlate scrapes and incident timelines against the exact
// build and start time, and a changed PID or start time reveals a
// restart that load balancers would otherwise hide.
type serverInfo struct {
	StartTime     string  `json:"start_time"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	PID           int     `json:"pid"`
}

// buildRevision reads the VCS revision stamped into the binary at build
// time ("" for go test binaries and builds outside a checkout).
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}

var buildRev = buildRevision()

func currentServerInfo() serverInfo {
	return serverInfo{
		StartTime:     processStart.UTC().Format(time.RFC3339),
		UptimeSeconds: time.Since(processStart).Seconds(),
		GoVersion:     runtime.Version(),
		Revision:      buildRev,
		PID:           os.Getpid(),
	}
}

// registerProcessMetrics exposes process-level runtime series next to
// the request-path instruments, so one scrape answers both "is it slow"
// and "is it leaking".
func registerProcessMetrics(reg *obsv.Registry) {
	reg.GaugeFunc("fb_process_start_time_seconds",
		"Unix time the process started.",
		func() float64 { return float64(processStart.UnixNano()) / 1e9 })
	reg.GaugeFunc("fb_process_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("fb_process_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("fb_process_gc_cycles_total",
		"Completed GC cycles since process start.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
}

// statsFor assembles one collection's stats block.
func statsFor(c *collection) collectionStats {
	info := collectionInfo{Name: c.name, Backend: c.backend, Items: c.ds.Len(), Dim: c.ds.Dim}
	if c.ann != nil {
		info.Index = c.ann.Describe()
		info.IndexSource = c.annSrc
	}
	return collectionStats{
		Collection: info,
		Stats:      c.svc.Stats(),
	}
}

// newMux wires every collection into one http.Handler; split from main
// so the end-to-end tests drive the exact production routes via
// httptest. Per-collection routes live under /c/<name>/; the bare
// legacy routes serve defaultName (usually "default") when it is
// non-empty.
func newMux(colls map[string]*collection, defaultName string, reg *obsv.Registry, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()

	// Prometheus text exposition of the whole registry. The output is
	// staged through a buffer so a marshalling failure never yields a
	// half-written 200. Nil registry (unit tests) serves an empty page.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})

	// Profiling endpoints are opt-in (-pprof): they expose heap contents
	// and symbol names, so they stay off unless an operator asks.
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}

	// Global liveness: a failed shard recovery anywhere is terminal
	// (500); any replaying shard holds traffic (503); otherwise ok with
	// the total in-flight session count.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		sessions := 0
		replaying := map[string][]int{}
		degraded := map[string]string{}
		for name, c := range colls {
			st, code := collectionHealth(c)
			switch code {
			case http.StatusInternalServerError:
				writeJSON(w, code, map[string]any{
					"status": "failed", "collection": name, "error": st["error"],
					"server": currentServerInfo(),
				})
				return
			case http.StatusServiceUnavailable:
				replaying[name] = st["replaying"].([]int)
			default:
				if st["status"] == "degraded" {
					degraded[name] = st["error"].(string)
				}
				sessions += st["sessions"].(int)
			}
		}
		if len(replaying) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":    "replaying",
				"replaying": replaying,
				"server":    currentServerInfo(),
			})
			return
		}
		if len(degraded) > 0 {
			// Degraded collections still serve predictions, so the process
			// is alive (200) — but the status names every read-only
			// collection and why.
			writeJSON(w, http.StatusOK, map[string]any{
				"status":      "degraded",
				"degraded":    degraded,
				"collections": len(colls),
				"sessions":    sessions,
				"server":      currentServerInfo(),
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "ok",
			"collections": len(colls),
			"sessions":    sessions,
			"server":      currentServerInfo(),
		})
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		out := statsResponse{
			Server:      currentServerInfo(),
			Collections: make(map[string]collectionStats, len(colls)),
		}
		for name, c := range colls {
			out.Collections[name] = statsFor(c)
		}
		writeJSON(w, http.StatusOK, out)
	})

	// Per-collection routes: /c/<name>/<op>.
	mux.HandleFunc("/c/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/c/")
		name, op, _ := strings.Cut(rest, "/")
		c := colls[name]
		if c == nil {
			writeError(w, r, http.StatusNotFound, fmt.Errorf("%w %q", errUnknownCollection, name))
			return
		}
		serveCollection(c, op, w, r)
	})

	// Legacy routes → the default collection.
	for _, op := range []string{"query", "session", "feedback", "close"} {
		op := op
		mux.HandleFunc("/"+op, func(w http.ResponseWriter, r *http.Request) {
			c := colls[defaultName]
			if c == nil {
				writeError(w, r, http.StatusNotFound,
					fmt.Errorf("%w: no default collection; use /c/<name>/%s", errUnknownCollection, op))
				return
			}
			serveCollection(c, op, w, r)
		})
	}
	return mux
}

// hardened wraps the route mux with the serving edge's blanket
// protections: a panic recovery barrier (one handler bug must not kill
// every collection's sessions with the process) and an optional
// per-request deadline, delivered to handlers through the request
// context so the service layer can abort before its expensive stages.
// Every request gets a generated ID — set as the X-Request-Id response
// header before the handler runs and threaded through the context so
// error bodies (including the timeout and panic responses this wrapper
// itself writes) carry it. Panics and expired deadlines are counted in
// the registry; reg may be nil (counters degrade to no-ops).
func hardened(h http.Handler, requestTimeout time.Duration, reg *obsv.Registry) http.Handler {
	panics := reg.Counter("fb_http_panics_total",
		"HTTP requests that hit the panic recovery barrier.")
	timeouts := reg.Counter("fb_http_timeouts_total",
		"HTTP requests whose per-request deadline expired while being served.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := newRequestID()
		// Header first: it reaches the client even when the handler later
		// streams a body or panics after WriteHeader.
		w.Header().Set("X-Request-Id", rid)
		ctx := context.WithValue(r.Context(), ridKey{}, rid)
		if requestTimeout > 0 {
			tctx, cancel := context.WithTimeout(ctx, requestTimeout)
			defer cancel()
			ctx = tctx
		}
		r = r.WithContext(ctx)
		defer func() {
			if p := recover(); p != nil {
				panics.Inc()
				log.Printf("fbserve: panic serving %s %s (request %s): %v", r.Method, r.URL.Path, rid, p)
				// Best effort: if the handler already wrote headers this is
				// a no-op on the status line, but the connection still dies
				// with the response truncated — which is the right signal.
				writeError(w, r, http.StatusInternalServerError, errors.New("internal server error"))
				return
			}
			if ctx.Err() == context.DeadlineExceeded {
				// The deadline fired while the handler ran; the handler's
				// own error path wrote the 503, this just keeps score.
				timeouts.Inc()
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// collectionHealth reports one collection's liveness as (body, status).
func collectionHealth(c *collection) (map[string]any, int) {
	if !c.byp.Ready() {
		// A failed shard recovery is terminal — 500, not the retryable
		// 503 of a replay in progress, so probes distinguish "warming
		// up" from "broken".
		if err := c.byp.Err(); err != nil {
			return map[string]any{"status": "failed", "error": err.Error()}, http.StatusInternalServerError
		}
		replaying := []int{}
		for _, info := range c.byp.ShardInfos() {
			if info.Replaying {
				replaying = append(replaying, info.Shard)
			}
		}
		return map[string]any{
			"status":    "replaying",
			"shards":    c.byp.NumShards(),
			"replaying": replaying,
		}, http.StatusServiceUnavailable
	}
	if derr := c.svc.Degraded(); derr != nil {
		// Read-only serving after a persistence failure: predictions are
		// live, so the collection is up (200) — but probes and operators
		// see the degradation and its root cause.
		return map[string]any{
			"status":   "degraded",
			"error":    derr.Error(),
			"sessions": c.svc.Stats().ActiveSessions,
		}, http.StatusOK
	}
	return map[string]any{"status": "ok", "sessions": c.svc.Stats().ActiveSessions}, http.StatusOK
}

// serveCollection dispatches one collection-scoped operation.
func serveCollection(c *collection, op string, w http.ResponseWriter, r *http.Request) {
	switch op {
	case "healthz":
		body, code := collectionHealth(c)
		body["collection"] = c.name
		writeJSON(w, code, body)
	case "stats":
		writeJSON(w, http.StatusOK, statsFor(c))
	case "query":
		c.handleQuery(w, r)
	case "session":
		c.handleSession(w, r)
	case "feedback":
		c.handleFeedback(w, r)
	case "close":
		c.handleClose(w, r)
	default:
		writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown operation %q for collection %s", op, c.name))
	}
}

// annotate decorates raw results with the oracle's labels.
func (c *collection) annotate(results []knn.Result) []resultJSON {
	out := make([]resultJSON, len(results))
	for i, r := range results {
		item := c.ds.Items[r.Index]
		out[i] = resultJSON{Index: r.Index, Distance: r.Distance, Category: item.Category, Theme: item.Theme}
	}
	return out
}

func (c *collection) stateResponse(st service.SessionState) stateJSON {
	return stateJSON{
		Collection: c.name,
		Session:    st.ID,
		K:          st.K,
		Results:    c.annotate(st.Results),
		Iterations: st.Iterations,
		BudgetLeft: st.BudgetLeft,
		Converged:  st.Converged,
		CacheHit:   st.CacheHit,
		Warm:       st.Warm,
	}
}

func (c *collection) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	feature := req.Feature
	if req.Item != nil {
		// The checked accessor turns an out-of-range item id into an
		// errors.Is-able store.ErrOutOfRange → 400, never a panic.
		f, err := c.ds.Feature(*req.Item)
		if err != nil {
			writeError(w, r, statusFor(err), err)
			return
		}
		feature = f
	}
	if feature == nil {
		writeError(w, r, http.StatusBadRequest, errors.New("need item or feature"))
		return
	}
	st, err := c.svc.Open(r.Context(), feature, req.K)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, c.stateResponse(st))
}

func (c *collection) handleSession(w http.ResponseWriter, r *http.Request) {
	var id uint64
	if _, err := fmt.Sscan(r.URL.Query().Get("id"), &id); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad session id: %w", err))
		return
	}
	st, err := c.svc.Query(r.Context(), id)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, c.stateResponse(st))
}

func (c *collection) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req feedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	st, err := c.svc.Feedback(r.Context(), req.Session, req.Scores)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, c.stateResponse(st))
}

func (c *collection) handleClose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req closeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	res, err := c.svc.Close(r.Context(), req.Session)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, closeResponse{
		Collection: c.name,
		Session:    res.ID,
		Iterations: res.Iterations,
		Inserted:   res.Inserted,
	})
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// whose client disconnected before the response was written; no reply
// reaches the client, but logs and metrics distinguish it from server
// faults.
const statusClientClosedRequest = 499

// statusFor maps the service's errors.Is-able sentinels onto HTTP codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errUnknownCollection):
		return http.StatusNotFound
	case errors.Is(err, service.ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, service.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrOutOfDomain), errors.Is(err, service.ErrInvalidArgument):
		return http.StatusBadRequest
	case errors.Is(err, store.ErrOutOfRange):
		// A bounds failure on the serving path is a client-supplied bad
		// index, classified by the store's sentinel instead of reaching
		// the handler as a slice panic.
		return http.StatusBadRequest
	case errors.Is(err, shardedbypass.ErrReplaying):
		// Startup recovery of one shard: retryable, not a server fault.
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrQuotaExceeded):
		// The learned mapping hit its vertex/byte quota: the session's
		// outcome could not be stored. 507 tells the client the store —
		// not the request — is the limit.
		return http.StatusInsufficientStorage
	case errors.Is(err, core.ErrDegraded):
		// Persistence failed and the store flipped to read-only serving:
		// predictions still work, inserts need an operator. Retryable
		// only after intervention — but still 503, not 500: the request
		// was fine.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline expired before the expensive stage.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterFor picks the Retry-After hint (in seconds) for retryable
// rejections, "" for everything else. Overload and replay clear in
// seconds; a degraded store needs an operator (30s probes); a full quota
// needs a raise or a compaction policy change (60s).
func retryAfterFor(err error) string {
	switch {
	case errors.Is(err, service.ErrOverloaded):
		return "1"
	case errors.Is(err, shardedbypass.ErrReplaying):
		return "1"
	case errors.Is(err, context.DeadlineExceeded):
		return "1"
	case errors.Is(err, core.ErrQuotaExceeded):
		return "60"
	case errors.Is(err, core.ErrDegraded):
		return "30"
	default:
		return ""
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("fbserve: encoding response: %v", err)
	}
}

// writeError renders an error body carrying the request ID the hardened
// wrapper minted, so a client holding only the JSON error (not the
// X-Request-Id header) can still quote the exact request to operators.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if ra := retryAfterFor(err); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: requestIDFrom(r)})
}
