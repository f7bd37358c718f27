package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/knn"
	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/service"
)

// The traced run. Spans are recorded from this file only, around the
// calls into each layer through the seams that are injectable from
// outside: engine.Options.Searcher (knn), the service.Bypass interface
// (core) and core.DurableOptions.FS (persist), plus the Service methods
// themselves. The replay is single-client, so the open span is one
// cursor, not a per-goroutine stack.

type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 at the top
	session    int32 // position of the session in the script, -1 outside one
}

type tracer struct {
	epoch   time.Time
	spans   []span
	cur     int32
	session int32
}

func newTracer() *tracer {
	// Sized so a full-length pass appends without growing mid-measurement.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20), cur: -1, session: -1}
}

func (t *tracer) begin(name string) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: t.cur, session: t.session})
	t.cur = i
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.epoch))
	t.cur = t.spans[i].parent
}

// write dumps the spans as a JSON array, one object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		fmt.Fprintf(w, `%s{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"session":%d}`,
			sep, i, s.name, s.start, s.end, s.parent, s.session)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals aggregates the spans of one name from index `from` on.
type spanTotals struct {
	count      int
	durNS      int64
	selfNS     int64 // duration minus the part covered by child spans
	compacting struct {
		count int
		durNS int64
	} // spans with a snapshot rename beneath them
}

func (t *tracer) totals(from int) map[string]*spanTotals {
	child := make([]int64, len(t.spans))
	compacting := make([]bool, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
		if s.name == "persist.snapshot_rename" {
			for p := s.parent; p >= 0; p = t.spans[p].parent {
				compacting[p] = true
			}
		}
	}
	out := make(map[string]*spanTotals)
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		tot := out[s.name]
		if tot == nil {
			tot = &spanTotals{}
			out[s.name] = tot
		}
		d := s.end - s.start
		tot.count++
		tot.durNS += d
		tot.selfNS += d - child[i]
		if compacting[i] {
			tot.compacting.count++
			tot.compacting.durNS += d
		}
	}
	return out
}

// tracedSearcher wraps the exact scan behind engine.Options.Searcher.
type tracedSearcher struct {
	knn.BatchSearcher
	t *tracer
}

func (s tracedSearcher) Search(q []float64, k int, m distance.Metric) ([]knn.Result, error) {
	defer s.t.end(s.t.begin("knn.search"))
	return s.BatchSearcher.Search(q, k, m)
}

func (s tracedSearcher) SearchBatchMulti(qs [][]float64, k int, ms []distance.Metric) ([][]knn.Result, error) {
	defer s.t.end(s.t.begin("knn.search"))
	return s.BatchSearcher.SearchBatchMulti(qs, k, ms)
}

// tracedBypass wraps the learned mapping behind service.Bypass and counts
// which inserts changed the tree.
type tracedBypass struct {
	service.Bypass
	t      *tracer
	stored int
}

func (b *tracedBypass) Predict(q []float64) (core.OQP, error) {
	defer b.t.end(b.t.begin("core.predict"))
	return b.Bypass.Predict(q)
}

func (b *tracedBypass) Insert(q []float64, oqp core.OQP) (bool, error) {
	defer b.t.end(b.t.begin("core.insert"))
	changed, err := b.Bypass.Insert(q, oqp)
	if changed {
		b.stored++
	}
	return changed, err
}

// tracedFS wraps the filesystem seam of the durable module: writes,
// fsyncs and renames get spans, bytes are counted; everything else
// passes through.
type tracedFS struct {
	persist.FS
	t            *tracer
	bytesWritten int64
}

func (fs *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs}, nil
}

func (fs *tracedFS) Rename(oldpath, newpath string) error {
	name := "persist.rename"
	if filepath.Base(newpath) == core.SnapshotFile {
		name = "persist.snapshot_rename"
	}
	defer fs.t.end(fs.t.begin(name))
	return fs.FS.Rename(oldpath, newpath)
}

func (fs *tracedFS) SyncDir(dir string) error {
	defer fs.t.end(fs.t.begin("persist.fsync"))
	return fs.FS.SyncDir(dir)
}

type tracedFile struct {
	persist.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	defer f.fs.t.end(f.fs.t.begin("persist.write"))
	n, err := f.File.Write(p)
	f.fs.bytesWritten += int64(n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	defer f.fs.t.end(f.fs.t.begin("persist.write"))
	n, err := f.File.WriteAt(p, off)
	f.fs.bytesWritten += int64(n)
	return n, err
}

func (f *tracedFile) Sync() error {
	defer f.fs.t.end(f.fs.t.begin("persist.fsync"))
	return f.File.Sync()
}

// inproc is a service.Service assembled the way cmd/fbserve assembles a
// collection, optionally with the tracing wrappers in its seams.
type inproc struct {
	svc     *service.Service
	ds      *dataset.Dataset
	t       *tracer // nil in the untraced pass
	byp     *tracedBypass
	fs      *tracedFS
	durable *core.DurableBypass
}

// fbserve's defaults for the flags no workload sets.
const (
	serveEpsilon     = 0.05
	serveMaxSessions = 1024
	serveCacheSize   = 1024
)

func newInproc(ds *dataset.Dataset, cfg serverConfig, t *tracer) (*inproc, error) {
	p := &inproc{ds: ds, t: t}
	var engOpts engine.Options
	if t != nil {
		scan, err := knn.NewScanBackend(ds.Matrix())
		if err != nil {
			return nil, err
		}
		engOpts.Searcher = tracedSearcher{scan, t}
	}
	eng, err := engine.New(ds, engOpts)
	if err != nil {
		return nil, err
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		return nil, err
	}
	treeCfg := core.Config{Epsilon: serveEpsilon, DefaultWeights: codec.DefaultWeights()}
	reg := obsv.NewRegistry()
	var byp service.Bypass
	if cfg.dir != "" {
		opts := core.DurableOptions{CompactEvery: cfg.compactEvery, Sync: true, Obs: reg}
		if t != nil {
			p.fs = &tracedFS{FS: persist.OSFS, t: t}
			opts.FS = p.fs
		}
		if p.durable, err = core.OpenDurable(cfg.dir, codec.D(), codec.P(), treeCfg, opts); err != nil {
			return nil, err
		}
		byp = p.durable
	} else if byp, err = core.New(codec.D(), codec.P(), treeCfg); err != nil {
		return nil, err
	}
	if t != nil {
		p.byp = &tracedBypass{Bypass: byp, t: t}
		byp = p.byp
	}
	p.svc, err = service.New(eng, byp, service.Options{
		MaxSessions:     serveMaxSessions,
		IterationBudget: cfg.iterBudget,
		CacheSize:       serveCacheSize,
		DefaultK:        resultsK,
		Obs:             reg,
	})
	return p, err
}

func (p *inproc) span(name string) func() {
	if p.t == nil {
		return func() {}
	}
	i := p.t.begin(name)
	return func() { p.t.end(i) }
}

func (p *inproc) state(st service.SessionState) state {
	results := make([]item, len(st.Results))
	for i, r := range st.Results {
		results[i] = item{Index: r.Index, Category: p.ds.Items[r.Index].Category}
	}
	return state{session: st.ID, results: results, budgetLeft: st.BudgetLeft, converged: st.Converged}
}

func (p *inproc) open(q int) (state, error) {
	feature, err := p.ds.Feature(q)
	if err != nil {
		return state{}, err
	}
	if p.t != nil {
		p.t.session++
	}
	defer p.span("service.open")()
	st, err := p.svc.Open(context.Background(), feature, resultsK)
	if err != nil {
		return state{}, err
	}
	return p.state(st), nil
}

func (p *inproc) feedback(session uint64, scores []float64) (state, error) {
	defer p.span("service.feedback")()
	st, err := p.svc.Feedback(context.Background(), session, scores)
	if err != nil {
		return state{}, err
	}
	return p.state(st), nil
}

func (p *inproc) close(session uint64) (bool, error) {
	defer p.span("service.close")()
	res, err := p.svc.Close(context.Background(), session)
	return res.Inserted, err
}

// runTraced replays the latency-phase script in process against two
// services — one bare, one with the wrappers — and derives the per-layer
// numbers the HTTP passes cannot see. The two replay in lockstep, session
// by session, so a drift of the machine's speed lands on both alike and
// their ratio is the tracing overhead. httpSessionMS is the HTTP run's
// mean session time, the base of knn.search_share.
func runTraced(w workload, z sizing, ds *dataset.Dataset, sc script, tmpRoot, outDir string, httpSessionMS float64) (passResult, error) {
	var res passResult
	var procs [2]*inproc
	var tracedDir string
	for i, t := range []*tracer{nil, newTracer()} {
		var dir string
		if w.durable {
			var err error
			if dir, err = os.MkdirTemp(tmpRoot, "traced-"); err != nil {
				return res, err
			}
			defer os.RemoveAll(dir)
			tracedDir = dir // the wrapped service is built last; its directory is the one kept
		}
		p, err := newInproc(ds, w.config(z, dir), t)
		if err != nil {
			return res, err
		}
		procs[i] = p
		var pre phaseStats
		setUp(p, ds, sc, &pre)
		play(p, ds, sc.warm, &pre)
		res.add(&pre)
	}
	traced := procs[1]
	from := len(traced.t.spans)
	var lats [2]phaseStats
	scores := make([]float64, resultsK)
	for _, q := range sc.lat {
		for i, p := range procs {
			playSession(p, ds, q, scores, &lats[i])
		}
	}
	for i, p := range procs {
		if p.durable != nil {
			if err := p.durable.Close(); err != nil {
				return res, err
			}
		}
		res.add(&lats[i])
	}
	bare, lat := lats[0], lats[1]
	if bare.sessions == 0 || lat.sessions == 0 {
		return res, fmt.Errorf("%s: traced run completed no session: %v", w.name, res.firstErr)
	}
	if err := traced.t.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return res, err
	}

	tot := traced.t.totals(from)
	get := func(name string) spanTotals {
		if t := tot[name]; t != nil {
			return *t
		}
		return spanTotals{}
	}
	meanUS := func(ns int64, n int) float64 { return ratio(float64(ns)/1e3, float64(n)) }
	n := float64(lat.sessions)
	predict, insert, search := get("core.predict"), get("core.insert"), get("knn.search")
	write, fsync := get("persist.write"), get("persist.fsync")
	stored := float64(lat.stored)

	m := values{
		"core.predict_calls_per_session": float64(predict.count) / n,
		"core.predict_us":                meanUS(predict.durNS, predict.count),
		"core.insert_us":                 meanUS(insert.durNS, insert.count),
		"core.insert_stored_rate":        ratio(stored, float64(insert.count)),

		"knn.search_calls_per_session": float64(search.count) / n,
		"knn.search_us":                meanUS(search.durNS, search.count),
		"knn.rows_per_session":         float64(search.count) * float64(ds.Len()) / n,
		"knn.search_share":             ratio(float64(search.durNS)/1e6/n, httpSessionMS),

		"persist.write_calls_per_insert":   ratio(float64(write.count), stored),
		"persist.bytes_written_per_insert": 0,
		"persist.fsyncs_per_insert":        ratio(float64(fsync.count), stored),
		"persist.fsync_us":                 meanUS(fsync.durNS, fsync.count),
		"persist.write_us":                 meanUS(write.durNS, write.count),
		"persist.compactions":              float64(get("persist.snapshot_rename").count),
		"persist.compaction_ms":            meanUS(insert.compacting.durNS, insert.compacting.count) / 1e3,
		"persist.dir_bytes_end":            0,
		"persist.replay_ms":                0,

		"trace.inproc_session_us": mean(bare.session) * 1e3,
		"trace.overhead_ratio":    mean(lat.session) / mean(bare.session),
		"trace.spans":             float64(len(traced.t.spans) - from),
	}
	for _, op := range []string{"open", "feedback", "close"} {
		s := get("service." + op)
		m["service."+op+"_self_us"] = meanUS(s.selfNS, s.count)
	}
	if w.durable {
		// bytesWritten also covers set-up and warm-up; so does the insert
		// count it is divided by.
		m["persist.bytes_written_per_insert"] = ratio(float64(traced.fs.bytesWritten), float64(traced.byp.stored))
		size, err := dirBytes(tracedDir)
		if err != nil {
			return res, err
		}
		m["persist.dir_bytes_end"] = float64(size)
		replayMS, points, err := timeReplay(tracedDir, ds.Dim, w.config(z, tracedDir))
		if err != nil {
			return res, err
		}
		m["persist.replay_ms"] = replayMS
		var check phaseStats
		check.attempted++
		if points != traced.byp.stored {
			check.fail(fmt.Errorf("in-process replay recovered %d points, %d inserts were stored", points, traced.byp.stored))
		}
		res.add(&check)
	}
	res.metrics = m
	return res, nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// timeReplay opens the durable module left by the traced pass: snapshot
// load plus WAL replay, the in-process core of recovery_s.
func timeReplay(dir string, bins int, cfg serverConfig) (msTaken float64, points int, err error) {
	codec, err := core.NewHistogramCodec(bins)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	db, err := core.OpenDurable(dir, codec.D(), codec.P(),
		core.Config{Epsilon: serveEpsilon, DefaultWeights: codec.DefaultWeights()},
		core.DurableOptions{CompactEvery: cfg.compactEvery, Sync: true})
	if err != nil {
		return 0, 0, err
	}
	msTaken = ms(time.Since(t0))
	points = db.Stats().Points
	return msTaken, points, db.Close()
}
