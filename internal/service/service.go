// Package service is the concurrent multi-session serving layer of the
// reproduction: the long-lived process that places FeedbackBypass beside a
// live interactive retrieval system (Figure 4 of the paper) and serves
// many user sessions against one shared engine and one shared learned
// mapping.
//
// A session is one user's interactive loop: Open predicts OQPs for the
// query (through an LRU prediction cache keyed by the engine's FNV query
// signature), warm-starts retrieval from the predicted parameters, and
// returns the first result list; Feedback applies one round of
// user-provided relevance scores (the externally driven form of the
// Figure 5 loop) and re-retrieves; Close inserts the converged OQPs into
// the shared Bypass — the moment the whole service learns from the
// session. Query reads the session's current state without advancing it.
//
// Concurrency model (see DESIGN.md, "Serving layer"):
//
//   - the session table is guarded by one RWMutex; per-session state by a
//     per-session mutex, so sessions never contend with each other except
//     on the table's short map operations;
//   - retrieval (knn.Scan) is stateless and prediction (simplextree) is
//     read-locked, so any number of sessions retrieve and predict in
//     parallel; only Insert takes the tree's exclusive lock;
//   - admission control bounds in-flight sessions (ErrOverloaded beyond
//     Options.MaxSessions) and a per-session iteration budget bounds each
//     feedback loop, so one slow or adversarial session cannot starve the
//     rest;
//   - the prediction cache is invalidated generationally: an insert that
//     changes the tree bumps the generation and drops every entry, and a
//     prediction raced by such an insert is never cached, so a cached
//     prediction is always bitwise identical to an uncached one.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/knn"
	"repro/internal/obsv"
	"repro/internal/shardedbypass"
	"repro/internal/simplextree"
	"repro/internal/vec"
)

// ErrSessionNotFound is returned for operations on a session ID that was
// never opened or has already been closed.
var ErrSessionNotFound = errors.New("service: session not found")

// ErrOverloaded is returned by Open when the service is at its in-flight
// session bound; callers should back off and retry.
var ErrOverloaded = errors.New("service: too many in-flight sessions")

// ErrInvalidArgument wraps client-input failures (wrong query
// dimensionality, score-count mismatches, malformed scores) so transports
// can classify them with errors.Is instead of string-matching.
var ErrInvalidArgument = errors.New("service: invalid argument")

// Bypass is the learned-mapping dependency of the service: the in-memory
// core.Bypass, the WAL-backed core.DurableBypass and the partitioned
// shardedbypass.Sharded all satisfy it.
type Bypass interface {
	D() int
	P() int
	Predict(q []float64) (core.OQP, error)
	Insert(q []float64, oqp core.OQP) (bool, error)
	Stats() simplextree.Stats
}

// ShardedBypass is the one optional surface of a Bypass, implemented by
// shardedbypass.Sharded — the module the serving stack constructs, at
// every shard count including 1. A Bypass that provides it gets:
//
//   - per-shard cache generations: an insert into shard k invalidates
//     only shard k's cached predictions, and Stats reports per-shard
//     counters. Routing is the pinned partition function engine.ShardOf —
//     QuerySignature mod NumShards — so the service derives an entry's
//     shard from the cache key it already computed;
//   - health: Degraded reports the sticky persistence failure that
//     flipped a shard to read-only serving (nil while healthy), surfaced
//     in Stats so transports can expose it without probing with writes;
//   - lifecycle: CompactAged rebuilds every shard's tree keeping only
//     vertices reinforced within the aging horizon and reports one
//     CompactionStats per shard, indexed by shard id. The service exposes
//     it as Service.CompactAged so compaction runs through the layer that
//     owns the prediction cache — a pass that reclaims vertices changes
//     prediction outputs and must invalidate the affected shards' entries.
//
// A plain five-method Bypass (core.Bypass, core.DurableBypass, a test
// fake) behaves as one healthy, non-compactable shard.
type ShardedBypass interface {
	Bypass
	NumShards() int
	ShardInfos() []shardedbypass.ShardInfo
	Degraded() error
	CompactAged() ([]core.CompactionStats, error)
}

// Options tunes the serving layer.
type Options struct {
	// MaxSessions bounds concurrently open sessions; Open returns
	// ErrOverloaded beyond it. Default 1024.
	MaxSessions int
	// IterationBudget bounds feedback rounds per session; a session that
	// reaches it is reported converged with BudgetLeft 0. Default
	// engine.DefaultMaxIterations.
	IterationBudget int
	// CacheSize bounds the LRU prediction cache (entries). 0 selects the
	// default (1024); negative disables caching.
	CacheSize int
	// DefaultK is the result-list size used when Open is called with
	// k <= 0. Default 10.
	DefaultK int
	// Obs, when non-nil, registers the serving-layer instruments
	// (request latency histograms, per-outcome request counters, cache
	// hit/miss counters, live-session and cache-size gauges) in the
	// given registry. Nil disables instrumentation: the request path
	// then takes no clock readings at all.
	Obs *obsv.Registry
	// ObsLabels are attached to every instrument the service registers
	// (typically the collection name).
	ObsLabels []obsv.Label
}

func (o *Options) fill() {
	if o.MaxSessions == 0 {
		o.MaxSessions = 1024
	}
	if o.IterationBudget == 0 {
		o.IterationBudget = engine.DefaultMaxIterations
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.DefaultK == 0 {
		o.DefaultK = 10
	}
}

// Service is a thread-safe multi-session FeedbackBypass server over one
// shared engine and one shared Bypass.
type Service struct {
	eng    *engine.Engine
	byp    Bypass
	module ShardedBypass // byp's sharded-module surface; nil for a plain Bypass
	shards int           // module.NumShards(); 1 for a plain Bypass
	codec  core.HistogramCodec
	opts   Options
	cache  *predictionCache // nil when disabled

	mu       sync.RWMutex
	sessions map[uint64]*session
	nextID   uint64

	// counters (atomic: bumped outside the table lock)
	opened      atomic.Int64
	rejected    atomic.Int64
	closed      atomic.Int64
	feedbacks   atomic.Int64
	predictions atomic.Int64
	cacheHits   atomic.Int64
	warmStarts  atomic.Int64
	inserts     atomic.Int64
	stored      atomic.Int64
	// Resource-governance rejections, classified from Close's insert path:
	// quotaRejects counts outcomes refused by the store's vertex/byte
	// quota, degradedRejects outcomes refused because the store had flipped
	// to read-only after a persistence failure. In both cases the session
	// itself completed normally — only the learning was lost.
	quotaRejects    atomic.Int64
	degradedRejects atomic.Int64
	// Lifecycle counters: compactions driven through Service.CompactAged
	// and the vertices those passes reclaimed. Compactions triggered
	// below the service (quota-pressure compact-then-retry inside the
	// store) are visible in the per-shard ShardInfo counters instead.
	compactions        atomic.Int64
	reclaimedByService atomic.Int64

	met *svcMetrics // nil when Options.Obs is nil
}

// Request-path operations and outcomes, indexing the pre-created
// instrument arrays of svcMetrics so the hot path never allocates or
// hashes a label set.
const (
	opOpen = iota
	opFeedback
	opClose
	opQuery
	opPredict
	numOps
)

var opNames = [numOps]string{"open", "feedback", "close", "query", "predict"}

const (
	outOK = iota
	outInvalid
	outOverloaded
	outNotFound
	outCanceled
	outDeadline
	outQuota
	outDegraded
	outReplaying
	outError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "invalid_argument", "overloaded", "not_found", "canceled",
	"deadline_exceeded", "quota_exceeded", "degraded", "replaying", "error",
}

// classifyOutcome maps a request error to its outcome bucket using the
// same sentinel taxonomy transports use for HTTP status codes.
func classifyOutcome(err error) int {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, ErrInvalidArgument), errors.Is(err, core.ErrOutOfDomain):
		return outInvalid
	case errors.Is(err, ErrOverloaded):
		return outOverloaded
	case errors.Is(err, ErrSessionNotFound):
		return outNotFound
	case errors.Is(err, context.Canceled):
		return outCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return outDeadline
	case errors.Is(err, core.ErrQuotaExceeded):
		return outQuota
	case errors.Is(err, core.ErrDegraded):
		return outDegraded
	case errors.Is(err, shardedbypass.ErrReplaying):
		return outReplaying
	default:
		return outError
	}
}

// svcMetrics holds every pre-created serving-layer instrument. Creating
// them once at New time keeps the request path allocation-free: an
// observation is two atomic adds plus (for histograms) a CAS loop.
type svcMetrics struct {
	lat       [numOps]*obsv.Histogram
	req       [numOps][numOutcomes]*obsv.Counter
	cacheHit  *obsv.Counter
	cacheMiss *obsv.Counter
}

func newSvcMetrics(reg *obsv.Registry, labels []obsv.Label) *svcMetrics {
	m := &svcMetrics{}
	for op := 0; op < numOps; op++ {
		ls := append(append([]obsv.Label(nil), labels...), obsv.L("op", opNames[op]))
		m.lat[op] = reg.Histogram("fb_service_request_seconds", "Serving-layer request latency by operation.", obsv.LatencyBounds(), ls...)
		for out := 0; out < numOutcomes; out++ {
			rls := append(append([]obsv.Label(nil), ls...), obsv.L("outcome", outcomeNames[out]))
			m.req[op][out] = reg.Counter("fb_service_requests_total", "Serving-layer requests by operation and outcome.", rls...)
		}
	}
	m.cacheHit = reg.Counter("fb_service_cache_requests_total", "Prediction-cache lookups by result.",
		append(append([]obsv.Label(nil), labels...), obsv.L("result", "hit"))...)
	m.cacheMiss = reg.Counter("fb_service_cache_requests_total", "Prediction-cache lookups by result.",
		append(append([]obsv.Label(nil), labels...), obsv.L("result", "miss"))...)
	return m
}

// done records one finished request: latency into the op's histogram and
// a count into the (op, outcome) counter.
func (m *svcMetrics) done(op int, t0 time.Time, err error) {
	m.lat[op].ObserveSince(t0)
	m.req[op][classifyOutcome(err)].Inc()
}

// session is one user's in-flight interactive loop.
type session struct {
	id uint64
	mu sync.Mutex

	q0        []float64 // initial query feature (full histogram)
	q, w      []float64 // current query point and weights
	k         int
	results   []knn.Result
	seen      map[uint64]bool // result-list signatures, for cycle detection
	iters     int
	budget    int
	cacheHit  bool
	warm      bool // predicted OQP differed from the untrained default
	converged bool
	closed    bool
}

// New validates that the engine's collection and the Bypass agree on the
// histogram geometry (D = P = dim−1) and returns a serving layer over
// them. The Bypass may be shared with other writers (e.g. a background
// trainer); the service's cache stays correct as long as every insert
// goes through the service.
func New(eng *engine.Engine, byp Bypass, opts Options) (*Service, error) {
	if eng == nil {
		return nil, errors.New("service: nil engine")
	}
	if byp == nil {
		return nil, errors.New("service: nil bypass")
	}
	if opts.MaxSessions < 0 {
		return nil, fmt.Errorf("service: negative MaxSessions %d", opts.MaxSessions)
	}
	if opts.IterationBudget < 0 {
		return nil, fmt.Errorf("service: negative IterationBudget %d", opts.IterationBudget)
	}
	opts.fill()
	codec, err := core.NewHistogramCodec(eng.Dataset().Dim)
	if err != nil {
		return nil, err
	}
	if byp.D() != codec.D() || byp.P() != codec.P() {
		return nil, fmt.Errorf("service: bypass is D=%d P=%d, want D=P=%d for a %d-bin collection",
			byp.D(), byp.P(), codec.D(), eng.Dataset().Dim)
	}
	s := &Service{
		eng:      eng,
		byp:      byp,
		codec:    codec,
		opts:     opts,
		sessions: make(map[uint64]*session),
		nextID:   1,
		shards:   1,
	}
	if module, ok := byp.(ShardedBypass); ok {
		s.module = module
		s.shards = module.NumShards()
	}
	if opts.CacheSize > 0 {
		s.cache = newPredictionCache(opts.CacheSize, s.shards)
	}
	if opts.Obs != nil {
		s.met = newSvcMetrics(opts.Obs, opts.ObsLabels)
		opts.Obs.GaugeFunc("fb_service_sessions_active", "Sessions currently open.", func() float64 {
			s.mu.RLock()
			n := len(s.sessions)
			s.mu.RUnlock()
			return float64(n)
		}, opts.ObsLabels...)
		opts.Obs.GaugeFunc("fb_service_cache_entries", "Prediction-cache entries resident.", func() float64 {
			if s.cache == nil {
				return 0
			}
			return float64(s.cache.Len())
		}, opts.ObsLabels...)
	}
	return s, nil
}

// Degraded reports the sticky persistence failure that flipped the
// underlying module (or one of its shards) to read-only serving, or nil —
// when the module is healthy, or when the Bypass is a plain one (which
// the service treats as always healthy).
func (s *Service) Degraded() error {
	if s.module == nil {
		return nil
	}
	return s.module.Degraded()
}

// Codec returns the histogram codec the service maps queries with.
func (s *Service) Codec() core.HistogramCodec { return s.codec }

// Engine returns the shared retrieval engine.
func (s *Service) Engine() *engine.Engine { return s.eng }

// SessionState is a snapshot of one session, returned by every lifecycle
// method. Results is a fresh copy the caller owns.
type SessionState struct {
	ID         uint64
	K          int
	Results    []knn.Result
	Iterations int
	BudgetLeft int
	Converged  bool
	// CacheHit reports whether Open served the prediction from the LRU
	// cache; Warm whether the predicted OQP differed from the untrained
	// default (i.e. the tree had learned something for this region).
	CacheHit bool
	Warm     bool
}

func (sess *session) stateLocked() SessionState {
	res := make([]knn.Result, len(sess.results))
	copy(res, sess.results)
	return SessionState{
		ID:         sess.id,
		K:          sess.k,
		Results:    res,
		Iterations: sess.iters,
		BudgetLeft: sess.budget - sess.iters,
		Converged:  sess.converged,
		CacheHit:   sess.cacheHit,
		Warm:       sess.warm,
	}
}

// predict answers the Mopt lookup through the LRU cache. The per-shard
// generation fence makes a cached entry impossible to go stale: a Put
// races an invalidation of its own shard only in the discarded
// direction, and inserts into other shards cannot touch this entry's
// tree at all.
func (s *Service) predict(qp []float64) (core.OQP, bool, error) {
	s.predictions.Add(1)
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	if s.cache == nil {
		oqp, err := s.byp.Predict(qp)
		if s.met != nil {
			s.met.done(opPredict, t0, err)
			s.met.cacheMiss.Inc()
		}
		return oqp, false, err
	}
	sig := engine.QuerySignature(qp)
	if oqp, ok := s.cache.Get(sig, qp); ok {
		s.cacheHits.Add(1)
		if s.met != nil {
			s.met.done(opPredict, t0, nil)
			s.met.cacheHit.Inc()
		}
		return oqp, true, nil
	}
	// The shard is the signature reduced mod S (the pinned partition
	// function), so the cache key already in hand names it — no second
	// pass over the query point.
	shard := int(sig % uint64(s.shards))
	gen := s.cache.Generation(shard)
	oqp, err := s.byp.Predict(qp)
	if s.met != nil {
		s.met.done(opPredict, t0, err)
		s.met.cacheMiss.Inc()
	}
	if err != nil {
		return core.OQP{}, false, err
	}
	s.cache.Put(shard, gen, sig, qp, oqp)
	return oqp, false, nil
}

// isDefaultOQP reports whether the prediction is the untrained module's
// answer: zero offset and neutral (zero log-ratio) weights.
func isDefaultOQP(oqp core.OQP) bool {
	for _, x := range oqp.Delta {
		if x != 0 {
			return false
		}
	}
	for _, x := range oqp.Weights {
		if x != 0 {
			return false
		}
	}
	return true
}

// Open admits a new session for the given query feature (a normalized
// histogram of the collection's dimensionality): it predicts OQPs through
// the cache, warm-starts retrieval from the predicted parameters, and
// returns the session's first state. k <= 0 selects Options.DefaultK.
// Position failures wrap core.ErrOutOfDomain; admission failures wrap
// ErrOverloaded.
//
// ctx bounds the request: a cancelled or expired context aborts before
// the admission slot is taken and again before the retrieval scan, and
// the returned error is the context's (context.Canceled /
// context.DeadlineExceeded), so transports can map client disconnects
// and deadline overruns distinctly.
func (s *Service) Open(ctx context.Context, feature []float64, k int) (SessionState, error) {
	if s.met == nil {
		return s.open(ctx, feature, k)
	}
	t0 := time.Now()
	st, err := s.open(ctx, feature, k)
	s.met.done(opOpen, t0, err)
	return st, err
}

func (s *Service) open(ctx context.Context, feature []float64, k int) (SessionState, error) {
	if err := ctx.Err(); err != nil {
		return SessionState{}, err
	}
	dim := s.eng.Dataset().Dim
	if len(feature) != dim {
		return SessionState{}, fmt.Errorf("query has %d bins, want %d: %w", len(feature), dim, ErrInvalidArgument)
	}
	if k <= 0 {
		k = s.opts.DefaultK
	}
	// A k beyond the collection returns the whole collection anyway, but
	// the scan pre-allocates k-sized result buffers per worker — so an
	// unclamped client-supplied k is a one-request memory bomb.
	if k > s.eng.Dataset().Len() {
		k = s.eng.Dataset().Len()
	}
	qp, err := s.codec.QueryPoint(feature)
	if err != nil {
		return SessionState{}, err
	}

	// Reserve the admission slot first (cheap, under the table lock); the
	// expensive predict+retrieve runs outside it, with the half-built
	// session holding its own lock so concurrent lookups block rather
	// than observe a torn session.
	sess := &session{
		k:      k,
		budget: s.opts.IterationBudget,
		seen:   make(map[uint64]bool),
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.rejected.Add(1)
		return SessionState{}, fmt.Errorf("service: %d sessions in flight: %w", s.opts.MaxSessions, ErrOverloaded)
	}
	sess.id = s.nextID
	s.nextID++
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	abort := func(err error) (SessionState, error) {
		// Mark the session closed before unpublishing: a concurrent
		// lookup that grabbed the pointer before the delete blocks on
		// sess.mu (held until Open returns) and must then see a dead
		// session, not a half-built live one.
		sess.closed = true
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		return SessionState{}, err
	}
	oqp, cacheHit, err := s.predict(qp)
	if err != nil {
		return abort(err)
	}
	qPred, wPred, err := s.codec.DecodeOQP(feature, oqp)
	if err != nil {
		return abort(err)
	}
	// Re-check before the scan — the one stage whose cost scales with the
	// collection; a client that disconnected during admission should not
	// burn a full k-NN pass.
	if err := ctx.Err(); err != nil {
		return abort(err)
	}
	results, err := s.eng.Retrieve(qPred, wPred, k)
	if err != nil {
		return abort(err)
	}
	sess.q0 = vec.Clone(feature)
	sess.q, sess.w = qPred, wPred
	sess.results = results
	sess.seen[engine.ResultSignature(results)] = true
	sess.cacheHit = cacheHit
	sess.warm = !isDefaultOQP(oqp)
	s.opened.Add(1)
	if sess.warm {
		s.warmStarts.Add(1)
	}
	return sess.stateLocked(), nil
}

// lookup returns the live session for id.
func (s *Service) lookup(id uint64) (*session, error) {
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		return nil, fmt.Errorf("service: session %d: %w", id, ErrSessionNotFound)
	}
	return sess, nil
}

// Query returns the session's current state without advancing it.
func (s *Service) Query(ctx context.Context, id uint64) (SessionState, error) {
	if s.met == nil {
		return s.query(ctx, id)
	}
	t0 := time.Now()
	st, err := s.query(ctx, id)
	s.met.done(opQuery, t0, err)
	return st, err
}

func (s *Service) query(ctx context.Context, id uint64) (SessionState, error) {
	if err := ctx.Err(); err != nil {
		return SessionState{}, err
	}
	sess, err := s.lookup(id)
	if err != nil {
		return SessionState{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return SessionState{}, fmt.Errorf("service: session %d: %w", id, ErrSessionNotFound)
	}
	return sess.stateLocked(), nil
}

// Feedback applies one round of relevance scores (one per current result,
// non-negative, 0 = irrelevant) to the session: parameters are refined,
// retrieval re-runs, and the new state is returned. A session that has
// converged — stable result list, no good matches to learn from, or
// exhausted iteration budget — is returned unchanged with Converged set;
// the client should Close it.
func (s *Service) Feedback(ctx context.Context, id uint64, scores []float64) (SessionState, error) {
	if s.met == nil {
		return s.feedback(ctx, id, scores)
	}
	t0 := time.Now()
	st, err := s.feedback(ctx, id, scores)
	s.met.done(opFeedback, t0, err)
	return st, err
}

func (s *Service) feedback(ctx context.Context, id uint64, scores []float64) (SessionState, error) {
	if err := ctx.Err(); err != nil {
		return SessionState{}, err
	}
	sess, err := s.lookup(id)
	if err != nil {
		return SessionState{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return SessionState{}, fmt.Errorf("service: session %d: %w", id, ErrSessionNotFound)
	}
	if sess.converged || sess.iters >= sess.budget {
		sess.converged = true
		return sess.stateLocked(), nil
	}
	if len(scores) != len(sess.results) {
		return SessionState{}, fmt.Errorf("%d scores for %d results: %w", len(scores), len(sess.results), ErrInvalidArgument)
	}
	s.feedbacks.Add(1)
	newQ, newW, err := s.eng.RefineFromScores(sess.q, sess.results, scores)
	if errors.Is(err, feedback.ErrNoGoodMatches) {
		// Nothing to learn from: the loop terminates with the current
		// parameters, exactly like engine.RunLoop.
		sess.converged = true
		return sess.stateLocked(), nil
	}
	if err != nil {
		// The session's own state is validated; a refine failure means the
		// scores were malformed (NaN, negative, ...) — a client error.
		return SessionState{}, fmt.Errorf("%w: %w", err, ErrInvalidArgument)
	}
	// As in Open: abort before the collection-sized scan if the client is
	// gone or the deadline has passed. The session is unchanged (q, w and
	// results only update after a successful retrieve), so a retried
	// Feedback with the same scores reproduces this round exactly.
	if err := ctx.Err(); err != nil {
		return SessionState{}, err
	}
	newResults, err := s.eng.Retrieve(newQ, newW, sess.k)
	if err != nil {
		return SessionState{}, err
	}
	sess.q, sess.w = newQ, newW
	sess.iters++
	if knn.SameIndexSet(newResults, sess.results) {
		sess.converged = true
	}
	sess.results = newResults
	sig := engine.ResultSignature(newResults)
	if sess.seen[sig] {
		sess.converged = true
	}
	sess.seen[sig] = true
	if sess.iters >= sess.budget {
		sess.converged = true
	}
	return sess.stateLocked(), nil
}

// CloseResult reports what Close did with the session.
type CloseResult struct {
	ID         uint64
	Iterations int
	// Inserted reports whether the session's converged OQPs changed the
	// shared Bypass (an outcome within ε of the current prediction is
	// skipped, §4.2; a session that never gave feedback is not inserted).
	Inserted bool
}

// Close ends the session and — when the session actually refined its
// parameters — inserts the converged OQPs into the shared Bypass, making
// the outcome available to every future session. The session is removed
// even when the insert fails; an insert refused by the store's quota or
// its degraded read-only mode returns the typed sentinel
// (core.ErrQuotaExceeded / core.ErrDegraded) so transports can map it,
// while the session itself still closed cleanly.
//
// ctx is consulted only before the session is unpublished: once Close
// commits to removing the session it finishes the insert even if the
// client disconnects, so a learned outcome is never dropped halfway.
func (s *Service) Close(ctx context.Context, id uint64) (CloseResult, error) {
	if s.met == nil {
		return s.closeSession(ctx, id)
	}
	t0 := time.Now()
	res, err := s.closeSession(ctx, id)
	s.met.done(opClose, t0, err)
	return res, err
}

func (s *Service) closeSession(ctx context.Context, id uint64) (CloseResult, error) {
	if err := ctx.Err(); err != nil {
		return CloseResult{}, err
	}
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return CloseResult{}, fmt.Errorf("service: session %d: %w", id, ErrSessionNotFound)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.closed = true
	s.closed.Add(1)
	out := CloseResult{ID: id, Iterations: sess.iters}
	if sess.iters == 0 {
		// No feedback was given: the final parameters are the prediction
		// itself; re-inserting it teaches the tree nothing.
		return out, nil
	}
	qp, err := s.codec.QueryPoint(sess.q0)
	if err != nil {
		return out, err
	}
	oqp, err := s.codec.EncodeOQP(sess.q0, sess.q, sess.w)
	if err != nil {
		return out, err
	}
	s.inserts.Add(1)
	changed, err := s.byp.Insert(qp, oqp)
	if err != nil {
		switch {
		case errors.Is(err, core.ErrQuotaExceeded):
			s.quotaRejects.Add(1)
		case errors.Is(err, core.ErrDegraded):
			s.degradedRejects.Add(1)
		}
		return out, err
	}
	out.Inserted = changed
	if changed {
		s.stored.Add(1)
	}
	if changed && s.cache != nil {
		// One shard's tree changed: cached predictions computed by that
		// shard may now differ from fresh ones. Generation-bump-and-drop
		// scoped to the shard keeps the parity guarantee without touching
		// entries the insert cannot have affected.
		s.cache.Invalidate(engine.ShardOf(qp, s.shards))
	}
	return out, nil
}

// Drain closes every in-flight session (inserting converged outcomes) and
// returns how many sessions were closed and how many inserts changed the
// Bypass. It is the graceful-shutdown path of cmd/fbserve; ctx bounds the
// sweep — when it expires, Drain stops and reports the context error
// alongside whatever it managed to close.
func (s *Service) Drain(ctx context.Context) (closedSessions, inserted int, err error) {
	s.mu.RLock()
	ids := make([]uint64, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	var firstErr error
	for _, id := range ids {
		if cerr := ctx.Err(); cerr != nil {
			if firstErr == nil {
				firstErr = cerr
			}
			break
		}
		res, cerr := s.Close(ctx, id)
		if errors.Is(cerr, ErrSessionNotFound) {
			continue // raced with a client Close; already gone
		}
		closedSessions++
		if cerr != nil && firstErr == nil {
			firstErr = cerr
		}
		if res.Inserted {
			inserted++
		}
	}
	return closedSessions, inserted, firstErr
}

// ErrNotCompactable is returned by CompactAged when the underlying
// Bypass is not a ShardedBypass.
var ErrNotCompactable = errors.New("service: bypass does not support compaction")

// CompactAged runs one aging pass over the shared Bypass: every shard
// rebuilds its tree keeping only vertices reinforced within the aging
// horizon (corner vertices always survive; a zero horizon reclaims
// nothing). It returns one CompactionStats per shard, indexed by shard
// id.
//
// The service owns the prediction-cache coherence: a shard whose pass
// reclaimed vertices serves different predictions afterwards, so its
// cache generation is bumped — and only its generation, so a pass that
// reclaims from shard 3 alone cannot evict shard 5's still-valid
// entries. Shards with Reclaimed == 0 rebuilt into a geometrically
// identical tree (re-inserting the same census is deterministic) and
// keep their cached predictions.
//
// A partial failure (one shard degraded or mid-replay) still compacts
// and invalidates the shards that succeeded; the joined error reports
// the rest. ctx is consulted only on entry — once a pass starts, the
// atomic snapshot+WAL swap must complete.
func (s *Service) CompactAged(ctx context.Context) ([]core.CompactionStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.module == nil {
		return nil, ErrNotCompactable
	}
	stats, err := s.module.CompactAged()
	for shard, st := range stats {
		if st.Reclaimed > 0 {
			s.reclaimedByService.Add(int64(st.Reclaimed))
			if s.cache != nil {
				s.cache.Invalidate(shard)
			}
		}
	}
	if len(stats) > 0 {
		s.compactions.Add(1)
	}
	return stats, err
}

// ShardStat is one bypass shard's counters as the serving layer sees
// them: the shard's own state (tree shape, accepted inserts, journal
// depth, WAL bytes) plus the prediction cache's invalidation generation
// for that shard.
type ShardStat struct {
	shardedbypass.ShardInfo
	CacheGen uint64 `json:"cache_gen"`
}

// Stats is a point-in-time snapshot of the serving layer.
type Stats struct {
	ActiveSessions int   `json:"active_sessions"`
	Opened         int64 `json:"opened"`
	Rejected       int64 `json:"rejected"`
	Closed         int64 `json:"closed"`
	Feedbacks      int64 `json:"feedbacks"`
	Predictions    int64 `json:"predictions"`
	CacheHits      int64 `json:"cache_hits"`
	CacheEntries   int   `json:"cache_entries"`
	WarmStarts     int64 `json:"warm_starts"`
	Inserts        int64 `json:"inserts"`
	InsertsStored  int64 `json:"inserts_stored"`

	// Retrieval names the engine's active retrieval tier — "scan", or an
	// approximate index like "ivf(nlist=64,nprobe=8,quant=f32)" — so
	// operators can see which tier is answering queries.
	Retrieval string `json:"retrieval,omitempty"`

	// Degraded carries the store's sticky persistence failure (empty while
	// healthy): the module — or at least one shard — serves reads but
	// rejects inserts. QuotaRejects / DegradedRejects count session
	// outcomes the store refused to learn from, by cause.
	Degraded        string `json:"degraded,omitempty"`
	QuotaRejects    int64  `json:"quota_rejects,omitempty"`
	DegradedRejects int64  `json:"degraded_rejects,omitempty"`

	// Lifecycle: Compactions counts aging passes driven through
	// Service.CompactAged; Reclaimed sums the vertices those passes
	// removed. (Store-internal quota-pressure compactions appear in the
	// per-shard counters of Shards, not here.)
	Compactions int64 `json:"compactions,omitempty"`
	Reclaimed   int64 `json:"reclaimed,omitempty"`

	// Tree aggregates every shard (the whole learned mapping); Shards
	// breaks it down per partition when the Bypass is a ShardedBypass.
	Tree   simplextree.Stats `json:"tree"`
	Shards []ShardStat       `json:"shards,omitempty"`
}

// Stats snapshots the service counters and the shared tree's shape,
// including per-shard counters when the Bypass is a ShardedBypass.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	active := len(s.sessions)
	s.mu.RUnlock()
	st := Stats{
		ActiveSessions:  active,
		Opened:          s.opened.Load(),
		Rejected:        s.rejected.Load(),
		Closed:          s.closed.Load(),
		Feedbacks:       s.feedbacks.Load(),
		Predictions:     s.predictions.Load(),
		CacheHits:       s.cacheHits.Load(),
		WarmStarts:      s.warmStarts.Load(),
		Inserts:         s.inserts.Load(),
		InsertsStored:   s.stored.Load(),
		QuotaRejects:    s.quotaRejects.Load(),
		DegradedRejects: s.degradedRejects.Load(),
		Compactions:     s.compactions.Load(),
		Reclaimed:       s.reclaimedByService.Load(),
		Retrieval:       s.eng.Retrieval(),
		Tree:            s.byp.Stats(),
	}
	if derr := s.Degraded(); derr != nil {
		st.Degraded = derr.Error()
	}
	if s.cache != nil {
		st.CacheEntries = s.cache.Len()
	}
	if s.module != nil {
		infos := s.module.ShardInfos()
		var gens []uint64
		if s.cache != nil {
			gens = s.cache.Generations()
		}
		st.Shards = make([]ShardStat, len(infos))
		for i, info := range infos {
			st.Shards[i] = ShardStat{ShardInfo: info}
			if i < len(gens) {
				st.Shards[i].CacheGen = gens[i]
			}
		}
	}
	return st
}
