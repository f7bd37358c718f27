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
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/knn"
	"repro/internal/obsv"
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

// Bypass is the learned-mapping dependency of the service, which
// core.Bypass satisfies with or without a log. Beside prediction and
// insertion it carries the module's health: Degraded reports the sticky
// persistence failure that flipped the module to read-only serving (nil
// while healthy), surfaced in Stats so transports can expose it without
// probing with writes. The module's compactions run inside Insert, so
// an insert that reports the tree changed covers them: the service
// invalidates its prediction cache on it.
type Bypass interface {
	D() int
	P() int
	Predict(q []float64) (core.OQP, error)
	Insert(q []float64, oqp core.OQP) (bool, error)
	Stats() simplextree.Stats
	Degraded() error
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
	// Obs is the registry the serving-layer instruments join: request
	// latency histograms, per-outcome request counters, cache hit/miss
	// counters, the session, feedback-round, warm-start and insert
	// counters, and the live-session and cache-size gauges. Stats reads
	// its counts from the same instruments. Nil gives the service a
	// private registry, which no exposition shows.
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
	eng   *engine.Engine
	byp   Bypass
	codec core.HistogramCodec
	opts  Options
	cache *predictionCache // nil when disabled

	mu       sync.RWMutex
	sessions map[uint64]*session
	nextID   uint64

	met *svcMetrics // every count the service keeps, for /metrics and Stats alike
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
	outError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "invalid_argument", "overloaded", "not_found", "canceled",
	"deadline_exceeded", "quota_exceeded", "degraded", "error",
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
	default:
		return outError
	}
}

// svcMetrics holds every pre-created serving-layer instrument. Creating
// them once at New time keeps the request path allocation-free: an
// observation is two atomic adds plus (for histograms) a CAS loop. Each
// event is counted once, here; Stats reads these counters back.
type svcMetrics struct {
	lat       [numOps]*obsv.Histogram
	req       [numOps][numOutcomes]*obsv.Counter
	cacheHit  *obsv.Counter
	cacheMiss *obsv.Counter

	closed     *obsv.Counter // sessions Close ended, whatever their insert did
	feedbacks  *obsv.Counter // feedback rounds applied
	warmStarts *obsv.Counter // opens whose prediction was not the default
	inserts    *obsv.Counter // outcomes Close offered to the bypass
	stored     *obsv.Counter // offered outcomes that changed it
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
	m.closed = reg.Counter("fb_service_sessions_closed_total", "Sessions ended by Close, including those whose insert was refused.", labels...)
	m.feedbacks = reg.Counter("fb_service_feedback_rounds_total", "Feedback rounds applied to sessions.", labels...)
	m.warmStarts = reg.Counter("fb_service_warm_starts_total", "Sessions opened from a learned (non-default) prediction.", labels...)
	m.inserts = reg.Counter("fb_service_inserts_total", "Session outcomes offered to the bypass at Close.", labels...)
	m.stored = reg.Counter("fb_service_inserts_stored_total", "Offered outcomes that changed the bypass.", labels...)
	return m
}

// count reads the counter of one (op, outcome) pair.
func (m *svcMetrics) count(op, outcome int) int64 { return int64(m.req[op][outcome].Value()) }

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

	q0       []float64    // initial query feature (full histogram)
	loop     *engine.Loop // set once Open's first retrieval lands
	cacheHit bool
	warm     bool // predicted OQP differed from the untrained default
	closed   bool
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
	if opts.Obs == nil {
		opts.Obs = obsv.NewRegistry()
	}
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
		met:      newSvcMetrics(opts.Obs, opts.ObsLabels),
	}
	if opts.CacheSize > 0 {
		s.cache = newPredictionCache(opts.CacheSize)
	}
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
	return s, nil
}

// Degraded reports the sticky persistence failure that flipped the
// underlying module to read-only serving, or nil while it is healthy.
func (s *Service) Degraded() error { return s.byp.Degraded() }

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
	l := sess.loop
	res := make([]knn.Result, len(l.Results()))
	copy(res, l.Results())
	return SessionState{
		ID:         sess.id,
		K:          l.K(),
		Results:    res,
		Iterations: l.Rounds(),
		BudgetLeft: l.BudgetLeft(),
		Converged:  l.Done(),
		CacheHit:   sess.cacheHit,
		Warm:       sess.warm,
	}
}

// predict answers the Mopt lookup through the LRU cache. The generation
// fence makes a cached entry impossible to go stale: a Put races an
// invalidation only in the discarded direction.
func (s *Service) predict(qp []float64) (core.OQP, bool, error) {
	t0 := time.Now()
	if s.cache == nil {
		oqp, err := s.byp.Predict(qp)
		s.met.done(opPredict, t0, err)
		s.met.cacheMiss.Inc()
		return oqp, false, err
	}
	sig := engine.QuerySignature(qp)
	if oqp, ok := s.cache.Get(sig, qp); ok {
		s.met.done(opPredict, t0, nil)
		s.met.cacheHit.Inc()
		return oqp, true, nil
	}
	gen := s.cache.Generation()
	oqp, err := s.byp.Predict(qp)
	s.met.done(opPredict, t0, err)
	s.met.cacheMiss.Inc()
	if err != nil {
		return core.OQP{}, false, err
	}
	s.cache.Put(gen, sig, qp, oqp)
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
func (s *Service) Open(ctx context.Context, feature []float64, k int) (_ SessionState, err error) {
	t0 := time.Now()
	defer func() { s.met.done(opOpen, t0, err) }()
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
	sess := &session{}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		return SessionState{}, fmt.Errorf("%d sessions in flight: %w", s.opts.MaxSessions, ErrOverloaded)
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
	loop, err := s.eng.Start(qPred, wPred, k, s.opts.IterationBudget)
	if err != nil {
		return abort(err)
	}
	sess.q0 = vec.Clone(feature)
	sess.loop = loop
	sess.cacheHit = cacheHit
	sess.warm = !isDefaultOQP(oqp)
	if sess.warm {
		s.met.warmStarts.Inc()
	}
	return sess.stateLocked(), nil
}

// lookup returns the live session for id.
func (s *Service) lookup(id uint64) (*session, error) {
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		return nil, fmt.Errorf("session %d: %w", id, ErrSessionNotFound)
	}
	return sess, nil
}

// Query returns the session's current state without advancing it.
func (s *Service) Query(ctx context.Context, id uint64) (_ SessionState, err error) {
	t0 := time.Now()
	defer func() { s.met.done(opQuery, t0, err) }()
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
		return SessionState{}, fmt.Errorf("session %d: %w", id, ErrSessionNotFound)
	}
	return sess.stateLocked(), nil
}

// Feedback applies one round of relevance scores (one per current result,
// non-negative, 0 = irrelevant) to the session: one engine.Loop Step
// refines the parameters, re-retrieves and returns the new state. A
// session that has converged — stable result list, no good matches to
// learn from, or exhausted iteration budget — is returned unchanged with
// Converged set; the client should Close it. Malformed scores wrap
// ErrInvalidArgument and a rejected round leaves the session unchanged.
func (s *Service) Feedback(ctx context.Context, id uint64, scores []float64) (_ SessionState, err error) {
	t0 := time.Now()
	defer func() { s.met.done(opFeedback, t0, err) }()
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
		return SessionState{}, fmt.Errorf("session %d: %w", id, ErrSessionNotFound)
	}
	rounds := sess.loop.Rounds()
	if err := sess.loop.Step(ctx, scores); err != nil {
		if errors.Is(err, engine.ErrInvalidScores) {
			return SessionState{}, fmt.Errorf("%w: %w", err, ErrInvalidArgument)
		}
		return SessionState{}, err
	}
	s.met.feedbacks.Add(uint64(sess.loop.Rounds() - rounds))
	return sess.stateLocked(), nil
}

// CloseResult reports what Close did with the session.
type CloseResult struct {
	ID         uint64
	Iterations int
	// Inserted reports whether the session's converged OQPs changed the
	// shared Bypass. Close calls Insert only when the session's parameters
	// moved off the prediction it started from (engine.Loop.Moved), and
	// the tree itself skips an outcome within ε of its current prediction
	// (§4.2), so Inserted can be false for a session that moved.
	Inserted bool
}

// Close ends the session and — when its parameters moved off the
// prediction it started from — inserts the converged OQPs into the shared Bypass, making
// the outcome available to every future session. The session is removed
// even when the insert fails; an insert refused by the store's quota or
// its degraded read-only mode returns the typed sentinel
// (core.ErrQuotaExceeded / core.ErrDegraded) so transports can map it,
// while the session itself still closed cleanly.
//
// ctx is consulted only before the session is unpublished: once Close
// commits to removing the session it finishes the insert even if the
// client disconnects, so a learned outcome is never dropped halfway.
func (s *Service) Close(ctx context.Context, id uint64) (_ CloseResult, err error) {
	t0 := time.Now()
	defer func() { s.met.done(opClose, t0, err) }()
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
		return CloseResult{}, fmt.Errorf("session %d: %w", id, ErrSessionNotFound)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		// Open failed after publishing the slot and has already removed it.
		return CloseResult{}, fmt.Errorf("session %d: %w", id, ErrSessionNotFound)
	}
	sess.closed = true
	s.met.closed.Inc()
	out := CloseResult{ID: id, Iterations: sess.loop.Rounds()}
	if !sess.loop.Moved() {
		// The final parameters are the prediction itself; re-inserting it
		// teaches the tree nothing.
		return out, nil
	}
	qp, err := s.codec.QueryPoint(sess.q0)
	if err != nil {
		return out, err
	}
	q, w := sess.loop.Params()
	oqp, err := s.codec.EncodeOQP(sess.q0, q, w)
	if err != nil {
		return out, err
	}
	s.met.inserts.Inc()
	changed, err := s.byp.Insert(qp, oqp)
	if changed && s.cache != nil {
		// The tree changed — by the insert, or by a compaction it ran,
		// even one followed by an error: cached predictions may now
		// differ from fresh ones. Generation-bump-and-drop keeps the
		// parity guarantee.
		s.cache.Invalidate()
	}
	if err != nil {
		return out, err
	}
	out.Inserted = changed
	if changed {
		s.met.stored.Inc()
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

// Stats is a point-in-time snapshot of the serving layer. Every count is
// read from one of the service's instruments (see Service.Stats).
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

	// Degraded carries the store's sticky persistence failure (empty while
	// healthy): the module serves reads but rejects inserts.
	// QuotaRejects / DegradedRejects count session outcomes the store
	// refused to learn from, by cause: the session itself closed
	// normally, only the learning was lost.
	Degraded        string `json:"degraded,omitempty"`
	QuotaRejects    int64  `json:"quota_rejects,omitempty"`
	DegradedRejects int64  `json:"degraded_rejects,omitempty"`

	Tree simplextree.Stats `json:"tree"`
}

// Stats snapshots the service counters and the shared tree's shape. The
// counts are the values of the service's series: Opened, Rejected,
// QuotaRejects and DegradedRejects are fb_service_requests_total at
// (open, ok), (open, overloaded), (close, quota_exceeded) and
// (close, degraded); CacheHits is the cache's hit counter and
// Predictions its hits plus misses; the rest have series of their own.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	active := len(s.sessions)
	s.mu.RUnlock()
	m := s.met
	hits := int64(m.cacheHit.Value())
	st := Stats{
		ActiveSessions:  active,
		Opened:          m.count(opOpen, outOK),
		Rejected:        m.count(opOpen, outOverloaded),
		Closed:          int64(m.closed.Value()),
		Feedbacks:       int64(m.feedbacks.Value()),
		Predictions:     hits + int64(m.cacheMiss.Value()),
		CacheHits:       hits,
		WarmStarts:      int64(m.warmStarts.Value()),
		Inserts:         int64(m.inserts.Value()),
		InsertsStored:   int64(m.stored.Value()),
		QuotaRejects:    m.count(opClose, outQuota),
		DegradedRejects: m.count(opClose, outDegraded),
		Tree:            s.byp.Stats(),
	}
	if derr := s.Degraded(); derr != nil {
		st.Degraded = derr.Error()
	}
	if s.cache != nil {
		st.CacheEntries = s.cache.Len()
	}
	return st
}
