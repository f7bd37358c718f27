package httpapi

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/knn"
	"repro/internal/obsv"
	"repro/internal/service"
	"repro/internal/shardedbypass"
	"repro/internal/store"
)

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
// pass through Hardened (direct handler tests).
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

// statsFor assembles one collection's stats block.
func statsFor(c *Collection) collectionStats {
	info := collectionInfo{Name: c.Name, Backend: c.backend, Items: c.Dataset.Len(), Dim: c.Dataset.Dim}
	if c.ann != nil {
		info.Index = c.ann.Describe()
		info.IndexSource = c.annSrc
	}
	return collectionStats{
		Collection: info,
		Stats:      c.Service.Stats(),
	}
}

// NewMux wires every collection into one http.Handler; split from main
// so the end-to-end tests drive the exact production routes via
// httptest. Per-collection routes live under /c/<name>/; the bare
// legacy routes serve defaultName (usually "default") when it is
// non-empty.
func NewMux(colls map[string]*Collection, defaultName string, reg *obsv.Registry, pprofOn bool) *http.ServeMux {
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

// Hardened wraps the route mux with the serving edge's blanket
// protections: a panic recovery barrier (one handler bug must not kill
// every collection's sessions with the process) and an optional
// per-request deadline, delivered to handlers through the request
// context so the service layer can abort before its expensive stages.
// Every request gets a generated ID — set as the X-Request-Id response
// header before the handler runs and threaded through the context so
// error bodies (including the timeout and panic responses this wrapper
// itself writes) carry it. Panics and expired deadlines are counted in
// the registry; reg may be nil (counters degrade to no-ops).
func Hardened(h http.Handler, requestTimeout time.Duration, reg *obsv.Registry) http.Handler {
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
func collectionHealth(c *Collection) (map[string]any, int) {
	if !c.Bypass.Ready() {
		// A failed shard recovery is terminal — 500, not the retryable
		// 503 of a replay in progress, so probes distinguish "warming
		// up" from "broken".
		if err := c.Bypass.Err(); err != nil {
			return map[string]any{"status": "failed", "error": err.Error()}, http.StatusInternalServerError
		}
		replaying := []int{}
		for _, info := range c.Bypass.ShardInfos() {
			if info.Replaying {
				replaying = append(replaying, info.Shard)
			}
		}
		return map[string]any{
			"status":    "replaying",
			"shards":    c.Bypass.NumShards(),
			"replaying": replaying,
		}, http.StatusServiceUnavailable
	}
	if derr := c.Service.Degraded(); derr != nil {
		// Read-only serving after a persistence failure: predictions are
		// live, so the collection is up (200) — but probes and operators
		// see the degradation and its root cause.
		return map[string]any{
			"status":   "degraded",
			"error":    derr.Error(),
			"sessions": c.Service.Stats().ActiveSessions,
		}, http.StatusOK
	}
	return map[string]any{"status": "ok", "sessions": c.Service.Stats().ActiveSessions}, http.StatusOK
}

// serveCollection dispatches one collection-scoped operation.
func serveCollection(c *Collection, op string, w http.ResponseWriter, r *http.Request) {
	switch op {
	case "healthz":
		body, code := collectionHealth(c)
		body["collection"] = c.Name
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
		writeError(w, r, http.StatusNotFound, fmt.Errorf("unknown operation %q for collection %s", op, c.Name))
	}
}

// annotate decorates raw results with the oracle's labels.
func (c *Collection) annotate(results []knn.Result) []resultJSON {
	out := make([]resultJSON, len(results))
	for i, r := range results {
		item := c.Dataset.Items[r.Index]
		out[i] = resultJSON{Index: r.Index, Distance: r.Distance, Category: item.Category, Theme: item.Theme}
	}
	return out
}

func (c *Collection) stateResponse(st service.SessionState) stateJSON {
	return stateJSON{
		Collection: c.Name,
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

// maxBodyBytes bounds a request body. The largest legitimate one — a
// D-bin feature vector or k scores — is about 1 KB; without a bound one
// client could make the server buffer an arbitrarily long array for the
// whole read timeout.
const maxBodyBytes = 1 << 20

// decodePost reads a POST request's JSON body into v. On a wrong method,
// an oversized body (413) or malformed JSON (400) it writes the error
// reply itself and returns false.
func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, r, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (c *Collection) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodePost(w, r, &req) {
		return
	}
	feature := req.Feature
	if req.Item != nil {
		// The checked accessor turns an out-of-range item id into an
		// errors.Is-able store.ErrOutOfRange → 400, never a panic.
		f, err := c.Dataset.Feature(*req.Item)
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
	st, err := c.Service.Open(r.Context(), feature, req.K)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, c.stateResponse(st))
}

func (c *Collection) handleSession(w http.ResponseWriter, r *http.Request) {
	var id uint64
	if _, err := fmt.Sscan(r.URL.Query().Get("id"), &id); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad session id: %w", err))
		return
	}
	st, err := c.Service.Query(r.Context(), id)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, c.stateResponse(st))
}

func (c *Collection) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req feedbackRequest
	if !decodePost(w, r, &req) {
		return
	}
	st, err := c.Service.Feedback(r.Context(), req.Session, req.Scores)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, c.stateResponse(st))
}

func (c *Collection) handleClose(w http.ResponseWriter, r *http.Request) {
	var req closeRequest
	if !decodePost(w, r, &req) {
		return
	}
	res, err := c.Service.Close(r.Context(), req.Session)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, closeResponse{
		Collection: c.Name,
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
