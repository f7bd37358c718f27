package httpapi

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
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
	var b [32]byte
	return string(strconv.AppendUint(append(append(b[:0], ridPrefix...), '-'), ridCounter.Add(1), 10))
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
}

// collectionStats is the collection's /stats block: the serving-layer
// counters plus the collection's identity.
type collectionStats struct {
	Collection collectionInfo `json:"collection"`
	service.Stats
	// The module's own counters: inserts journaled since the last
	// compaction and the log's size (with -dir only), and the aged
	// compactions run — every -compact-every accepted inserts or under
	// quota pressure — with the vertices they reclaimed.
	Journaled   int    `json:"journaled,omitempty"`
	WALBytes    int64  `json:"wal_bytes,omitempty"`
	Compactions uint64 `json:"compactions,omitempty"`
	Reclaimed   uint64 `json:"reclaimed,omitempty"`
}

// statsResponse is the /stats shape: the process-identity block and a
// map holding the one collection's block under its name.
type statsResponse struct {
	Server      serverInfo                 `json:"server"`
	Collections map[string]collectionStats `json:"collections"`
}

// statsFor assembles one collection's stats block.
func statsFor(c *Collection) collectionStats {
	return collectionStats{
		Collection:  collectionInfo{Name: collectionName, Backend: c.backend(), Items: c.Dataset.Len(), Dim: c.Dataset.Dim},
		Stats:       c.Service.Stats(),
		Journaled:   c.Bypass.Journaled(),
		WALBytes:    c.Bypass.WALSize(),
		Compactions: c.Bypass.Compactions(),
		Reclaimed:   c.Bypass.Reclaimed(),
	}
}

// NewMux wires the collection's routes into one http.Handler; split
// from main so the end-to-end tests drive the exact production routes
// via httptest.
func NewMux(c *Collection, reg *obsv.Registry, pprofOn bool) *http.ServeMux {
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

	// Liveness: the module is open once the server listens, so the
	// process is up. A degraded module still serves predictions (200),
	// but the status says so and why inserts fail.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"status":      "ok",
			"collections": 1,
			"sessions":    c.Service.Stats().ActiveSessions,
			"server":      currentServerInfo(),
		}
		if derr := c.Service.Degraded(); derr != nil {
			body["status"] = "degraded"
			body["degraded"] = map[string]string{collectionName: derr.Error()}
		}
		writeJSON(w, r, http.StatusOK, body)
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, statsResponse{
			Server:      currentServerInfo(),
			Collections: map[string]collectionStats{collectionName: statsFor(c)},
		})
	})

	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/session", c.handleSession)
	mux.HandleFunc("/feedback", c.handleFeedback)
	mux.HandleFunc("/close", c.handleClose)
	return mux
}

// Hardened wraps the route mux with the serving edge's blanket
// protections: a panic recovery barrier (one handler bug must not kill
// every session with the process) and an optional
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

// maxBodyBytes bounds a request body. The largest legitimate one — a
// D-bin feature vector or k scores — is about 1 KB; without a bound one
// client could make the server buffer an arbitrarily long array for the
// whole read timeout.
const maxBodyBytes = 1 << 20

// decodePost reads a POST request's JSON body into v. On a wrong method,
// an oversized body (413), malformed JSON or anything but whitespace
// after the one JSON value (400) it writes the error reply itself and
// returns false. A body of known length up to scanMaxBytes is read
// whole and scanned (wire.go); when the scanner declines it, or the
// length is unknown or larger, encoding/json decodes the same byte
// stream.
func decodePost(w http.ResponseWriter, r *http.Request, v wireRequest) bool {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	var body io.Reader = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if 0 <= r.ContentLength && r.ContentLength <= scanMaxBytes {
		buf := getBuf()
		defer putBuf(buf)
		read := bytes.NewBuffer(*buf)
		_, err := read.ReadFrom(body)
		*buf = read.Bytes()
		if err == nil && v.scan(*buf) {
			return true
		}
		// The limited reader repeats its first error, so the bytes read
		// and then the body's rest are the stream a decoder reading from
		// the start would see.
		body = io.MultiReader(bytes.NewReader(*buf), body)
	}
	dec := json.NewDecoder(body)
	err := dec.Decode(v)
	if err == nil {
		err = endOfBody(dec)
	}
	if err != nil {
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

// endOfBody returns nil when only whitespace follows the value dec has
// decoded. A second value is an error, so {"session":1}{"session":2}
// cannot close session 1 and answer 200.
func endOfBody(dec *json.Decoder) error {
	switch err := dec.Decode(&struct{}{}); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("more than one JSON value")
	default:
		return err
	}
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
	c.writeState(w, r, st)
}

func (c *Collection) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad session id: %w", err))
		return
	}
	st, err := c.Service.Query(r.Context(), id)
	if err != nil {
		writeError(w, r, statusFor(err), err)
		return
	}
	c.writeState(w, r, st)
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
	c.writeState(w, r, st)
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
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendClose(*buf, res)
	writeBody(w, http.StatusOK, *buf)
}

// writeState sends st as the session-state reply.
func (c *Collection) writeState(w http.ResponseWriter, r *http.Request, st service.SessionState) {
	buf := getBuf()
	defer putBuf(buf)
	b, err := appendState(*buf, st, c.Dataset.Items)
	*buf = b
	if err != nil {
		encodeFailed(w, r, err)
		return
	}
	writeBody(w, http.StatusOK, b)
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// whose client disconnected before the response was written; no reply
// reaches the client, but logs and metrics distinguish it from server
// faults.
const statusClientClosedRequest = 499

// statusFor maps the service's errors.Is-able sentinels onto HTTP codes.
func statusFor(err error) int {
	switch {
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
// rejections, "" for everything else. Overload and deadlines clear in
// seconds; a degraded store needs an operator (30s probes); a full quota
// needs a raise or a compaction policy change (60s).
func retryAfterFor(err error) string {
	switch {
	case errors.Is(err, service.ErrOverloaded):
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

// writeJSON sends v, as json.Encoder writes it, with status. The reply
// is encoded into a buffer before the status line goes out, so a value
// that does not encode is a 500 with a JSON error body, never a 200 with
// an empty one.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	out := bytes.NewBuffer(*buf)
	if err := json.NewEncoder(out).Encode(v); err != nil {
		encodeFailed(w, r, err)
		return
	}
	*buf = out.Bytes()
	writeBody(w, status, *buf)
}

// encodeFailed answers a reply that did not encode: a server fault.
func encodeFailed(w http.ResponseWriter, r *http.Request, err error) {
	log.Printf("fbserve: encoding response: %v", err)
	writeError(w, r, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
}

// writeError renders an error body carrying the request ID the hardened
// wrapper minted, so a client holding only the JSON error (not the
// X-Request-Id header) can still quote the exact request to operators.
func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if ra := retryAfterFor(err); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	writeJSON(w, r, status, errorResponse{Error: err.Error(), RequestID: requestIDFrom(r)})
}
