package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/dataset"
)

// server is one fbserve child process. It runs in its own process group
// so stop reaches anything it might spawn, and stop always reaps it.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	ready   time.Duration // exec → first answered request
	log     bytes.Buffer
	exited  chan struct{} // closed once the child has been reaped
}

// running holds the process groups of the servers currently alive, for
// the signal handler alone.
var running = struct {
	sync.Mutex
	pgids map[int]bool
}{pgids: map[int]bool{}}

// killServers SIGKILLs every live server's process group. The kernel
// reparents and reaps them; the caller is about to exit.
func killServers() {
	running.Lock()
	defer running.Unlock()
	for pgid := range running.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
	}
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before fbserve binds it; a collision makes startServer fail,
// which fails the run rather than skewing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs fbserve and waits until it answers a request.
func startServer(bin string, cfg serverConfig) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr}
	s.cmd = exec.Command(bin, cfg.args(addr)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	pgid := s.cmd.Process.Pid
	running.Lock()
	running.pgids[pgid] = true
	running.Unlock()
	s.exited = make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // the exit status of a SIGKILLed child carries nothing
		running.Lock()
		delete(running.pgids, pgid)
		running.Unlock()
		close(s.exited)
	}()

	deadline := time.After(120 * time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("fbserve exited during start-up:\n%s", s.log.String())
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("fbserve did not answer within 120s:\n%s", s.log.String())
		case <-tick.C:
		}
		resp, err := http.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			s.ready = time.Since(s.started)
			return s, nil
		}
	}
}

// stop SIGKILLs the server's process group and waits for the child.
// Stopping a server that has already been reaped does nothing.
func (s *server) stop() {
	select {
	case <-s.exited:
	default:
		_ = syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
		<-s.exited
	}
}

// procSample is the server's resource usage read from /proc.
type procSample struct {
	userMS, sysMS float64
	rssPeakMB     float64
}

func (s *server) proc() (procSample, error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return procSample{}, fmt.Errorf("unexpected /proc/%s/stat: %q", pid, stat)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return procSample{}, err
	}
	const tickMS = 10 // USER_HZ is 100 on every Linux ABI Go supports
	p := procSample{userMS: utime * tickMS, sysMS: stime * tickMS}

	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procSample{}, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return procSample{}, err
			}
			p.rssPeakMB = kb / 1024
		}
	}
	return p, nil
}

// scrape reads /metrics into a map keyed by the full series name,
// labels included, exactly as exposed.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serviceStats is the slice of /stats the benchmark reads.
type serviceStats struct {
	Opened        *int64 `json:"opened"`
	Rejected      *int64 `json:"rejected"`
	Predictions   *int64 `json:"predictions"`
	CacheHits     *int64 `json:"cache_hits"`
	WarmStarts    *int64 `json:"warm_starts"`
	Inserts       *int64 `json:"inserts"`
	InsertsStored *int64 `json:"inserts_stored"`
	Tree          *struct {
		Points, Leaves, Depth int
	} `json:"tree"`
}

func (s *server) stats() (serviceStats, error) {
	var body struct {
		Collections map[string]serviceStats `json:"collections"`
	}
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return serviceStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serviceStats{}, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return serviceStats{}, fmt.Errorf("/stats: %w", err)
	}
	st, ok := body.Collections["default"]
	if !ok || st.Opened == nil || st.Rejected == nil || st.Predictions == nil || st.CacheHits == nil ||
		st.WarmStarts == nil || st.Inserts == nil || st.InsertsStored == nil || st.Tree == nil {
		return serviceStats{}, errors.New("/stats: default collection block lacks a field the benchmark reads")
	}
	return st, nil
}

// httpBackend plays sessions against fbserve over one keep-alive
// connection of its own.
type httpBackend struct {
	base   string
	client *http.Client
	ds     *dataset.Dataset // to check the labels the server annotates results with

	reqBytes, respBytes int64 // bodies only; headers are not counted
	buf                 bytes.Buffer
}

func newHTTPBackend(base string, ds *dataset.Dataset) *httpBackend {
	return &httpBackend{
		base: base,
		ds:   ds,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
	}
}

func (h *httpBackend) closeIdle() { h.client.CloseIdleConnections() }

func (h *httpBackend) post(op string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := h.client.Post(h.base+"/"+op, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	h.reqBytes += int64(len(body))
	h.respBytes += int64(h.buf.Len())
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/%s: status %d: %s", op, resp.StatusCode, bytes.TrimSpace(h.buf.Bytes()))
	}
	return json.Unmarshal(h.buf.Bytes(), reply)
}

// stateReply is fbserve's session snapshot; pointer fields tell a missing
// JSON field from a zero value.
type stateReply struct {
	Session    *uint64 `json:"session"`
	Results    []item  `json:"results"`
	BudgetLeft *int    `json:"budget_left"`
	Converged  *bool   `json:"converged"`
}

func (h *httpBackend) state(op string, r stateReply) (state, error) {
	if r.Session == nil || r.BudgetLeft == nil || r.Converged == nil {
		return state{}, fmt.Errorf("/%s: reply lacks session, budget_left or converged", op)
	}
	for _, it := range r.Results {
		if it.Index < 0 || it.Index >= h.ds.Len() || it.Category != h.ds.Items[it.Index].Category {
			return state{}, fmt.Errorf("/%s: result %d labelled %q disagrees with the generated collection", op, it.Index, it.Category)
		}
	}
	return state{session: *r.Session, results: r.Results, budgetLeft: *r.BudgetLeft, converged: *r.Converged}, nil
}

func (h *httpBackend) open(q int) (state, error) {
	var r stateReply
	req := struct {
		Item int `json:"item"`
		K    int `json:"k"`
	}{q, resultsK}
	if err := h.post("query", req, &r); err != nil {
		return state{}, err
	}
	return h.state("query", r)
}

func (h *httpBackend) feedback(session uint64, scores []float64) (state, error) {
	var r stateReply
	req := struct {
		Session uint64    `json:"session"`
		Scores  []float64 `json:"scores"`
	}{session, scores}
	if err := h.post("feedback", req, &r); err != nil {
		return state{}, err
	}
	return h.state("feedback", r)
}

func (h *httpBackend) close(session uint64) (bool, error) {
	var r struct {
		Session  *uint64 `json:"session"`
		Inserted *bool   `json:"inserted"`
	}
	req := struct {
		Session uint64 `json:"session"`
	}{session}
	if err := h.post("close", req, &r); err != nil {
		return false, err
	}
	if r.Session == nil || r.Inserted == nil {
		return false, errors.New("/close: reply lacks session or inserted")
	}
	if *r.Session != session {
		return false, fmt.Errorf("/close: reply is for session %d, want %d", *r.Session, session)
	}
	return *r.Inserted, nil
}
