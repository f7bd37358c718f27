package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/dataset"
)

// values maps a metric name to its value in one pass (or, after
// aggregation, in one run).
type values map[string]float64

// passResult is everything one pass against one fresh server produced.
type passResult struct {
	metrics   values
	attempted int
	failed    int
	firstErr  error
}

// add folds one phase's operation counts into the result.
func (r *passResult) add(p *phaseStats) {
	r.attempted += p.attempted
	r.failed += p.failed
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
}

// snapshot is the server's externally visible state between phases.
type snapshot struct {
	proc    procSample
	metrics map[string]float64
	stats   serviceStats
}

func (s *server) snapshot() (snapshot, error) {
	var snap snapshot
	var err error
	if snap.metrics, err = s.scrape(); err != nil {
		return snap, err
	}
	if snap.stats, err = s.stats(); err != nil {
		return snap, err
	}
	snap.proc, err = s.proc()
	return snap, err
}

// trainEpochs is how often set-up plays the revisit pool. The first epoch
// learns (≈3.5 rounds a session, one stored insert each); the second
// absorbs the few items whose repeat session still stores something; by
// the third nothing is stored, so nothing invalidates the prediction
// cache and the epoch leaves every pool item's prediction cached.
const trainEpochs = 3

// setUp brings a fresh backend to the workload's measured state. Only
// the revisit shape needs any.
func setUp(be backend, ds *dataset.Dataset, sc script, st *phaseStats) {
	if len(sc.train) == 0 {
		return
	}
	for epoch := 0; epoch < trainEpochs; epoch++ {
		play(be, ds, sc.train, st)
	}
}

// runPass is one pass of one workload: start server → wait for its first
// answer → workload set-up → warm-up prefix → latency phase (1 client) →
// throughput phase (thrClients clients) → SIGKILL, and for the durable
// workload a restart on the same directory with the recovery check.
// An error return means the pass could not be carried out at all; failed
// operations are counted in the result instead.
func runPass(bin string, w workload, z sizing, ds *dataset.Dataset, sc script, tmpRoot string) (res passResult, err error) {
	var dir string
	if w.durable {
		if dir, err = os.MkdirTemp(tmpRoot, "durable-"); err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
	}
	cfg := w.config(z, dir)
	srv, err := startServer(bin, cfg)
	if err != nil {
		return res, err
	}
	defer srv.stop()

	var setup, warm, lat, thr phaseStats
	be := newHTTPBackend(srv.base, ds)
	setUp(be, ds, sc, &setup)
	setupS := time.Since(srv.started).Seconds()
	play(be, ds, sc.warm, &warm)

	before, err := srv.snapshot()
	if err != nil {
		return res, err
	}
	be.reqBytes, be.respBytes = 0, 0
	play(be, ds, sc.lat, &lat)
	reqBytes, respBytes := be.reqBytes, be.respBytes
	afterLat, err := srv.snapshot()
	if err != nil {
		return res, err
	}

	clients := [thrClients]*httpBackend{be}
	for i := 1; i < thrClients; i++ {
		clients[i] = newHTTPBackend(srv.base, ds)
	}
	var perClient [thrClients]phaseStats
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			play(clients[i], ds, sc.thr[i], &perClient[i])
		}(i)
	}
	wg.Wait()
	thr.wall = time.Since(begin)
	for i := range perClient {
		thr.merge(&perClient[i])
	}
	afterThr, err := srv.snapshot()
	if err != nil {
		return res, err
	}
	for _, c := range clients {
		c.closeIdle()
	}

	killed := time.Now()
	srv.stop()
	recoveryS := srv.ready.Seconds()
	var recovery phaseStats
	if w.durable {
		acked := setup.stored + warm.stored + lat.stored + thr.stored
		if recoveryS, err = recoverDurable(bin, cfg, ds, sc.lat[0], acked, killed, &recovery); err != nil {
			return res, err
		}
	}

	for _, p := range []*phaseStats{&setup, &warm, &lat, &thr, &recovery} {
		res.add(p)
	}
	if lat.sessions == 0 || thr.sessions == 0 {
		return res, fmt.Errorf("%s: no session completed: %v", w.name, res.firstErr)
	}

	nLat, nThr := float64(lat.sessions), float64(thr.sessions)
	cpuThr := (afterThr.proc.userMS + afterThr.proc.sysMS) - (afterLat.proc.userMS + afterLat.proc.sysMS)
	m := values{
		"setup_s":            setupS,
		"open_p50_ms":        quantile(lat.open, 0.50),
		"session_p50_ms":     quantile(lat.session, 0.50),
		"session_p95_ms":     quantile(lat.session, 0.95),
		"sessions_per_s":     nThr / thr.wall.Seconds(),
		"cpu_ms_per_session": cpuThr / nThr,
		"rounds_per_session": float64(lat.rounds) / nLat,
		"precision_first":    lat.precision / nLat,
		"recovery_s":         recoveryS,

		"client.feedback_p50_ms":        quantile(lat.feedback, 0.50),
		"client.open_p95_ms":            quantile(lat.open, 0.95),
		"client.close_p50_ms":           quantile(lat.close, 0.50),
		"client.close_p99_ms":           quantile(lat.close, 0.99),
		"client.session_p99_ms":         quantile(lat.session, 0.99),
		"client.session_mean_ms":        mean(lat.session),
		"client.req_bytes_per_session":  float64(reqBytes) / nLat,
		"client.resp_bytes_per_session": float64(respBytes) / nLat,

		"fbserve.start_to_ready_s":          srv.ready.Seconds(),
		"fbserve.cpu_user_ms_per_session":   (afterThr.proc.userMS - afterLat.proc.userMS) / nThr,
		"fbserve.cpu_sys_ms_per_session":    (afterThr.proc.sysMS - afterLat.proc.sysMS) / nThr,
		"fbserve.rss_peak_mb":               afterThr.proc.rssPeakMB,
		"fbserve.heap_alloc_mb":             afterThr.metrics["fb_process_heap_alloc_bytes"] / (1 << 20),
		"fbserve.gc_cycles_per_1k_sessions": 1000 * (afterThr.metrics["fb_process_gc_cycles_total"] - before.metrics["fb_process_gc_cycles_total"]) / (nLat + nThr),

		"service.cache_hit_rate": ratio(float64(*afterLat.stats.CacheHits-*before.stats.CacheHits),
			float64(*afterLat.stats.Predictions-*before.stats.Predictions)),
		"service.warm_start_rate": ratio(float64(*afterLat.stats.WarmStarts-*before.stats.WarmStarts),
			float64(*afterLat.stats.Opened-*before.stats.Opened)),
		"service.rejected": float64(*afterThr.stats.Rejected),

		// Read after the single-client latency phase, so the tree is the
		// product of one fixed insert order and must repeat exactly.
		"simplextree.points": float64(afterLat.stats.Tree.Points),
		"simplextree.leaves": float64(afterLat.stats.Tree.Leaves),
		"simplextree.depth":  float64(afterLat.stats.Tree.Depth),
	}
	// The serving edge (HTTP + JSON + loopback) is what the client saw
	// minus what the service layer timed for the same requests.
	for op, clientMS := range map[string][]float64{"open": lat.open, "feedback": lat.feedback, "close": lat.close} {
		series := func(suffix string) float64 {
			key := `fb_service_request_seconds_` + suffix + `{collection="default",op="` + op + `"}`
			return afterLat.metrics[key] - before.metrics[key]
		}
		svcUS := ratio(series("sum")*1e6, series("count"))
		m["service."+op+"_mean_us"] = svcUS
		m["fbserve.edge_"+op+"_us"] = 0
		if len(clientMS) > 0 {
			m["fbserve.edge_"+op+"_us"] = mean(clientMS)*1e3 - svcUS
		}
	}
	res.metrics = m
	return res, nil
}

// recoverDurable restarts fbserve on the directory of a SIGKILLed durable
// pass and checks that it answers a query and that the recovered tree
// holds exactly the stored inserts the client had acknowledged. It
// returns the time from the kill to the answered query.
func recoverDurable(bin string, cfg serverConfig, ds *dataset.Dataset, probe, acked int, killed time.Time, st *phaseStats) (float64, error) {
	srv, err := startServer(bin, cfg)
	if err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer srv.stop()
	be := newHTTPBackend(srv.base, ds)
	defer be.closeIdle()

	st.attempted++
	s, err := be.open(probe)
	if err == nil {
		err = checkState(s, 0)
	}
	recoveryS := time.Since(killed).Seconds()
	if err != nil {
		st.fail(fmt.Errorf("query after recovery: %w", err))
		return recoveryS, nil
	}
	st.attempted++
	stats, err := srv.stats()
	switch {
	case err != nil:
		st.fail(err)
	case stats.Tree.Points != acked:
		st.fail(fmt.Errorf("recovered tree holds %d points, %d stored inserts were acknowledged before the kill", stats.Tree.Points, acked))
	}
	return recoveryS, nil
}
