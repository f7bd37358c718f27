// Command bench is the repository's benchmark: it builds cmd/fbserve,
// and for each workload starts a fresh server process, replays a fixed,
// seeded session script over keep-alive HTTP/JSON playing the paper's
// category oracle, and reports the end-to-end metrics a user of fbserve
// would see. A separate in-process traced run attributes the time to
// layers. README.md defines every metric and workload; BENCHMARK.json at
// the repository root names them with unit, direction and bound.
//
//	bash bench/run.sh --workload explore --seed 1 --seconds 12 --trace 0   # one contract run
//	bash bench/run.sh                  # every workload, passes interleaved, traced run included
//	bash bench/run.sh -quick           # the same at tiny counts, a smoke
//	bash bench/run.sh -calibrate 5     # repeat and print the spread behind each bound
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// metricSpec is one metric as BENCHMARK.json declares it. The file is
// the single list of which metrics are gated (end_to_end) and which only
// attribute (per_layer); this program knows how to compute them.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// quickSizing is the -quick smoke: the counts of a one-second run over
// collections a tenth of their size.
var quickSizing = sizing{factor: 1.0 / fullSeconds, scaleMul: 0.1}

// exactMetrics repeat bit for bit between passes of one run, because the
// latency phase replays one fixed script through one client; a run whose
// passes disagree on any of them is reported as incorrect.
var exactMetrics = []string{"rounds_per_session", "precision_first", "simplextree.points"}

// env is where the benchmark runs: the checkout and the places inside it
// that builds and temporary state go to.
type env struct {
	fbserve string // built server binary
	tmp     string // durable module directories live here
	out     string // trace files
	spec    benchSpec
}

func newEnv() (*env, error) {
	root := "."
	if _, err := os.Stat(filepath.Join(root, "cmd", "fbserve")); err != nil {
		root = ".."
		if _, err := os.Stat(filepath.Join(root, "cmd", "fbserve")); err != nil {
			return nil, errors.New("run from the repository root or from bench/: cmd/fbserve not found")
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{
		fbserve: filepath.Join(root, ".bench_build", "fbserve"),
		tmp:     filepath.Join(root, ".bench_build", "tmp"),
		out:     filepath.Join(root, "bench", "out"),
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &e.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", e.fbserve, "./cmd/fbserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/fbserve: %w\n%s", err, out)
	}
	return e, nil
}

// runResult is one workload's outcome over all passes of a run.
type runResult struct {
	metrics   values               // median over passes
	passes    map[string][]float64 // each pass's value, for the report
	attempted int
	failed    int
	problems  []string // failed checks; empty means correct
}

// prepared is the per-workload input every pass of a run shares.
type prepared struct {
	w  workload
	ds *dataset.Dataset
	sc script
}

// runAll measures the given workloads: `passes` HTTP passes each,
// interleaved round-robin so a slow minute of the machine lands on every
// workload alike, then (when traced) the in-process traced run.
func runAll(e *env, ws []workload, z sizing, seed int64, passes int, traced bool) (map[string]*runResult, error) {
	preps := make([]prepared, len(ws))
	results := make(map[string]*runResult, len(ws))
	for i, w := range ws {
		scale := w.scale * z.scaleMul
		ds, err := labelCollection(scale)
		if err != nil {
			return nil, err
		}
		if traced {
			if ds, err = buildCollection(scale, ds); err != nil {
				return nil, err
			}
		}
		sc, err := buildScript(ds, w, z, seed)
		if err != nil {
			return nil, err
		}
		preps[i] = prepared{w, ds, sc}
		results[w.name] = &runResult{metrics: values{}, passes: map[string][]float64{}}
	}
	note := func(r *runResult, p passResult) {
		r.attempted += p.attempted
		r.failed += p.failed
		if p.firstErr != nil {
			r.problems = append(r.problems, p.firstErr.Error())
		}
		for name, v := range p.metrics {
			r.passes[name] = append(r.passes[name], v)
		}
	}
	for pass := 0; pass < passes; pass++ {
		for _, p := range preps {
			res, err := runPass(e.fbserve, p.w, z, p.ds, p.sc, e.tmp)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", p.w.name, pass+1, err)
			}
			note(results[p.w.name], res)
		}
	}
	for _, p := range preps {
		r := results[p.w.name]
		if traced {
			res, err := runTraced(p.w, z, p.ds, p.sc, e.tmp, e.out, median(r.passes["client.session_mean_ms"]))
			if err != nil {
				return nil, fmt.Errorf("%s traced run: %w", p.w.name, err)
			}
			note(r, res)
		}
		for name, vs := range r.passes {
			r.metrics[name] = median(vs)
		}
		for _, name := range exactMetrics {
			for _, v := range r.passes[name] {
				if v != r.passes[name][0] {
					r.problems = append(r.problems, fmt.Sprintf("%s differs between passes: %v", name, r.passes[name]))
					break
				}
			}
		}
		if rate, ok := r.metrics["core.insert_stored_rate"]; p.w.durable && ok && rate < 0.5 {
			r.problems = append(r.problems, fmt.Sprintf("core.insert_stored_rate %.3f < 0.5: the durable workload is not exercising persistence", rate))
		}
		if r.failed > 0 {
			r.problems = append(r.problems, fmt.Sprintf("%d of %d operations failed", r.failed, r.attempted))
		}
	}
	return results, nil
}

func printEnvironment(z sizing, seed int64, passes int) {
	tier := "portable"
	switch {
	case vec.HasAVX2():
		tier = "avx2"
	case runtime.GOARCH == "amd64":
		tier = "sse2"
	}
	fmt.Printf("# %s, nproc %d, GOMAXPROCS %d (default), knn kernel tier %s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), tier)
	fmt.Printf("# closed loop, zero think time: 1 client in the latency phase, %d in the throughput phase\n", thrClients)
	fmt.Printf("# durable flush policy: fsync per accepted insert (-sync)\n")
	fmt.Printf("# seed %d, counts x%.4g of the -seconds %d counts, %d pass(es) per workload, values are medians over passes\n",
		seed, z.factor, fullSeconds, passes)
}

func printMetrics(title string, specs []metricSpec, gated bool, ws []workload, results map[string]*runResult) {
	fmt.Printf("\n%s\n", title)
	for _, w := range ws {
		r := results[w.name]
		for _, s := range specs {
			line := fmt.Sprintf("%-8s %-34s %14.6g %-6s %s is better", w.name, s.Name, r.metrics[s.Name], s.Unit, s.Better)
			if gated {
				line += fmt.Sprintf(", bound %g%%", s.Bound*100)
			}
			if len(r.passes[s.Name]) > 1 {
				line += fmt.Sprintf("  passes %.6g", r.passes[s.Name])
			}
			fmt.Println(line)
		}
	}
}

func printOutcome(ws []workload, results map[string]*runResult) (correct bool) {
	fmt.Println()
	correct = true
	for _, w := range ws {
		r := results[w.name]
		fmt.Printf("%-8s operations attempted %d, failed %d\n", w.name, r.attempted, r.failed)
		for _, p := range r.problems {
			correct = false
			fmt.Printf("%-8s PROBLEM: %s\n", w.name, p)
		}
	}
	return correct
}

// checkSpec refuses to report against a BENCHMARK.json naming a metric
// this program did not produce, rather than print it as 0.
func checkSpec(spec benchSpec, r *runResult, traced bool) error {
	for _, s := range spec.EndToEnd {
		if _, ok := r.metrics[s.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not produce", s.Name)
		}
	}
	for _, s := range spec.PerLayer {
		if _, ok := r.metrics[s.Name]; !ok && traced {
			return fmt.Errorf("BENCHMARK.json names per-layer metric %q, which the benchmark does not produce", s.Name)
		}
	}
	return nil
}

// contractLine is the last line of a single-workload run.
func contractLine(specs []metricSpec, r *runResult) string {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]entry{}}
	for _, s := range specs {
		out.Metrics[s.Name] = entry{r.metrics[s.Name], s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "run this one workload and end with the one-line JSON result (default: all four, interleaved)")
		seed         = flag.Int64("seed", 1, "drives query-item selection; 2 is the held-out seed for later claims")
		seconds      = flag.Int("seconds", fullSeconds, "sizes the run: every session count is its -seconds 30 value x seconds/30")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics (one HTTP pass plus the traced run)")
		quick        = flag.Bool("quick", false, "smoke: tiny counts, collections at a tenth of their scale, 1 pass, traced run included")
		calibrate    = flag.Int("calibrate", 0, "repeat the full run N (>= 5) times on seeds seed..seed+N-1 and print each metric's spread")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		return errors.New("usage: -seconds >= 1, -trace 0|1, no positional arguments")
	}

	e, err := newEnv()
	if err != nil {
		return err
	}
	// Passes stop their own server on every return path; a signal skips
	// those, so it stops whatever is running and clears the durable
	// directories itself.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killServers()
		os.RemoveAll(e.tmp)
		os.Exit(130)
	}()
	ws := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	z := sizing{factor: float64(*seconds) / fullSeconds, scaleMul: 1}
	passes := 3
	traced := *workloadName == "" || *trace == 1
	if *workloadName != "" && *trace == 1 {
		passes = 1
	}
	if *quick {
		z, passes, traced = quickSizing, 1, true
	}
	if *calibrate > 0 {
		return runCalibration(e, ws, z, *seed, *calibrate)
	}

	printEnvironment(z, *seed, passes)
	results, err := runAll(e, ws, z, *seed, passes, traced)
	if err != nil {
		return err
	}
	if err := checkSpec(e.spec, results[ws[0].name], traced); err != nil {
		return err
	}
	if *workloadName == "" || *trace == 0 {
		printMetrics("END-TO-END", e.spec.EndToEnd, true, ws, results)
	}
	if traced {
		printMetrics("PER-LAYER (not gated)", e.spec.PerLayer, false, ws, results)
	}
	correct := printOutcome(ws, results)
	if *workloadName != "" {
		specs := e.spec.EndToEnd
		if *trace == 1 {
			specs = e.spec.PerLayer
		}
		fmt.Println(contractLine(specs, results[ws[0].name]))
		return nil // the JSON line carries correctness
	}
	if !correct {
		return errors.New("the run is not correct; see PROBLEM lines")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
