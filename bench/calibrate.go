package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// runCalibration repeats the end-to-end run n times, each on its own
// seed as the driver does, and prints for every metric x workload the
// median, range and quartile spread of the n values, with the bound the
// observations support: max(5%, 3 x the larger of (max-min)/median/2 and
// IQR/median) — a spread must stay under a third of its bound. A timing
// metric whose suggestion exceeds 25% cannot be gated and belongs in
// per_layer.
func runCalibration(e *env, ws []workload, z sizing, seed int64, n int) error {
	if n < 5 {
		return errors.New("-calibrate needs N >= 5")
	}
	samples := map[string]map[string][]float64{} // workload → metric → values
	for i := 0; i < n; i++ {
		results, err := runAll(e, ws, z, seed+int64(i), 3, false)
		if err != nil {
			return err
		}
		if i == 0 {
			if err := checkSpec(e.spec, results[ws[0].name], false); err != nil {
				return err
			}
		}
		for _, w := range ws {
			r := results[w.name]
			if len(r.problems) > 0 {
				return fmt.Errorf("%s seed %d: %s", w.name, seed+int64(i), r.problems[0])
			}
			if samples[w.name] == nil {
				samples[w.name] = map[string][]float64{}
			}
			for _, s := range e.spec.EndToEnd {
				samples[w.name][s.Name] = append(samples[w.name][s.Name], r.metrics[s.Name])
			}
		}
		fmt.Printf("# repetition %d of %d done (seed %d)\n", i+1, n, seed+int64(i))
	}
	fmt.Printf("\n| metric | workload | median | min | max | (max-min)/median | IQR/median | supports bound |\n|---|---|---|---|---|---|---|---|\n")
	worst := map[string]float64{}
	for _, s := range e.spec.EndToEnd {
		for _, w := range ws {
			vs := samples[w.name][s.Name]
			med := median(vs)
			rng := (slices.Max(vs) - slices.Min(vs)) / med
			iqr := (quantile(vs, 0.75) - quantile(vs, 0.25)) / med
			bound := math.Max(0.05, 3*math.Max(rng/2, iqr))
			worst[s.Name] = math.Max(worst[s.Name], bound)
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.2f%% | %.1f%% |\n",
				s.Name, w.name, med, slices.Min(vs), slices.Max(vs), rng*100, iqr*100, bound*100)
		}
	}
	fmt.Println()
	for _, s := range e.spec.EndToEnd {
		verdict := "ok"
		if worst[s.Name] > s.Bound {
			verdict = "RAISE the bound, or move the metric to per_layer if above 25%"
		}
		fmt.Printf("%-22s bound in BENCHMARK.json %5.1f%%, observations support %5.1f%%: %s\n",
			s.Name, s.Bound*100, worst[s.Name]*100, verdict)
	}
	return nil
}
