package main

import "repro/internal/stats"

// The statistics are internal/stats'; these wrappers report an empty
// sample as 0 — a phase without feedback requests has no feedback
// latency — so every metric stays a finite number that survives JSON.

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	v, _ := stats.Quantile(xs, q) // the only errors are an empty sample and q outside [0,1]
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	v, _ := stats.Mean(xs) // errors only on an empty sample
	return v
}

// ratio is num/den, 0 when den is 0: a rate over no events.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
