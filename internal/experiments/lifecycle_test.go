package experiments

import "testing"

// TestRunLifecycleBounded is the CI-sized soak regression gate for the
// lifecycle plane: with aging on, the tree's vertex count stays bounded
// (compactions reclaim the drifted-past regions) while the hit rate
// over the recent window stays perfect; with aging off, the same
// drifting workload grows the tree without bound (ε=0: one vertex per
// insert). The embedded crash sweeps must report zero acked-insert
// loss, zero recovery failures and zero hybrid states at both shard counts.
func TestRunLifecycleBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle soak skipped in -short mode")
	}
	cfg := DefaultLifecycleConfig()
	cfg.Inserts = 400
	cfg.AgeHorizon = 100
	cfg.CompactEvery = 50
	res, err := RunLifecycle(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Control: ε=0 on a drifting workload means strictly linear growth.
	if res.Control.FinalPoints < cfg.Inserts {
		t.Fatalf("control grew %d points for %d inserts; expected one per insert", res.Control.FinalPoints, cfg.Inserts)
	}
	if res.Control.Compactions != 0 || res.Control.Reclaimed != 0 {
		t.Fatalf("control mode compacted: %d compactions, %d reclaimed", res.Control.Compactions, res.Control.Reclaimed)
	}

	// Aging: bounded growth at the same hit rate.
	if res.Aging.FinalPoints >= res.Control.FinalPoints {
		t.Fatalf("aging did not bound growth: %d final points vs control %d", res.Aging.FinalPoints, res.Control.FinalPoints)
	}
	if res.Aging.Compactions == 0 || res.Aging.Reclaimed == 0 {
		t.Fatalf("aging mode never reclaimed: %d compactions, %d reclaimed", res.Aging.Compactions, res.Aging.Reclaimed)
	}
	for _, series := range []LifecycleSeries{res.Aging, res.Control} {
		if len(series.Samples) == 0 {
			t.Fatalf("%s mode produced no samples", series.Mode)
		}
		for _, s := range series.Samples {
			if s.HitRate < 1.0 {
				t.Fatalf("%s mode hit rate dropped to %.3f at %d inserts: aging reclaimed live regions", series.Mode, s.HitRate, s.Inserts)
			}
		}
	}

	// Crash sweeps: compaction swap safety at both shard counts.
	if len(res.CrashSweeps) != 2 || res.CrashSweeps[0].Shards != 1 || res.CrashSweeps[1].Shards != cfg.Shards {
		t.Fatalf("crash sweeps cover %+v, want shard counts 1 and %d", res.CrashSweeps, cfg.Shards)
	}
	for _, sweep := range res.CrashSweeps {
		if sweep.CrashPoints == 0 {
			t.Fatalf("%d-shard sweep enumerated no crash points", sweep.Shards)
		}
		if sweep.RecoveryFailures != 0 || sweep.AckedLost != 0 || sweep.HybridStates != 0 {
			t.Fatalf("%d-shard sweep: %d recovery failures, %d acked vertices lost, %d hybrid states (want all zero)",
				sweep.Shards, sweep.RecoveryFailures, sweep.AckedLost, sweep.HybridStates)
		}
	}
}
