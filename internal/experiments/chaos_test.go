package experiments

import "testing"

// TestRunChaosInvariants runs a reduced chaos figure and pins its
// headline invariants: every crash schedule recovers with zero
// acknowledged loss, the degraded module serves bitwise-correct reads
// with full availability, and the quota phase admits exactly its
// headroom.
func TestRunChaosInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is slow in -short mode")
	}
	cfg := DefaultChaosConfig()
	cfg.Inserts = 6
	cfg.CompactEvery = 3
	cfg.Shards = 2
	cfg.DegradedInserts = 8
	cfg.QuotaHeadroom = 2

	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CrashSweeps) != 2 || res.CrashSweeps[0].Shards != 1 || res.CrashSweeps[1].Shards != cfg.Shards {
		t.Fatalf("crash sweeps cover %+v, want shard counts 1 and %d", res.CrashSweeps, cfg.Shards)
	}
	for _, sweep := range res.CrashSweeps {
		if sweep.CrashPoints == 0 {
			t.Fatalf("%d shards: no crash points enumerated", sweep.Shards)
		}
		if sweep.RecoveryFailures != 0 {
			t.Errorf("%d shards: %d recovery failures", sweep.Shards, sweep.RecoveryFailures)
		}
		if sweep.AckedLost != 0 {
			t.Errorf("%d shards: %d acknowledged inserts lost", sweep.Shards, sweep.AckedLost)
		}
		if sweep.ExtraReplayed > sweep.CrashPoints {
			t.Errorf("%d shards: %d extra replays over %d schedules", sweep.Shards, sweep.ExtraReplayed, sweep.CrashPoints)
		}
	}
	d := res.Degraded
	if d.AckedBefore != cfg.Inserts {
		t.Errorf("degraded: acked %d, want %d", d.AckedBefore, cfg.Inserts)
	}
	if d.TypedRejections != cfg.DegradedInserts || d.UntypedErrors != 0 {
		t.Errorf("degraded: %d typed / %d untyped, want %d / 0", d.TypedRejections, d.UntypedErrors, cfg.DegradedInserts)
	}
	if d.ReadAvailability != 1 || !d.ParityOK {
		t.Errorf("degraded reads: availability %.2f parity %v", d.ReadAvailability, d.ParityOK)
	}
	if !d.RecoveredOK {
		t.Error("degraded module did not recover cleanly on a healthy disk")
	}
	q := res.Quota
	if q.Accepted != cfg.QuotaHeadroom {
		t.Errorf("quota: accepted %d, want %d", q.Accepted, cfg.QuotaHeadroom)
	}
	if q.UntypedErrors != 0 {
		t.Errorf("quota: %d untyped errors", q.UntypedErrors)
	}
	if q.ReadAvailability != 1 || !q.ParityOK {
		t.Errorf("quota reads: availability %.2f parity %v", q.ReadAvailability, q.ParityOK)
	}
}
