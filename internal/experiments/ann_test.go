package experiments

import (
	"runtime"
	"testing"

	"repro/internal/ann"
)

func smallANNConfig() ANNConfig {
	return ANNConfig{
		Seed:     1,
		Dim:      8,
		Clusters: 12,
		K:        5,
		Queries:  48,
		Scales: []ANNScaleConfig{
			{Label: "1x", Rows: 600, NLists: []int{16}},
		},
		NProbes: []int{2, 16},
		Quants:  []ann.Quant{ann.QuantF32, ann.QuantI8},
	}
}

func TestRunANNSmall(t *testing.T) {
	res, err := RunANN(smallANNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scales) != 1 || len(res.Scales[0].Indexes) != 2 {
		t.Fatalf("unexpected sweep shape: %+v", res.Scales)
	}
	sc := res.Scales[0]
	if sc.ExactP50Micros <= 0 || sc.ExactP99Micros < sc.ExactP50Micros {
		t.Fatalf("baseline not measured: %+v", sc)
	}
	for _, ix := range sc.Indexes {
		if len(ix.Points) != 2 {
			t.Fatalf("index %s swept %d points, want 2", ix.Quant, len(ix.Points))
		}
		if ix.SlabBytes <= 0 || ix.BandwidthRatio <= 0 || ix.BuildMillis < 0 {
			t.Fatalf("index costs not measured: %+v", ix)
		}
		if ix.Quant == "i8" && ix.BandwidthRatio >= sc.Indexes[0].BandwidthRatio {
			t.Fatalf("i8 slab (%v) not smaller than f32 (%v)", ix.BandwidthRatio, sc.Indexes[0].BandwidthRatio)
		}
		for _, pt := range ix.Points {
			if pt.RecallAtK < 0 || pt.RecallAtK > 1 {
				t.Fatalf("recall out of range: %+v", pt)
			}
			// nprobe = nlist is the exact tier: recall must be perfect.
			if pt.NProbe == ix.NList && pt.RecallAtK != 1 {
				t.Fatalf("full probe recall %v != 1: %+v", pt.RecallAtK, pt)
			}
			if pt.P50Micros <= 0 || pt.P99Micros < pt.P50Micros || pt.Speedup <= 0 {
				t.Fatalf("latency not measured: %+v", pt)
			}
		}
	}
}

func TestRunANNValidation(t *testing.T) {
	bad := smallANNConfig()
	bad.K = 0
	if _, err := RunANN(bad); err == nil {
		t.Fatal("K=0 accepted")
	}
	bad = smallANNConfig()
	bad.NProbes = nil
	if _, err := RunANN(bad); err == nil {
		t.Fatal("empty nprobe sweep accepted")
	}
	bad = smallANNConfig()
	bad.Scales[0].Rows = 4
	if _, err := RunANN(bad); err == nil {
		t.Fatal("rows < clusters accepted")
	}
}

func TestCollectEnvelope(t *testing.T) {
	env := CollectEnvelope()
	if env.GOOS != runtime.GOOS || env.GOARCH != runtime.GOARCH {
		t.Fatalf("envelope = %+v", env)
	}
	if env.NumCPU < 1 || env.GOMAXPROCS < 1 || env.GoVersion == "" {
		t.Fatalf("envelope = %+v", env)
	}
}
