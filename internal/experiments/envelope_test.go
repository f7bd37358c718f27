package experiments

import (
	"runtime"
	"testing"
)

func TestCollectEnvelope(t *testing.T) {
	env := CollectEnvelope()
	if env.GOOS != runtime.GOOS || env.GOARCH != runtime.GOARCH {
		t.Fatalf("envelope = %+v", env)
	}
	if env.NumCPU < 1 || env.GOMAXPROCS < 1 || env.GoVersion == "" {
		t.Fatalf("envelope = %+v", env)
	}
}
