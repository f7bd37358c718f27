package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestLifecycleFigureGolden holds RunLifecycle at DefaultLifecycleConfig
// to the lifecycle block committed in benchmarks/bench_lifecycle.json:
// every compaction count, reclaimed total and sampled tree shape of both
// soak modes, decoded and compared whole.
func TestLifecycleFigureGolden(t *testing.T) {
	data, err := os.ReadFile("../../benchmarks/bench_lifecycle.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned struct {
		Lifecycle LifecycleResult `json:"lifecycle"`
	}
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	got, err := RunLifecycle(DefaultLifecycleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pinned.Lifecycle) {
		t.Fatalf("lifecycle figure moved:\n got    %+v\n pinned %+v", got, pinned.Lifecycle)
	}
}
