package vec

import "testing"

func TestGodebugDisables(t *testing.T) {
	cases := []struct {
		godebug string
		want    bool
	}{
		{"", false},
		{"cpu.avx2=off", true},
		{"cpu.avx2=0", true},
		{"cpu.avx2=on", false},
		{"gctrace=1,cpu.avx2=off", true},
		{"cpu.avx2=off,cpu.avx2=on", false}, // last wins
		{"cpu.avx2=on,cpu.avx2=off", true},
		{"cpu.avx512=off", false}, // different key
	}
	for _, c := range cases {
		if got := godebugDisables(c.godebug, "cpu.avx2"); got != c.want {
			t.Errorf("godebugDisables(%q) = %v, want %v", c.godebug, got, c.want)
		}
	}
}
