package knn

import (
	"math"
	"math/rand"
	"testing"
)

// TestPhase1AsmMatchesGo pins the arch-specific phase kernels to the
// portable Go reference bit for bit: same survivor count, same survivor
// row ids, same stripe values — phase 1 at stride 64 over the head slab,
// the continuation phases gathering from the row-major slab. On amd64
// this exercises the SSE2 routines; elsewhere it is a self-consistency
// check.
func TestPhase1AsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(tileRows)
		slab := make([]float64, rows*32)
		for i := range slab {
			slab[i] = rng.NormFloat64()
		}
		head, _ := headSlab(slab, identityOrder(rows))
		q := make([]float64, 32)
		w := make([]float64, 32)
		for i := range q {
			q[i] = rng.NormFloat64()
			w[i] = rng.Float64() * 2
		}
		if trial%4 == 0 {
			w[rng.Intn(32)] = 0 // zero weights must be handled
		}
		var bound2 float64
		switch trial % 3 {
		case 0:
			bound2 = math.Inf(1) // everything survives
		case 1:
			bound2 = 0 // (almost) nothing survives
		default:
			bound2 = 10 + 20*rng.Float64()
		}

		for _, weighted := range []bool{false, true} {
			ref := struct {
				s0, s1, s2, s3 []float64
				surv           []int32
				c              int
			}{
				make([]float64, tileRows), make([]float64, tileRows), make([]float64, tileRows),
				make([]float64, tileRows), make([]int32, tileRows), 0,
			}
			got := struct {
				s0, s1, s2, s3 []float64
				surv           []int32
				c              int
			}{
				make([]float64, tileRows), make([]float64, tileRows), make([]float64, tileRows),
				make([]float64, tileRows), make([]int32, tileRows), 0,
			}
			if weighted {
				ref.c = phase1x32wGo(q, w, head, rows, bound2, ref.s0, ref.s1, ref.s2, ref.s3, ref.surv)
				got.c = phase1x32w(&q[0], &w[0], &head[0], rows, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], &got.surv[0])
			} else {
				ref.c = phase1x32Go(q, head, rows, bound2, ref.s0, ref.s1, ref.s2, ref.s3, ref.surv)
				got.c = phase1x32(&q[0], &head[0], rows, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], &got.surv[0])
			}
			if got.c != ref.c {
				t.Fatalf("trial %d weighted=%v: survivor count %d, want %d", trial, weighted, got.c, ref.c)
			}
			for j := 0; j < ref.c; j++ {
				if got.surv[j] != ref.surv[j] {
					t.Fatalf("trial %d weighted=%v: surv[%d] = %d, want %d", trial, weighted, j, got.surv[j], ref.surv[j])
				}
				if got.s0[j] != ref.s0[j] || got.s1[j] != ref.s1[j] || got.s2[j] != ref.s2[j] || got.s3[j] != ref.s3[j] {
					t.Fatalf("trial %d weighted=%v: stripes at %d = (%v,%v,%v,%v), want (%v,%v,%v,%v)",
						trial, weighted, j,
						got.s0[j], got.s1[j], got.s2[j], got.s3[j],
						ref.s0[j], ref.s1[j], ref.s2[j], ref.s3[j])
				}
			}

			// Continue the cascade one 8-dim segment at a time and keep
			// checking the arch kernel against the reference.
			for seg := 1; seg < 4 && ref.c > 0; seg++ {
				if weighted {
					ref.c = phaseNext8wGo(q[seg*8:seg*8+8], w[seg*8:seg*8+8], slab[seg*8:], ref.surv, ref.c, bound2, ref.s0, ref.s1, ref.s2, ref.s3)
					got.c = phaseNext8w(&q[seg*8], &w[seg*8], &slab[seg*8], &got.surv[0], got.c, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], rows)
				} else {
					ref.c = phaseNext8Go(q[seg*8:seg*8+8], slab[seg*8:], ref.surv, ref.c, bound2, ref.s0, ref.s1, ref.s2, ref.s3)
					got.c = phaseNext8(&q[seg*8], &slab[seg*8], &got.surv[0], got.c, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], rows)
				}
				if got.c != ref.c {
					t.Fatalf("trial %d weighted=%v seg %d: survivor count %d, want %d", trial, weighted, seg, got.c, ref.c)
				}
				for j := 0; j < ref.c; j++ {
					if got.surv[j] != ref.surv[j] ||
						got.s0[j] != ref.s0[j] || got.s1[j] != ref.s1[j] || got.s2[j] != ref.s2[j] || got.s3[j] != ref.s3[j] {
						t.Fatalf("trial %d weighted=%v seg %d: mismatch at survivor %d", trial, weighted, seg, j)
					}
				}
			}
		}
	}
}
