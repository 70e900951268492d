package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/de9im"
)

// TestZeroAllocSweeper pins the one per-pair evaluator — MBR filter,
// intermediate filter, scratch-based refinement, stats tallying, stage
// timing — to zero heap allocations per pair once objects are warm
// (wired into `make bench`), for every method under the find-relation,
// predicate and mask tests, timed and untimed. This is the loop every
// sweep and every serving request runs; one allocation here is millions
// per join.
func TestZeroAllocSweeper(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(23))
	pairs := testPairs(t, b, rng)
	tests := map[string]Test{
		"find":           {},
		"pred inside":    PredicateTest(de9im.Inside),
		"pred meets":     PredicateTest(de9im.Meets),
		"mask T*F**F***": MaskTest(de9im.MustMask("T*F**F***")),
		"mask 2*2******": MaskTest(de9im.MustMask("2*2******")),
	}
	for name, test := range tests {
		for _, m := range Methods {
			for _, timed := range []bool{false, true} {
				sweep := NewSweeper(m, test, new(MethodStats), timed)
				// Warm up: build every Prepared, force interior points via
				// the probe fallbacks, and grow the scratch.
				for _, p := range pairs {
					sweep.Eval(p[0], p[1])
				}
				allocs := testing.AllocsPerRun(20, func() {
					for _, p := range pairs {
						sweep.Eval(p[0], p[1])
					}
				})
				if allocs != 0 {
					t.Errorf("%s: sweep over %d warm pairs allocates %v per run, want 0",
						fmt.Sprintf("%s/%v/timed=%t", name, m, timed), len(pairs), allocs)
				}
			}
		}
	}
}
