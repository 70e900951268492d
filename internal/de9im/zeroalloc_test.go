package de9im

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestZeroAllocRelateScratch pins steady-state refinement to zero heap
// allocations (wired into `make bench`): with warm Prepared geometries, a
// warm Scratch, and interior points already forced, RelateScratch must
// not allocate — the join loop runs it once per surviving candidate pair.
func TestZeroAllocRelateScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type pair struct{ r, s *Prepared }
	var pairs []pair
	for i := 0; i < 8; i++ {
		r := mp(geom.NewPolygon(randBlob(rng, 0, 0, 10, 24)))
		s := mp(geom.NewPolygon(randBlob(rng, rng.Float64()*12-6, rng.Float64()*12-6, 8, 20)))
		pairs = append(pairs, pair{Prepare(r), Prepare(s)})
	}
	sc := new(Scratch)
	var sink Matrix
	for _, p := range pairs {
		// Warm up: force interior points and grow the scratch to capacity.
		sink = RelateScratch(p.r, p.s, sc)
		p.r.InteriorPoints()
		p.s.InteriorPoints()
	}
	for i, p := range pairs {
		allocs := testing.AllocsPerRun(100, func() {
			sink = RelateScratch(p.r, p.s, sc)
		})
		if allocs != 0 {
			t.Errorf("pair %d: RelateScratch allocates %v per run, want 0", i, allocs)
		}
	}
	_ = sink
}
