package server

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/join"
)

// TestZeroAllocMergedView pins the merged base+delta read path — view
// traversal, tombstone bitset filter, delta/base object resolution, the
// timed, stats-keeping per-pair evaluator — to zero heap allocations per pair once
// warm (wired into `make bench`). The copy-on-write epoch machinery
// must not tax the hot loop the paper's numbers depend on: all delta
// bookkeeping happens at mutation time, reads stay flat.
func TestZeroAllocMergedView(t *testing.T) {
	reg := NewRegistry(resSpace, resOrder)
	if _, err := reg.Add("grid", "", resPolys()); err != nil {
		t.Fatal(err)
	}
	// Give the entry a real delta: tombstones, a superseded base
	// object, and fresh inserts, so every branch of the merged view is
	// on the measured path.
	if _, err := reg.Mutate("grid", MutDelete, 7, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Mutate("grid", MutUpsert, 5, mustPoly(t, sq6(73, 73))); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Mutate("grid", MutInsert, -1, mustPoly(t, sq6(33, 33))); err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("grid")
	probe, err := reg.Probe(mustPoly(t, "POLYGON ((20 20, 120 20, 120 120, 20 120))"))
	if err != nil {
		t.Fatal(err)
	}
	sweep := core.NewSweeper(core.PC, core.Test{}, new(core.MethodStats), true)
	view := e.View()
	ctx := context.Background()
	pairs := 0
	run := func() {
		err := view.QueryContext(ctx, probe.MBR, func(delta bool, en join.Entry) {
			pairs++
			sweep.Eval(probe, e.objAt(delta, en.ID))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: Prepared geometry, scratch growth
	if pairs == 0 {
		t.Fatal("probe matched nothing; the guard would measure an empty loop")
	}
	before := pairs
	allocs := testing.AllocsPerRun(50, run)
	if allocs != 0 {
		t.Errorf("merged view sweep over %d warm candidates allocates %v per run, want 0",
			before, allocs)
	}
}

// TestIngestAllocFootprintWithoutWAL pins the WAL-disabled mutation
// path to its pre-durability allocation count (wired into `make
// bench`): 63 allocs for a warm upsert over a 64-op delta — delta-layer
// clone, rasterization (its point locator sizes its edge table once),
// successor entry. The durable path forks before
// any of this (Registry.MutateKey), and the idempotency cache is
// nil-safe without allocating, so adding the WAL must cost the
// non-durable configuration nothing. If this fails after an intentional
// change to the mutation path, re-measure and move the pin with the
// change that justifies it.
func TestIngestAllocFootprintWithoutWAL(t *testing.T) {
	reg := NewRegistry(resSpace, resOrder)
	reg.SetCompactThreshold(0)
	if _, err := reg.Add("grid", "", resPolys()); err != nil {
		t.Fatal(err)
	}
	poly := geom.NewPolygon(geom.Ring{
		{X: 33, Y: 33}, {X: 39, Y: 33}, {X: 39, Y: 39}, {X: 33, Y: 39},
	})
	for i := 0; i < 64; i++ {
		if _, err := reg.Mutate("grid", MutInsert, -1, poly); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := reg.Mutate("grid", MutUpsert, 5, poly); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 63 {
		t.Errorf("WAL-disabled upsert over delta=64 allocates %v per op, want 63", allocs)
	}
}

// BenchmarkIngest measures mutation throughput against a live dataset:
// each op clones the delta layer (copy-on-write) and rasterizes one
// object, so this is the cost ceiling a single-threaded writer sees.
func BenchmarkIngest(b *testing.B) {
	for _, size := range []int{0, 64, 256} {
		b.Run(fmt.Sprintf("delta=%d", size), func(b *testing.B) {
			reg := NewRegistry(resSpace, resOrder)
			reg.SetCompactThreshold(0) // measure pure mutation cost
			if _, err := reg.Add("grid", "", resPolys()); err != nil {
				b.Fatal(err)
			}
			poly := geom.NewPolygon(geom.Ring{
				{X: 33, Y: 33}, {X: 39, Y: 33}, {X: 39, Y: 39}, {X: 33, Y: 39},
			})
			// Pre-grow the delta so each measured op clones a layer of
			// the target size.
			for i := 0; i < size; i++ {
				if _, err := reg.Mutate("grid", MutInsert, -1, poly); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reg.Mutate("grid", MutUpsert, 5, poly); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompact measures the full epoch roll: apply `ops` upserts
// (always to the same id range, so the base stays a fixed size across
// iterations) and fold them into a fresh epoch — slab copy of
// survivors, side-tree rebuild, no re-rasterization of base objects.
// One iteration is one complete write burst + compaction cycle; no
// timer stops inside the loop (StopTimer + -benchmem means two
// stop-the-world ReadMemStats per iteration, which dwarfs the work).
func BenchmarkCompact(b *testing.B) {
	poly := geom.NewPolygon(geom.Ring{
		{X: 33, Y: 33}, {X: 39, Y: 33}, {X: 39, Y: 39}, {X: 33, Y: 39},
	})
	for _, size := range []int{16, 128} {
		b.Run(fmt.Sprintf("ops=%d", size), func(b *testing.B) {
			reg := NewRegistry(resSpace, resOrder)
			reg.SetCompactThreshold(0)
			if _, err := reg.Add("grid", "", resPolys()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < size; j++ {
					if _, err := reg.Mutate("grid", MutUpsert, 100+j, poly); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := reg.Compact("grid"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
