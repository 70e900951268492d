package spatialtopo

// Benchmarks regenerating the paper's tables and figures; each table or
// figure has a bench family whose relative numbers mirror the published
// series (see EXPERIMENTS.md for paper-vs-measured):
//
//	BenchmarkTable2Build    — APRIL preprocessing cost per polygon
//	BenchmarkTable3Join     — MBR join (filter step) per combination
//	BenchmarkFig7Find       — find-relation per pair, per combo × method
//	BenchmarkFig8Complexity — per-pair cost at complexity levels 1/5/10
//	BenchmarkFig9Pair       — the showcase lake-in-park pair, P+C vs OP2
//	BenchmarkTable5Relate   — find relation vs relate_p per predicate
//	BenchmarkSubstrates     — interval kernels, DE-9IM, Hilbert, APRIL build
//	BenchmarkObservedOverhead — plain vs observed pipeline path
//	BenchmarkTraceOverhead  — plain vs disabled/unsampled request tracing
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/hilbert"
	"repro/internal/interval"
	"repro/internal/join"
	"repro/internal/trace"
)

// benchScale keeps the shared environment's setup time moderate while
// producing thousands of candidate pairs.
const benchScale = 0.25

var (
	benchOnce sync.Once
	benchEnv  *harness.Env
	benchErr  error
)

func sharedEnv(b *testing.B) *harness.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = harness.NewEnv(2026, benchScale, datagen.DefaultOrder)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

func benchPairs(b *testing.B, combo [2]string) []core.Pair {
	b.Helper()
	pairs, err := sharedEnv(b).CandidatePairs(combo)
	if err != nil {
		b.Fatal(err)
	}
	if len(pairs) == 0 {
		b.Fatal("no candidate pairs")
	}
	return pairs
}

// BenchmarkTable2Build measures the preprocessing step: building the
// APRIL approximation of one park polygon (Table 2's P+C column is the
// size of this output).
func BenchmarkTable2Build(b *testing.B) {
	env := sharedEnv(b)
	polys := env.Suite.Sets["OPE"]
	builder := env.Builder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Build(polys[i%len(polys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Join measures the filter step producing Table 3's
// candidate pairs.
func BenchmarkTable3Join(b *testing.B) {
	env := sharedEnv(b)
	left := env.Datasets["OLE"].MBRs()
	right := env.Datasets["OPE"].MBRs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pairs := join.Pairs(left, right); len(pairs) == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkFig7Find is Fig. 7(a): per-pair find-relation cost for every
// dataset combination and method. Inverted throughput: pairs/s =
// 1e9/(ns/op).
func BenchmarkFig7Find(b *testing.B) {
	for _, combo := range datagen.Combos {
		pairs := benchPairs(b, combo)
		for _, m := range core.Methods {
			b.Run(datagen.ComboName(combo)+"/"+m.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					core.FindRelation(m, p.R, p.S)
				}
			})
		}
	}
}

// BenchmarkFig8Complexity is Fig. 8(b): per-pair cost at the lowest,
// middle and highest complexity levels of OLE-OPE, for OP2 and P+C.
func BenchmarkFig8Complexity(b *testing.B) {
	levels, err := sharedEnv(b).Table4(10)
	if err != nil {
		b.Fatal(err)
	}
	for _, idx := range []int{0, 4, 9} {
		if idx >= len(levels) {
			continue
		}
		lv := levels[idx]
		for _, m := range []core.Method{core.OP2, core.PC} {
			b.Run(benchLevelName(lv.Level)+"/"+m.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := lv.Pairs[i%len(lv.Pairs)]
					core.FindRelation(m, p.R, p.S)
				}
			})
		}
	}
}

func benchLevelName(l int) string {
	if l >= 10 {
		return "L" + string(rune('0'+l/10)) + string(rune('0'+l%10))
	}
	return "L" + string(rune('0'+l))
}

// BenchmarkFig9Pair is the case study: the most complex filter-settled
// inside pair, P+C (no refinement) vs OP2 (full DE-9IM). `experiments
// -exp fig9` times the same pair with the same function.
func BenchmarkFig9Pair(b *testing.B) {
	p, err := sharedEnv(b).ShowcasePair()
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []core.Method{core.PC, core.OP2} {
		b.Run(m.String(), harness.PairBench(m, p))
	}
}

// BenchmarkTable5Relate compares find relation against relate_p for the
// Table 5 predicates on OLE-OPE pairs.
func BenchmarkTable5Relate(b *testing.B) {
	pairs := benchPairs(b, harness.ComplexityCombo)
	b.Run("find_relation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			core.FindRelation(core.PC, p.R, p.S)
		}
	})
	for _, pred := range harness.Table5Preds {
		b.Run("relate_"+pred.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				core.RelatePred(core.PC, p.R, p.S, pred)
			}
		})
	}
}

// --- substrate benchmarks ---

func benchLists(n int) (interval.List, interval.List) {
	rng := rand.New(rand.NewSource(9))
	mk := func() interval.List {
		ivs := make([]interval.Interval, n)
		var cur uint64
		for i := range ivs {
			cur += 1 + rng.Uint64()%50
			end := cur + 1 + rng.Uint64()%30
			ivs[i] = interval.Interval{Start: cur, End: end}
			cur = end
		}
		return interval.Normalize(ivs)
	}
	return mk(), mk()
}

func BenchmarkSubstrates(b *testing.B) {
	x, y := benchLists(512)
	b.Run("interval_overlap_512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			interval.Overlap(x, y)
		}
	})
	b.Run("interval_inside_512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			interval.Inside(x, y)
		}
	})

	c := hilbert.New(16)
	b.Run("hilbert_d2xy_xy2d", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x, y := c.XY(uint64(i) % c.NumCells())
			if c.D(x, y) != uint64(i)%c.NumCells() {
				b.Fatal("bijection broken")
			}
		}
	})

	rng := rand.New(rand.NewSource(4))
	small := datagen.Blob(rng, geom.Point{X: 100, Y: 100}, 10, 64)
	big := datagen.Blob(rng, geom.Point{X: 100, Y: 100}, 40, 2048)
	other := datagen.Blob(rng, geom.Point{X: 110, Y: 105}, 35, 1024)
	b.Run("de9im_small_64v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			de9im.RelatePolygons(small, other)
		}
	})
	b.Run("de9im_large_2048v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			de9im.RelatePolygons(big, other)
		}
	})

	ab := april.NewBuilder(geom.MBR{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}, 11)
	b.Run("april_build_1024v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ab.Build(other); err != nil {
				b.Fatal(err)
			}
		}
	})

	loc := geom.NewPolygonLocator(big)
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Point{X: 60 + rng.Float64()*80, Y: 60 + rng.Float64()*80}
	}
	b.Run("locator_query_2048v", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loc.Locate(pts[i%len(pts)])
		}
	})
}

// BenchmarkParallel measures the parallel find-relation sweep of the
// OLE-OPE workload (the [39]-style evaluation) at 1 worker vs all cores.
func BenchmarkParallel(b *testing.B) {
	pairs := benchPairs(b, harness.ComplexityCombo)
	for _, workers := range []int{1, 0} {
		name := "workers_1"
		if workers == 0 {
			name = "workers_max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RunFindRelation(context.Background(), core.PC, pairs, workers, nil)
			}
		})
	}
}

// BenchmarkObservedOverhead compares the plain find-relation path
// against the Sweeper — the per-pair evaluator every sweep runs, timing
// each pair's filter and refinement stages and tallying it into its
// MethodStats — on the OLE-OPE workload: the guard for keeping the
// pipeline permanently instrumented. The sweeper pays two to four clock
// reads per pair, which amortize against the µs-scale average pair cost
// of a mixed workload: "sweeper" must stay within 5% of "plain".
func BenchmarkObservedOverhead(b *testing.B) {
	pairs := benchPairs(b, harness.ComplexityCombo)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			core.FindRelation(core.PC, p.R, p.S)
		}
	})
	b.Run("sweeper", func(b *testing.B) {
		sw := core.NewSweeper(core.PC, core.Test{}, new(core.MethodStats), true)
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sw.Eval(p.R, p.S)
		}
	})
}

// BenchmarkTraceOverhead is BenchmarkObservedOverhead's counterpart for
// request tracing: the per-pair cost the sweep pays when tracing is off
// ("disabled": nil-span pointer checks only — must stay within 5% of
// "plain") and when a request is traced but the coin said no
// ("unsampled": one context lookup per sweep plus nil-span checks per
// pair). The sampled path materializes spans and is measured in
// internal/trace's BenchmarkSpanOps instead — it is bounded by MaxSpans,
// not by workload size.
func BenchmarkTraceOverhead(b *testing.B) {
	pairs := benchPairs(b, harness.ComplexityCombo)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			core.FindRelation(core.PC, p.R, p.S)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var tr *trace.Tracer
		ctx, root := tr.Start(context.Background(), "req")
		wsp := trace.FromContext(ctx).Child("sweep.worker")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			core.FindRelation(core.PC, p.R, p.S)
			// The exact nil-span operations an instrumented sweep issues
			// per pair when tracing is disabled.
			if wsp.Recording() {
				b.Fatal("nil span recording")
			}
			wsp.ChildAt("pair", time.Time{}, 0)
		}
		root.End()
	})
	b.Run("unsampled", func(b *testing.B) {
		tr := trace.New(trace.Config{Sample: 0, Capacity: 8})
		ctx, root := tr.Start(context.Background(), "req")
		wsp := trace.FromContext(ctx).Child("sweep.worker")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			core.FindRelation(core.PC, p.R, p.S)
			if wsp.Recording() {
				b.Fatal("unsampled span recording")
			}
			wsp.ChildAt("pair", time.Time{}, 0)
		}
		root.End()
	})
}
