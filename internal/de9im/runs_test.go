package de9im_test

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/wkt"
)

// generatorPairs is how many oracle generator pairs the run-walk tests
// draw (fixed seed): the generator mix covers every contact kind the
// universe does, on larger and multi-ring shapes.
const generatorPairs = 3000

// forOraclePairs calls fn with every oracle generator pair, both
// orders, every geometric regression-corpus pair, both orders, and
// every pair of the oracle's small universe (which holds both orders
// already).
func forOraclePairs(t *testing.T, fn func(name string, a, b *geom.MultiPolygon)) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < generatorPairs; i++ {
		p := oracle.GeneratePair(rng)
		fn(p.Name, p.A, p.B)
		fn(p.Name, p.B, p.A)
	}
	regs, err := oracle.LoadRegressions(filepath.Join("..", "oracle", oracle.RegressionDir))
	if err != nil || len(regs) == 0 {
		t.Fatalf("regression corpus: %d pairs, err %v", len(regs), err)
	}
	for _, reg := range regs {
		if !reg.ParseOnly && !reg.ExpectInvalid {
			fn(reg.Pair.Name, reg.Pair.A, reg.Pair.B)
			fn(reg.Pair.Name, reg.Pair.B, reg.Pair.A)
		}
	}
	oracle.Universe(func(p oracle.Pair) { fn(p.Name, p.A, p.B) })
}

var (
	envOnce sync.Once
	env     *harness.Env
	envErr  error
)

// sharedEnv is the harness's test environment (seed 2026, scale 0.08,
// default grid), built once.
func sharedEnv(t *testing.T) *harness.Env {
	t.Helper()
	envOnce.Do(func() { env, envErr = harness.NewEnv(2026, 0.08, datagen.DefaultOrder) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return env
}

// TestRunWalkMatchesReference: the run walk locates one point per run
// between contacts, so a contact the noder failed to report would
// mislabel a whole run. It must give the per-sub-segment reference
// walk's (in, on, out) flags on every oracle pair and on every
// candidate pair of every dataset combination of the shared
// environment (arbitrary float coordinates).
func TestRunWalkMatchesReference(t *testing.T) {
	var sc de9im.Scratch
	bad := 0
	check := func(name string, r, s *de9im.Prepared) {
		got, want := de9im.SideFlags(r, s, &sc, false), de9im.SideFlags(r, s, &sc, true)
		if got != want && bad < 5 {
			bad++
			t.Errorf("%s: run walk flags %v, reference %v\nA %s\nB %s", name, got, want,
				wkt.MarshalMultiPolygon(r.Geom), wkt.MarshalMultiPolygon(s.Geom))
		}
	}
	pairs := 0
	forOraclePairs(t, func(name string, a, b *geom.MultiPolygon) {
		pairs++
		check(name, de9im.Prepare(a), de9im.Prepare(b))
	})
	e := sharedEnv(t)
	for _, combo := range datagen.Combos {
		cand, err := e.CandidatePairs(combo)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cand {
			pairs++
			check(datagen.ComboName(combo), p.R.Prepared(), p.S.Prepared())
		}
	}
	t.Logf("%d pairs", pairs)
}

// maxProbeLocates is the most Locates one interior-point probe makes:
// one, then two for each of its four nudges.
const maxProbeLocates = 9

// The pairs P+C refines in the shared environment's OLE-OPE sweep, the
// Locates RelateScratch makes over them, and the Locates the
// per-sub-segment reference walk makes on their boundaries alone
// (365.5 a pair, against 3.55 a pair for everything RelateScratch does).
const (
	refinedOLEOPE           = 60
	refinedOLEOPELocates    = 213
	refinedOLEOPERefLocates = 21931
)

// TestLocatesPerPair bounds the point locations RelateScratch makes: at
// most one per ring, one per contact event and maxProbeLocates per
// interior point, on every oracle pair; and it pins their total over
// the shared environment's refined OLE-OPE P+C pairs, where the gain
// of the run walk shows without timing noise.
func TestLocatesPerPair(t *testing.T) {
	bad := 0
	relate := func(name string, r, s *de9im.Prepared, sc *de9im.Scratch) de9im.Matrix {
		before := sc.Locates()
		m := de9im.RelateScratch(r, s, sc)
		n := sc.Locates() - before
		bound := r.Rings() + s.Rings() + sc.Events() +
			maxProbeLocates*(len(r.InteriorPoints())+len(s.InteriorPoints()))
		if n > bound && bad < 5 {
			bad++
			t.Errorf("%s: %d locates, bound %d\nA %s\nB %s", name, n, bound,
				wkt.MarshalMultiPolygon(r.Geom), wkt.MarshalMultiPolygon(s.Geom))
		}
		return m
	}
	var sc de9im.Scratch
	forOraclePairs(t, func(name string, a, b *geom.MultiPolygon) {
		relate(name, de9im.Prepare(a), de9im.Prepare(b), &sc)
	})

	pairs, err := sharedEnv(t).CandidatePairs([2]string{"OLE", "OPE"})
	if err != nil {
		t.Fatal(err)
	}
	var run, ref de9im.Scratch
	refined := 0
	refine := func(r, s *core.Object) de9im.Matrix {
		refined++
		de9im.SideFlags(r.Prepared(), s.Prepared(), &ref, true)
		return relate("OLE-OPE", r.Prepared(), s.Prepared(), &run)
	}
	for _, p := range pairs {
		core.FindRelationWith(core.PC, p.R, p.S, refine)
	}
	t.Logf("%d refined pairs: %.1f locates a pair (per-sub-segment walk: %.1f on the boundaries alone)",
		refined, float64(run.Locates())/float64(refined), float64(ref.Locates())/float64(refined))
	if got, want := [3]int{refined, run.Locates(), ref.Locates()},
		[3]int{refinedOLEOPE, refinedOLEOPELocates, refinedOLEOPERefLocates}; got != want {
		t.Errorf("{refined pairs, locates, reference-walk locates} = %v, golden %v", got, want)
	}
}
