// Package harness runs the paper's experiments (Sec. 4) on the synthetic
// dataset suite: one runner per table and figure, each returning typed
// rows plus a text rendering that mirrors the paper's presentation.
// EXPERIMENTS.md records paper-vs-measured values for every experiment.
package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/join"
)

// Env is a fully preprocessed experiment environment: the generated
// datasets with MBRs and APRIL approximations built, sharing one global
// grid per the paper's setup.
type Env struct {
	Suite    *datagen.Suite
	Builder  *april.Builder
	Datasets map[string]*dataset.Dataset
	// PrepTime is the DE-9IM preparation (core.Object.Prepared) of every
	// object in the candidate pairs built so far. Like the APRIL build it
	// is precomputation: CandidatePairs pays it, so no timed sweep does.
	PrepTime time.Duration

	pairCache map[string][]core.Pair
}

// Kept for frozen bench/; delete when bench/ is next editable.
type Pair = core.Pair

// Kept for frozen bench/; delete when bench/ is next editable.
var RunFindRelationParallelCtx = core.RunFindRelation

// RunSweep is the serial sweep the experiments time: core.RunSweep
// with one worker and no slow-pair log. A pair panic crashes the
// experiment.
func RunSweep(m core.Method, test core.Test, pairs []core.Pair) core.MethodStats {
	st, err := core.RunSweep(context.Background(), m, test, pairs, 1, false, nil)
	if err != nil {
		panic(err)
	}
	return st
}

// NewEnv generates the suite and precomputes every dataset.
// Scale multiplies dataset cardinalities; order is the grid order
// (datagen.DefaultOrder reproduces the default setup).
func NewEnv(seed int64, scale float64, order uint) (*Env, error) {
	suite := datagen.NewSuite(seed, scale)
	b := april.NewBuilder(suite.Space, order)
	e := &Env{
		Suite:     suite,
		Builder:   b,
		Datasets:  make(map[string]*dataset.Dataset, len(suite.Sets)),
		pairCache: make(map[string][]core.Pair),
	}
	for name, polys := range suite.Sets {
		ds, err := dataset.Precompute(name, datagen.EntityTypes[name], polys, b)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		e.Datasets[name] = ds
	}
	return e, nil
}

// CandidatePairs runs the spatial-join filter step for a dataset
// combination and returns the MBR-intersecting pairs, every object
// prepared for refinement. Results are cached: the paper excludes this
// step's cost from all measurements.
func (e *Env) CandidatePairs(combo [2]string) ([]core.Pair, error) {
	key := datagen.ComboName(combo)
	if cached, ok := e.pairCache[key]; ok {
		return cached, nil
	}
	left, ok := e.Datasets[combo[0]]
	if !ok {
		return nil, fmt.Errorf("harness: unknown dataset %q", combo[0])
	}
	right, ok := e.Datasets[combo[1]]
	if !ok {
		return nil, fmt.Errorf("harness: unknown dataset %q", combo[1])
	}
	pairs, prep := candidatePairs(left, right)
	e.PrepTime += prep
	e.pairCache[key] = pairs
	return pairs, nil
}

// candidatePairs joins two datasets' MBRs into candidate pairs and
// prepares both sides of every pair, returning how long preparation
// took. An object already prepared (a dataset in several combinations)
// costs nothing the second time.
func candidatePairs(left, right *dataset.Dataset) ([]core.Pair, time.Duration) {
	idPairs := join.Pairs(left.MBRs(), right.MBRs())
	pairs := make([]core.Pair, len(idPairs))
	for i, p := range idPairs {
		pairs[i] = core.Pair{R: left.Objects[p[0]], S: right.Objects[p[1]]}
	}
	start := time.Now()
	prepare(pairs)
	return pairs, time.Since(start)
}

// prepare builds the DE-9IM structures of both objects of every pair,
// the lazily computed interior points included, so that a sweep over
// the pairs refines warm.
func prepare(pairs []core.Pair) {
	for _, p := range pairs {
		p.R.Prepared().InteriorPoints()
		p.S.Prepared().InteriorPoints()
	}
}
