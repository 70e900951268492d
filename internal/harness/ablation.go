package harness

import (
	"time"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/de9im"
)

// Ablations isolate the design choices DESIGN.md calls out: the global
// grid granularity and the contribution of the Progressive lists.

// GridAblationRow reports the effect of one grid order on the OLE-OPE
// workload.
type GridAblationRow struct {
	Order        uint
	ApproxKB     float64 // P+C storage of OLE + OPE
	PCUndetPct   float64 // find-relation pairs refined under P+C
	MeetsRefined int     // relate_meets pairs refined
	Pairs        int
	BuildTime    time.Duration // approximation construction time
}

// GridOrderAblation regenerates the OLE/OPE datasets at each grid order
// (same seed, identical polygons) and measures filter power vs
// approximation cost — the tradeoff behind the paper's 2^16 choice.
func GridOrderAblation(seed int64, scale float64, orders []uint) ([]GridAblationRow, error) {
	// The polygons are identical across orders; only the approximations
	// are rebuilt, and only for the two datasets the experiment uses.
	suite := datagen.NewSuite(seed, scale)
	rows := make([]GridAblationRow, 0, len(orders))
	for _, order := range orders {
		builder := april.NewBuilder(suite.Space, order)
		start := time.Now()
		left, err := dataset.Precompute("OLE", datagen.EntityTypes["OLE"], suite.Sets["OLE"], builder)
		if err != nil {
			return nil, err
		}
		right, err := dataset.Precompute("OPE", datagen.EntityTypes["OPE"], suite.Sets["OPE"], builder)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)

		pairs, _ := candidatePairs(left, right)
		st := RunSweep(core.PC, core.Test{}, pairs)
		meets := RunSweep(core.PC, core.PredicateTest(de9im.Meets), pairs)
		rows = append(rows, GridAblationRow{
			Order:        order,
			ApproxKB:     float64(left.Sizes().Approx+right.Sizes().Approx) / 1024,
			PCUndetPct:   st.UndeterminedPct(),
			MeetsRefined: meets.Undetermined,
			Pairs:        len(pairs),
			BuildTime:    build,
		})
	}
	return rows, nil
}

// StripProgressive returns copies of the pairs with empty P lists: the
// C-only variant that reduces P+C to APRIL-style evidence. The copies
// are fresh objects, so they are prepared here, before any sweep times
// them.
func StripProgressive(pairs []core.Pair) []core.Pair {
	out := make([]core.Pair, len(pairs))
	cache := make(map[*core.Object]*core.Object)
	strip := func(o *core.Object) *core.Object {
		if c, ok := cache[o]; ok {
			return c
		}
		c := &core.Object{ID: o.ID, Poly: o.Poly, MBR: o.MBR, Approx: o.Approx}
		c.Approx.P = nil
		cache[o] = c
		return c
	}
	for i, p := range pairs {
		out[i] = core.Pair{R: strip(p.R), S: strip(p.S)}
	}
	prepare(out)
	return out
}

// PListAblationRow compares pipeline variants on one workload.
type PListAblationRow struct {
	Variant    string
	UndetPct   float64
	Throughput float64
}

// PListAblation measures the full P+C pipeline, the C-only variant and
// the APRIL baseline on the OLE-OPE workload.
func (e *Env) PListAblation() ([]PListAblationRow, error) {
	pairs, err := e.CandidatePairs(ComplexityCombo)
	if err != nil {
		return nil, err
	}
	full := RunSweep(core.PC, core.Test{}, pairs)
	cOnly := RunSweep(core.PC, core.Test{}, StripProgressive(pairs))
	april := RunSweep(core.APRIL, core.Test{}, pairs)
	return []PListAblationRow{
		{Variant: "P+C (full)", UndetPct: full.UndeterminedPct(), Throughput: full.Throughput()},
		{Variant: "C-only (P stripped)", UndetPct: cOnly.UndeterminedPct(), Throughput: cOnly.Throughput()},
		{Variant: "APRIL baseline", UndetPct: april.UndeterminedPct(), Throughput: april.Throughput()},
	}, nil
}
