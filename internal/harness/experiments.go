package harness

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
)

// Table2Row describes one dataset (Table 2 of the paper).
type Table2Row struct {
	Name     string
	Entity   string
	Polygons int
	Vertices int
	PolyKB   float64
	MBRKB    float64
	ApproxKB float64
}

// Table2 computes the dataset description table.
func (e *Env) Table2() []Table2Row {
	rows := make([]Table2Row, 0, len(e.Datasets))
	for _, name := range e.Suite.SortedNames() {
		ds := e.Datasets[name]
		s := ds.Sizes()
		rows = append(rows, Table2Row{
			Name:     name,
			Entity:   ds.Entity,
			Polygons: ds.Len(),
			Vertices: s.Vertices,
			PolyKB:   float64(s.Polygons) / 1024,
			MBRKB:    float64(s.MBRs) / 1024,
			ApproxKB: float64(s.Approx) / 1024,
		})
	}
	return rows
}

// Table3Row is one dataset combination with its candidate pair count.
type Table3Row struct {
	Combo string
	Pairs int
}

// Table3 computes the candidate pair counts of every combination.
func (e *Env) Table3() ([]Table3Row, error) {
	rows := make([]Table3Row, 0, len(datagen.Combos))
	for _, c := range datagen.Combos {
		pairs, err := e.CandidatePairs(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Combo: datagen.ComboName(c), Pairs: len(pairs)})
	}
	return rows, nil
}

// Fig7Row holds the per-method stats of one combination: throughput
// (Fig. 7a) and undetermined percentage (Fig. 7b).
type Fig7Row struct {
	Combo string
	Stats [core.NumMethods]core.MethodStats
}

// Fig7 sweeps all four methods over every combination.
func (e *Env) Fig7() ([]Fig7Row, error) {
	rows := make([]Fig7Row, 0, len(datagen.Combos))
	for _, c := range datagen.Combos {
		pairs, err := e.CandidatePairs(c)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Combo: datagen.ComboName(c)}
		for i, m := range core.Methods {
			row.Stats[i] = RunSweep(m, core.Test{}, pairs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ComplexityLevel is one decile of a workload by pair complexity
// (Table 4).
type ComplexityLevel struct {
	Level      int // 1-based
	MinV, MaxV int // complexity range (sum of vertex counts)
	Pairs      []core.Pair
}

// SplitComplexity divides pairs into n levels of (near) equal population
// by ascending complexity, as in Table 4.
func SplitComplexity(pairs []core.Pair, n int) []ComplexityLevel {
	sorted := make([]core.Pair, len(pairs))
	copy(sorted, pairs)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Complexity() < sorted[j].Complexity()
	})
	levels := make([]ComplexityLevel, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(sorted) / n
		hi := (i + 1) * len(sorted) / n
		if lo >= hi {
			continue
		}
		chunk := sorted[lo:hi]
		levels = append(levels, ComplexityLevel{
			Level: i + 1,
			MinV:  chunk[0].Complexity(),
			MaxV:  chunk[len(chunk)-1].Complexity(),
			Pairs: chunk,
		})
	}
	return levels
}

// ComplexityCombo is the scenario used for the scalability experiments
// (Sec. 4.3 uses OLE-OPE).
var ComplexityCombo = [2]string{"OLE", "OPE"}

// Table4 builds the complexity-level grouping of the OLE-OPE workload.
func (e *Env) Table4(nLevels int) ([]ComplexityLevel, error) {
	pairs, err := e.CandidatePairs(ComplexityCombo)
	if err != nil {
		return nil, err
	}
	return SplitComplexity(pairs, nLevels), nil
}

// Fig8Row reports, for one complexity level, the P+C undetermined share
// (Fig. 8a) and the stage costs of OP2 and P+C (Fig. 8b).
type Fig8Row struct {
	Level          int
	MinV, MaxV     int
	Pairs          int
	PCUndetermined float64 // % of pairs P+C sends to refinement
	OP2RefTime     time.Duration
	PCFilterTime   time.Duration
	PCRefTime      time.Duration
}

// Fig8 runs the scalability experiment over complexity levels.
func (e *Env) Fig8(nLevels int) ([]Fig8Row, error) {
	levels, err := e.Table4(nLevels)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, 0, len(levels))
	for _, lv := range levels {
		op2 := RunSweep(core.OP2, core.Test{}, lv.Pairs)
		pc := RunSweep(core.PC, core.Test{}, lv.Pairs)
		rows = append(rows, Fig8Row{
			Level:          lv.Level,
			MinV:           lv.MinV,
			MaxV:           lv.MaxV,
			Pairs:          len(lv.Pairs),
			PCUndetermined: pc.UndeterminedPct(),
			OP2RefTime:     op2.RefineTime,
			PCFilterTime:   pc.FilterTime,
			PCRefTime:      pc.RefineTime,
		})
	}
	return rows, nil
}

// CaseStudy is the Fig. 9 showcase: the most complex pair whose relation
// the P+C intermediate filter settles without refinement, with per-method
// timings.
type CaseStudy struct {
	Relation                 de9im.Relation
	RVerts, SVerts           int
	RMBRArea, SMBRArea       float64
	RPIntervals, RCIntervals int
	SPIntervals, SCIntervals int
	PCTime, OP2Time          time.Duration
	Speedup                  float64
}

// ShowcasePair selects the Fig. 9 pair from the OLE-OPE workload: the
// most complex candidate the P+C filter settles as inside without
// refinement.
func (e *Env) ShowcasePair() (core.Pair, error) {
	pairs, err := e.CandidatePairs(ComplexityCombo)
	if err != nil {
		return core.Pair{}, err
	}
	best := -1
	for i, p := range pairs {
		res := core.FindRelation(core.PC, p.R, p.S)
		if res.Refined || res.Relation != de9im.Inside {
			continue
		}
		if best < 0 || p.Complexity() > pairs[best].Complexity() {
			best = i
		}
	}
	if best < 0 {
		return core.Pair{}, fmt.Errorf("harness: no filter-settled inside pair found")
	}
	return pairs[best], nil
}

// PairBench is the Fig. 9 measurement: find relation on one pair under
// method m, b.N times. BenchmarkFig9Pair runs it, and Fig9 reads its
// per-pair time through testing.Benchmark.
func PairBench(m core.Method, p core.Pair) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FindRelation(m, p.R, p.S)
		}
	}
}

// Fig9 describes the showcase pair and times it under P+C and OP2.
func (e *Env) Fig9() (CaseStudy, error) {
	p, err := e.ShowcasePair()
	if err != nil {
		return CaseStudy{}, err
	}
	pc := testing.Benchmark(PairBench(core.PC, p))
	op2 := testing.Benchmark(PairBench(core.OP2, p))
	cs := CaseStudy{
		Relation: core.FindRelation(core.PC, p.R, p.S).Relation,
		RVerts:   p.R.Poly.NumVertices(), SVerts: p.S.Poly.NumVertices(),
		RMBRArea: p.R.MBR.Area(), SMBRArea: p.S.MBR.Area(),
		RPIntervals: len(p.R.Approx.P), RCIntervals: len(p.R.Approx.C),
		SPIntervals: len(p.S.Approx.P), SCIntervals: len(p.S.Approx.C),
		PCTime:  pc.T / time.Duration(pc.N),
		OP2Time: op2.T / time.Duration(op2.N),
	}
	// The ratio of the raw totals, not of the whole-nanosecond per-pair
	// times, which truncate a P+C pair's few dozen ns.
	cs.Speedup = float64(op2.T) * float64(pc.N) / (float64(pc.T) * float64(op2.N))
	return cs, nil
}

// Table5Row compares find-relation throughput against relate_p throughput
// for one predicate (Table 5).
type Table5Row struct {
	Pred             de9im.Relation
	FindThroughput   float64
	RelateThroughput float64
	FindRefined      int // pairs find relation sent to refinement
	RelateRefined    int // pairs relate_p sent to refinement
	Holds            int // pairs the predicate holds for
}

// Table5Preds are the predicates evaluated in Table 5.
var Table5Preds = []de9im.Relation{de9im.Equals, de9im.Meets, de9im.Inside}

// Table5 measures find-relation vs relate_p on the OLE-OPE workload.
func (e *Env) Table5() ([]Table5Row, error) {
	pairs, err := e.CandidatePairs(ComplexityCombo)
	if err != nil {
		return nil, err
	}
	find := RunSweep(core.PC, core.Test{}, pairs)
	rows := make([]Table5Row, 0, len(Table5Preds))
	for _, pred := range Table5Preds {
		rel := RunSweep(core.PC, core.PredicateTest(pred), pairs)
		rows = append(rows, Table5Row{
			Pred:             pred,
			FindThroughput:   find.Throughput(),
			RelateThroughput: rel.Throughput(),
			FindRefined:      find.Undetermined,
			RelateRefined:    rel.Undetermined,
			Holds:            rel.Holds,
		})
	}
	return rows, nil
}
