package harness

import (
	"fmt"
	"sort"
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
			row.Stats[i] = RunFindRelation(m, pairs)
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
		op2 := RunFindRelation(core.OP2, lv.Pairs)
		pc := RunFindRelation(core.PC, lv.Pairs)
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

// Fig9 finds the showcase pair in the OLE-OPE workload.
func (e *Env) Fig9() (CaseStudy, error) {
	pairs, err := e.CandidatePairs(ComplexityCombo)
	if err != nil {
		return CaseStudy{}, err
	}
	best := -1
	bestComplexity := -1
	for i, p := range pairs {
		res := core.FindRelation(core.PC, p.R, p.S)
		if res.Refined || res.Relation != de9im.Inside {
			continue
		}
		if c := p.Complexity(); c > bestComplexity {
			best, bestComplexity = i, c
		}
	}
	if best < 0 {
		return CaseStudy{}, fmt.Errorf("harness: no filter-settled inside pair found")
	}
	p := pairs[best]
	cs := CaseStudy{
		RVerts: p.R.Poly.NumVertices(), SVerts: p.S.Poly.NumVertices(),
		RMBRArea: p.R.MBR.Area(), SMBRArea: p.S.MBR.Area(),
		RPIntervals: len(p.R.Approx.P), RCIntervals: len(p.R.Approx.C),
		SPIntervals: len(p.S.Approx.P), SCIntervals: len(p.S.Approx.C),
	}
	// Repeat the single-pair measurement to get stable timings.
	const reps = 50
	t0 := time.Now()
	var rel de9im.Relation
	for i := 0; i < reps; i++ {
		rel = core.FindRelation(core.PC, p.R, p.S).Relation
	}
	cs.PCTime = time.Since(t0) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		core.FindRelation(core.OP2, p.R, p.S)
	}
	cs.OP2Time = time.Since(t0) / reps
	cs.Relation = rel
	if cs.PCTime > 0 {
		cs.Speedup = float64(cs.OP2Time) / float64(cs.PCTime)
	}
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
}

// Table5Preds are the predicates evaluated in Table 5.
var Table5Preds = []de9im.Relation{de9im.Equals, de9im.Meets, de9im.Inside}

// Table5 measures find-relation vs relate_p on the OLE-OPE workload.
func (e *Env) Table5() ([]Table5Row, error) {
	pairs, err := e.CandidatePairs(ComplexityCombo)
	if err != nil {
		return nil, err
	}
	find := RunFindRelation(core.PC, pairs)
	rows := make([]Table5Row, 0, len(Table5Preds))
	for _, pred := range Table5Preds {
		refined := 0
		start := time.Now()
		for _, p := range pairs {
			if core.RelatePred(core.PC, p.R, p.S, pred).Refined {
				refined++
			}
		}
		elapsed := time.Since(start)
		rt := 0.0
		if elapsed > 0 {
			rt = float64(len(pairs)) / elapsed.Seconds()
		}
		rows = append(rows, Table5Row{
			Pred:             pred,
			FindThroughput:   find.Throughput(),
			RelateThroughput: rt,
			FindRefined:      find.Undetermined,
			RelateRefined:    refined,
		})
	}
	return rows, nil
}
