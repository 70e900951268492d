package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/de9im"
	"repro/internal/obs"
)

// recordSink captures every event for inspection.
type recordSink struct {
	events []struct {
		m      Method
		res    Result
		v      Verdict
		filter time.Duration
		refine time.Duration
	}
}

func (r *recordSink) ObservePair(m Method, res Result, v Verdict, filter, refine time.Duration) {
	r.events = append(r.events, struct {
		m      Method
		res    Result
		v      Verdict
		filter time.Duration
		refine time.Duration
	}{m, res, v, filter, refine})
}

// TestObservedMatchesPlain: the observed path must return bit-identical
// results to the plain path for every method and pair, with any sink.
func TestObservedMatchesPlain(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(2026))
	pairs := testPairs(t, b, rng)
	for _, m := range Methods {
		sink := &recordSink{}
		for i, pr := range pairs {
			want := FindRelation(m, pr[0], pr[1])
			got := FindRelationObserved(m, pr[0], pr[1], sink)
			if got != want {
				t.Fatalf("%v pair %d: observed %+v != plain %+v", m, i, got, want)
			}
			if nilGot := FindRelationObserved(m, pr[0], pr[1], nil); nilGot != want {
				t.Fatalf("%v pair %d: nil-sink path diverged", m, i)
			}
		}
		if len(sink.events) != len(pairs) {
			t.Fatalf("%v: %d events for %d pairs", m, len(sink.events), len(pairs))
		}
	}
}

// TestVerdictClassification checks the stage attribution on pairs with a
// known settling stage.
func TestVerdictClassification(t *testing.T) {
	b := testBuilder(t)
	sink := &recordSink{}
	last := func() Verdict { return sink.events[len(sink.events)-1].v }

	// Disjoint MBRs: settled by the MBR filter under every method.
	r := obj(t, b, 0, rect(1, 1, 4, 4))
	s := obj(t, b, 1, rect(50, 50, 60, 60))
	for _, m := range Methods {
		FindRelationObserved(m, r, s, sink)
		if last() != VerdictMBR {
			t.Errorf("%v: disjoint MBRs classified %v", m, last())
		}
	}

	// Nested pair: the P+C intermediate filter settles it.
	lake := obj(t, b, 2, rect(40, 40, 70, 70))
	park := obj(t, b, 3, rect(10, 10, 120, 120))
	FindRelationObserved(PC, lake, park, sink)
	if last() != VerdictIF {
		t.Errorf("P+C nested pair classified %v, want if", last())
	}

	// ST2 refines everything with intersecting MBRs.
	FindRelationObserved(ST2, lake, park, sink)
	if last() != VerdictRefine {
		t.Errorf("ST2 classified %v, want refine", last())
	}
	for _, ev := range sink.events {
		if (ev.v == VerdictRefine) != ev.res.Refined {
			t.Errorf("verdict %v disagrees with Refined=%t", ev.v, ev.res.Refined)
		}
		if ev.filter < 0 || ev.refine < 0 {
			t.Errorf("negative stage time: filter=%v refine=%v", ev.filter, ev.refine)
		}
		if ev.v != VerdictRefine && ev.refine != 0 {
			t.Errorf("unrefined pair charged refine time %v", ev.refine)
		}
	}
}

// TestPipelineMetrics: the registry-backed sink's verdict counters must
// sum to the pair total, and relation tallies must match a plain sweep.
func TestPipelineMetrics(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(7))
	pairs := testPairs(t, b, rng)
	reg := obs.NewRegistry()
	pm := NewPipelineMetrics(reg, "pipeline")

	var wantRel [de9im.NumRelations]int64
	refined := 0
	for _, pr := range pairs {
		res := FindRelationObserved(PC, pr[0], pr[1], pm)
		wantRel[res.Relation]++
		if res.Refined {
			refined++
		}
	}
	if got := pm.Pairs.Value(); got != int64(len(pairs)) {
		t.Errorf("pairs_total = %d, want %d", got, len(pairs))
	}
	var verdictSum int64
	for v := Verdict(0); int(v) < NumVerdicts; v++ {
		verdictSum += pm.Verdicts[v].Value()
	}
	if verdictSum != int64(len(pairs)) {
		t.Errorf("verdict counters sum to %d, want %d", verdictSum, len(pairs))
	}
	if got := pm.Verdicts[VerdictRefine].Value(); got != int64(refined) {
		t.Errorf("refine verdicts = %d, want %d", got, refined)
	}
	for rel, want := range wantRel {
		if got := pm.Relations[rel].Value(); got != want {
			t.Errorf("relation %v tally = %d, want %d", de9im.Relation(rel), got, want)
		}
	}
	if pm.FilterSeconds.Count() != int64(len(pairs)) {
		t.Errorf("filter histogram observed %d of %d pairs", pm.FilterSeconds.Count(), len(pairs))
	}
	if pm.RefineSeconds.Count() != int64(refined) {
		t.Errorf("refine histogram observed %d of %d refined pairs", pm.RefineSeconds.Count(), refined)
	}
	// The registry names must be reconstructable for scrapers.
	if reg.Counter(obs.Name("pipeline_verdict_total", "stage", "refine")).Value() != int64(refined) {
		t.Error("refine verdict counter not reachable by name")
	}
}

func TestVerdictString(t *testing.T) {
	names := map[Verdict]string{VerdictMBR: "mbr", VerdictIF: "if", VerdictRefine: "refine"}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
	if Verdict(9).String() != "unknown" {
		t.Error("unknown verdict name")
	}
}

func TestNopSink(t *testing.T) {
	b := testBuilder(t)
	r := obj(t, b, 0, rect(1, 1, 40, 40))
	s := obj(t, b, 1, rect(5, 5, 30, 30))
	want := FindRelation(PC, r, s)
	if got := FindRelationObserved(PC, r, s, NopSink{}); got != want {
		t.Errorf("NopSink path: %+v != %+v", got, want)
	}
}
