package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestRunFindRelationAttribution pins the timing-attribution fix: the
// per-pair verdict counts must partition the workload, and the stage
// timers must obey filter+refine <= elapsed with both sides populated
// whenever the corresponding stage ran. Under the old accounting a
// refined pair's filter time was charged entirely to RefineTime, which
// made FilterTime = elapsed - refine an overcount of the loop overhead.
func TestRunFindRelationAttribution(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range core.Methods {
		st := RunSweep(m, core.Test{}, pairs)
		if st.MBRSettled+st.IFSettled+st.Undetermined != st.Pairs {
			t.Errorf("%v: verdicts %d+%d+%d != %d pairs",
				m, st.MBRSettled, st.IFSettled, st.Undetermined, st.Pairs)
		}
		if st.FilterTime <= 0 {
			t.Errorf("%v: FilterTime = %v", m, st.FilterTime)
		}
		if st.Undetermined > 0 && st.RefineTime <= 0 {
			t.Errorf("%v: RefineTime = %v with %d refined pairs", m, st.RefineTime, st.Undetermined)
		}
		if st.Undetermined == 0 && st.RefineTime != 0 {
			t.Errorf("%v: RefineTime = %v without refinements", m, st.RefineTime)
		}
		if st.FilterTime+st.RefineTime > st.Elapsed {
			t.Errorf("%v: stage times %v+%v exceed elapsed %v",
				m, st.FilterTime, st.RefineTime, st.Elapsed)
		}
	}
	// ST2 never consults the intermediate filter.
	if st := RunSweep(core.ST2, core.Test{}, pairs); st.IFSettled != 0 {
		t.Errorf("ST2 settled %d pairs via IF", st.IFSettled)
	}
}

func TestMethodStatsPublish(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	st := RunSweep(core.PC, core.Test{}, pairs)
	reg := obs.NewRegistry()
	st.Publish(reg, "sweep")

	name := func(stage string) string {
		return obs.Name("sweep_verdict_total", "method", "P+C", "stage", stage)
	}
	var sum int64
	for _, stage := range []string{"mbr", "if", "refine"} {
		sum += reg.Counter(name(stage)).Value()
	}
	if sum != int64(st.Pairs) {
		t.Errorf("published verdicts sum to %d, want %d", sum, st.Pairs)
	}
	if got := reg.Counter(name("refine")).Value(); got != int64(st.Undetermined) {
		t.Errorf("published refine count = %d, want %d", got, st.Undetermined)
	}
	var sb strings.Builder
	if err := reg.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `sweep_pairs_total{method="P+C"}`) {
		t.Errorf("prometheus export missing labeled pair counter:\n%s", sb.String())
	}
}
