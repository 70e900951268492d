package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/de9im"
)

// TestObservedMatchesPlain: the Sweeper — timed or not — must return
// bit-identical results to the plain path for every method and pair, and
// tally every pair exactly once.
func TestObservedMatchesPlain(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(2026))
	pairs := testPairs(t, b, rng)
	for _, m := range Methods {
		for _, timed := range []bool{false, true} {
			var st MethodStats
			sw := NewSweeper(m, Test{}, &st, timed)
			for i, pr := range pairs {
				want := FindRelation(m, pr[0], pr[1])
				got, holds := sw.Eval(pr[0], pr[1])
				if got != want || holds {
					t.Fatalf("%v timed=%t pair %d: sweeper %+v (holds %t) != plain %+v", m, timed, i, got, holds, want)
				}
			}
			if st.Pairs != len(pairs) || st.MBRSettled+st.IFSettled+st.Undetermined != len(pairs) {
				t.Fatalf("%v timed=%t: %+v for %d pairs", m, timed, st, len(pairs))
			}
			if !timed && (st.FilterTime != 0 || st.RefineTime != 0) {
				t.Errorf("%v: untimed sweeper recorded stage time %v/%v", m, st.FilterTime, st.RefineTime)
			}
		}
	}
}

// TestVerdictClassification checks the stage attribution on pairs with a
// known settling stage, in find and predicate mode.
func TestVerdictClassification(t *testing.T) {
	b := testBuilder(t)
	eval := func(m Method, test Test, r, s *Object) *Sweeper {
		sw := NewSweeper(m, test, new(MethodStats), true)
		if res, _ := sw.Eval(r, s); test.Find() && (sw.verdict == VerdictRefine) != res.Refined {
			t.Errorf("%v: verdict %v disagrees with Refined=%t", m, sw.verdict, res.Refined)
		}
		if sw.filterTime < 0 || sw.refineTime < 0 {
			t.Errorf("%v: negative stage time: filter=%v refine=%v", m, sw.filterTime, sw.refineTime)
		}
		if sw.verdict != VerdictRefine && sw.refineTime != 0 {
			t.Errorf("%v: unrefined pair charged refine time %v", m, sw.refineTime)
		}
		return sw
	}

	// Disjoint MBRs: settled by the MBR filter under every method.
	r := obj(t, b, 0, rect(1, 1, 4, 4))
	s := obj(t, b, 1, rect(50, 50, 60, 60))
	for _, m := range Methods {
		if v := eval(m, Test{}, r, s).verdict; v != VerdictMBR {
			t.Errorf("%v: disjoint MBRs classified %v", m, v)
		}
	}

	// Nested pair: the P+C intermediate filter settles it.
	lake := obj(t, b, 2, rect(40, 40, 70, 70))
	park := obj(t, b, 3, rect(10, 10, 120, 120))
	if v := eval(PC, Test{}, lake, park).verdict; v != VerdictIF {
		t.Errorf("P+C nested pair classified %v, want if", v)
	}
	// ST2 refines everything with intersecting MBRs.
	if v := eval(ST2, Test{}, lake, park).verdict; v != VerdictRefine {
		t.Errorf("ST2 classified %v, want refine", v)
	}
	// relate_p: a predicate the MBR case rules out (the lake's MBR lies
	// inside the park's, so the lake cannot contain the park) is settled
	// by the MBR filter, an inside predicate by the interval filter.
	if v := eval(PC, PredicateTest(de9im.Contains), lake, park).verdict; v != VerdictMBR {
		t.Errorf("impossible predicate classified %v, want mbr", v)
	}
	if v := eval(PC, PredicateTest(de9im.Inside), lake, park).verdict; v != VerdictIF {
		t.Errorf("nested inside predicate classified %v, want if", v)
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

// TestRunSweepMatchesRelate is the differential test of the one sweep
// runner in predicate and mask mode: for every method, several
// predicates and masks (one matching no named relation), the runner's
// per-pair answers must equal RelatePred/RelateMask, its Holds and
// Undetermined the counts of those answers, and its verdicts must sum
// to Pairs.
func TestRunSweepMatchesRelate(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(41))
	tp := testPairs(t, b, rng)
	pairs := make([]Pair, len(tp))
	for i, pr := range tp {
		pairs[i] = Pair{R: pr[0], S: pr[1]}
	}
	type tcase struct {
		name string
		test Test
		want func(m Method, r, s *Object) RelateResult
	}
	var cases []tcase
	for _, pred := range []de9im.Relation{de9im.Inside, de9im.Meets, de9im.Intersects, de9im.Equals, de9im.Disjoint} {
		cases = append(cases, tcase{"pred " + pred.String(), PredicateTest(pred), func(m Method, r, s *Object) RelateResult {
			return RelatePred(m, r, s, pred)
		}})
	}
	for _, ms := range []string{"T*F**F***", "2*2******", "FF*FF****"} {
		mask := de9im.MustMask(ms)
		cases = append(cases, tcase{"mask " + ms, MaskTest(mask), func(m Method, r, s *Object) RelateResult {
			return RelateMask(m, r, s, mask)
		}})
	}
	for _, c := range cases {
		for _, m := range Methods {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%v/workers=%d", c.name, m, workers), func(t *testing.T) {
					got := make([]bool, len(pairs))
					st, err := RunSweep(context.Background(), m, c.test, pairs, workers, false, func(i int, res Result, holds bool) {
						got[i] = holds
					})
					if err != nil {
						t.Fatal(err)
					}
					holds, refined := 0, 0
					for i, p := range pairs {
						want := c.want(m, p.R, p.S)
						if got[i] != want.Holds {
							t.Fatalf("pair %d: runner says %t, direct %+v", i, got[i], want)
						}
						if (want.Verdict == VerdictRefine) != want.Refined {
							t.Fatalf("pair %d: verdict %v disagrees with Refined=%t", i, want.Verdict, want.Refined)
						}
						if want.Holds {
							holds++
						}
						if want.Refined {
							refined++
						}
					}
					if st.Pairs != len(pairs) || st.Holds != holds || st.Undetermined != refined {
						t.Errorf("stats pairs/holds/refined = %d/%d/%d, want %d/%d/%d",
							st.Pairs, st.Holds, st.Undetermined, len(pairs), holds, refined)
					}
					if sum := st.MBRSettled + st.IFSettled + st.Undetermined; sum != st.Pairs {
						t.Errorf("verdicts sum to %d, want %d", sum, st.Pairs)
					}
				})
			}
		}
	}
}
