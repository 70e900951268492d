package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func TestParallelMatchesSequential(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	seq := RunSweep(core.PC, core.Test{}, pairs)
	for _, workers := range []int{1, 2, 7, 0} {
		// The visitor sees every pair exactly once.
		visited := make([]int32, len(pairs))
		par, err := core.RunFindRelation(context.Background(), core.PC, pairs, workers,
			func(i int, _ core.Result) { atomic.AddInt32(&visited[i], 1) })
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range visited {
			if n != 1 {
				t.Fatalf("workers=%d: pair %d visited %d times", workers, i, n)
			}
		}
		if par.Relations != seq.Relations {
			t.Fatalf("workers=%d: relation histogram differs\nseq: %v\npar: %v",
				workers, seq.Relations, par.Relations)
		}
		if par.Undetermined != seq.Undetermined {
			t.Fatalf("workers=%d: undetermined %d != %d", workers, par.Undetermined, seq.Undetermined)
		}
		if par.Pairs != seq.Pairs {
			t.Fatalf("workers=%d: pair count mismatch", workers)
		}
		if par.MBRSettled != seq.MBRSettled || par.IFSettled != seq.IFSettled {
			t.Fatalf("workers=%d: verdict split differs: mbr %d/%d if %d/%d",
				workers, par.MBRSettled, seq.MBRSettled, par.IFSettled, seq.IFSettled)
		}
	}
}

// TestParallelStageTimers: the parallel sweep must populate the stage
// timers (they were zero before the obs rebuild) with the same
// invariants as the serial path.
func TestParallelStageTimers(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := core.RunFindRelation(context.Background(), core.PC, pairs, 4, nil)
	if par.FilterTime <= 0 {
		t.Errorf("parallel FilterTime = %v, must be populated", par.FilterTime)
	}
	if par.Undetermined > 0 && par.RefineTime <= 0 {
		t.Errorf("parallel RefineTime = %v with %d refinements", par.RefineTime, par.Undetermined)
	}
	if par.MBRSettled+par.IFSettled+par.Undetermined != par.Pairs {
		t.Errorf("verdicts %d+%d+%d do not sum to %d pairs",
			par.MBRSettled, par.IFSettled, par.Undetermined, par.Pairs)
	}
}

// TestParallelCtxCancelled: a cancelled sweep must stop early, return the
// context error, and report only the pairs it actually evaluated.
func TestParallelCtxCancelled(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	st, err := core.RunFindRelation(ctx, core.PC, pairs, 2,
		func(i int, res core.Result) {
			if seen.Add(1) == 4 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if st.Pairs >= len(pairs) {
		t.Fatalf("cancelled sweep evaluated all %d pairs", st.Pairs)
	}
	if got := st.MBRSettled + st.IFSettled + st.Undetermined; got != st.Pairs {
		t.Fatalf("verdicts %d do not sum to evaluated pairs %d", got, st.Pairs)
	}

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	st, err = core.RunFindRelation(pre, core.PC, pairs, 4, nil)
	if !errors.Is(err, context.Canceled) || st.Pairs != 0 {
		t.Fatalf("pre-cancelled sweep: pairs=%d err=%v", st.Pairs, err)
	}
}

// TestParallelPanicIsolated: a pair whose evaluation panics (here: a
// poisoned object with nil geometry forced into refinement) must come
// back as a *core.PanicError — not a process crash, not a deadlocked
// wg.Wait — and every healthy pair must still be evaluated.
func TestParallelPanicIsolated(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := core.RunFindRelation(context.Background(), core.OP2, pairs, 4, nil)

	poisoned := make([]core.Pair, len(pairs))
	copy(poisoned, pairs)
	// A fresh Object (never copy one: it caches its Prepared behind a
	// sync.Once) with the same filter inputs but no geometry: OP2 always
	// refines, and refining a nil polygon panics.
	bad := &core.Object{ID: pairs[3].R.ID, MBR: pairs[3].R.MBR, Approx: pairs[3].R.Approx}
	poisoned[3] = core.Pair{R: bad, S: pairs[3].S}

	st, err := core.RunFindRelation(context.Background(), core.OP2, poisoned, 4, nil)
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *core.PanicError", err)
	}
	if len(pe.Pairs) != 1 || pe.Pairs[0].Index != 3 {
		t.Fatalf("PanicError = count %d index %d, want 1/3", len(pe.Pairs), pe.Pairs[0].Index)
	}
	if pe.Pairs[0].Value == nil || pe.Stack == "" {
		t.Fatalf("PanicError missing evidence: value=%v stack %d bytes", pe.Pairs[0].Value, len(pe.Stack))
	}
	if st.Pairs != clean.Pairs-1 {
		t.Fatalf("swept %d pairs, want %d (all but the poisoned one)", st.Pairs, clean.Pairs-1)
	}

	// Several poisoned pairs: all recovered, count accumulates.
	for _, i := range []int{0, 5, 9} {
		b := &core.Object{ID: pairs[i].R.ID, MBR: pairs[i].R.MBR, Approx: pairs[i].R.Approx}
		poisoned[i] = core.Pair{R: b, S: pairs[i].S}
	}
	_, err = core.RunFindRelation(context.Background(), core.OP2, poisoned, 4, nil)
	if !errors.As(err, &pe) || len(pe.Pairs) != 4 {
		t.Fatalf("4 poisoned pairs: err = %v", err)
	}
	// Every panicking pair is listed (the server dumps each as a repro).
	listed := map[int]bool{}
	for _, pp := range pe.Pairs {
		listed[pp.Index] = pp.Value != nil
	}
	if !listed[0] || !listed[3] || !listed[5] || !listed[9] {
		t.Fatalf("panicked pairs = %+v", pe.Pairs)
	}
}
