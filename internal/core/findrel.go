package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/de9im"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Pair is one candidate pair produced by the MBR join filter step.
type Pair struct {
	R, S *Object
}

// Complexity returns the complexity of a pair: the sum of the two
// objects' vertex counts (Sec. 4.3).
func (p Pair) Complexity() int {
	return p.R.Poly.NumVertices() + p.S.Poly.NumVertices()
}

// MethodStats aggregates one sweep of a method over a pair workload,
// tallied pair by pair by the Sweeper: each timed pair's filter and
// refinement stages are timed separately at the source, so FilterTime
// does not mis-attribute the filter work of refined pairs to RefineTime
// (the accounting Fig. 8b depends on).
type MethodStats struct {
	Method       Method
	Pairs        int
	MBRSettled   int // pairs settled by the MBR filter alone
	IFSettled    int // pairs settled by the intermediate filter
	Undetermined int // pairs that needed DE-9IM refinement (Fig. 7b)
	Holds        int // predicate/mask sweeps: pairs the test held for
	Elapsed      time.Duration
	// FilterTime and RefineTime are sums of per-pair stage durations; in
	// the parallel sweep they aggregate CPU time across workers and so
	// exceed Elapsed. Elapsed additionally covers loop overhead, so
	// FilterTime+RefineTime <= Elapsed per worker.
	FilterTime time.Duration           // MBR + intermediate filter time
	RefineTime time.Duration           // DE-9IM time
	Relations  [de9im.NumRelations]int // find sweeps only
	// SlowPair is the index (into the sweep's pair slice) of the pair
	// with the largest filter+refine time, the seed of the slow-query
	// forensics; only meaningful when SlowPairTime > 0.
	SlowPair     int
	SlowPairTime time.Duration
}

// Throughput returns processed pairs per second (Fig. 7a's metric).
func (s MethodStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Pairs) / s.Elapsed.Seconds()
}

// UndeterminedPct returns the percentage of pairs requiring refinement.
func (s MethodStats) UndeterminedPct() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return 100 * float64(s.Undetermined) / float64(s.Pairs)
}

// Publish adds the sweep's counters to reg under prefix, labeled with
// the method: verdict counts, relation tallies, and stage nanoseconds.
func (s MethodStats) Publish(reg *obs.Registry, prefix string) {
	method := s.Method.String()
	reg.Counter(obs.Name(prefix+"_pairs_total", "method", method)).Add(int64(s.Pairs))
	reg.Counter(obs.Name(prefix+"_verdict_total", "method", method, "stage", VerdictMBR.String())).Add(int64(s.MBRSettled))
	reg.Counter(obs.Name(prefix+"_verdict_total", "method", method, "stage", VerdictIF.String())).Add(int64(s.IFSettled))
	reg.Counter(obs.Name(prefix+"_verdict_total", "method", method, "stage", VerdictRefine.String())).Add(int64(s.Undetermined))
	reg.Counter(obs.Name(prefix+"_filter_ns_total", "method", method)).Add(int64(s.FilterTime))
	reg.Counter(obs.Name(prefix+"_refine_ns_total", "method", method)).Add(int64(s.RefineTime))
	for rel, n := range s.Relations {
		if n != 0 {
			reg.Counter(obs.Name(prefix+"_relation_total", "method", method, "relation", de9im.Relation(rel).String())).Add(int64(n))
		}
	}
}

// merge adds a worker's tallies into s; Elapsed and the slow pair are
// the sweep's, not the workers'.
func (s *MethodStats) merge(o *MethodStats) {
	s.Pairs += o.Pairs
	s.MBRSettled += o.MBRSettled
	s.IFSettled += o.IFSettled
	s.Undetermined += o.Undetermined
	s.Holds += o.Holds
	s.FilterTime += o.FilterTime
	s.RefineTime += o.RefineTime
	for i, n := range o.Relations {
		s.Relations[i] += n
	}
}

// PanickedPair is one pair whose evaluation panicked during a sweep.
type PanickedPair struct {
	Index int // into the sweep's pair slice
	Value any // the recovered panic value
}

// PanicError reports pairs whose evaluation panicked during a sweep.
// Panics are recovered at pair granularity: the poisonous pair is
// abandoned, every other pair is still evaluated, and the sweep returns
// this error instead of crashing the process (before the barrier
// existed, one malformed geometry took down the whole worker pool — and
// with it the server). Stats cover only settled pairs.
type PanicError struct {
	// Pairs lists every pair that panicked in the sweep, in recovery
	// order; Stack is the goroutine stack of the first, Pairs[0].
	Pairs []PanickedPair
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: %d pair(s) panicked during sweep (first: pair %d: %v)",
		len(e.Pairs), e.Pairs[0].Index, e.Pairs[0].Value)
}

// RunSweep evaluates test over the pairs with pipeline m on the sweep
// executor (which see for workers, cancellation and the panic barrier);
// one worker is the serial sweep. Each worker evaluates on its own
// Sweeper, so the steady state allocates nothing per pair, and tallies
// into a private MethodStats merged after the pool drains — FilterTime
// and RefineTime are therefore aggregate CPU time across workers, not
// wall clock.
//
// A find sweep times every pair: its stage split is Fig. 8b's
// accounting. A predicate or mask pair is timed only when a reader of
// the time exists: timePairs (the caller keeps a slow-query log) or a
// recording trace span in ctx. Timed pairs give the stats their slowest
// pair and, under a recording span, one "pair" span each.
//
// visit, when non-nil, is called from the workers with the index and
// answer of each evaluated pair (see Sweeper.Eval); concurrently with
// several workers, serially in index order with one. A non-nil error is
// either a *PanicError or ctx's error; either way the stats cover only
// the pairs actually evaluated.
func RunSweep(ctx context.Context, m Method, test Test, pairs []Pair, workers int, timePairs bool,
	visit func(i int, res Result, holds bool)) (MethodStats, error) {
	timed := test.Find() || timePairs || trace.FromContext(ctx).Recording()
	var partials []*MethodStats
	var perr *PanicError
	start := time.Now()
	res := sweep(ctx, len(pairs), workers, func(wsp *trace.Span) sweepBody {
		sw := NewSweeper(m, test, new(MethodStats), timed)
		partials = append(partials, sw.st)
		return func(i int) time.Duration {
			p := pairs[i]
			r, holds := sw.Eval(p.R, p.S)
			if visit != nil {
				visit(i, r, holds)
			}
			if !timed {
				return 0
			}
			d := sw.filterTime + sw.refineTime
			recordPairSpan(wsp, i, p, sw, d)
			return d
		}
	}, func(i int, v any, stack string) {
		if perr == nil {
			perr = &PanicError{Stack: stack}
		}
		perr.Pairs = append(perr.Pairs, PanickedPair{Index: i, Value: v})
	})
	st := MethodStats{Method: m, Elapsed: time.Since(start), SlowPair: res.SlowIndex, SlowPairTime: res.SlowTime}
	for _, p := range partials {
		st.merge(p)
	}
	if perr != nil {
		return st, perr
	}
	return st, ctx.Err()
}

// RunFindRelation is RunSweep's find-relation form: it sweeps method m
// over the pairs, timing every pair's filter and refinement stages.
func RunFindRelation(ctx context.Context, m Method, pairs []Pair, workers int, visit func(i int, res Result)) (MethodStats, error) {
	var v func(int, Result, bool)
	if visit != nil {
		v = func(i int, res Result, _ bool) { visit(i, res) }
	}
	return RunSweep(ctx, m, Test{}, pairs, workers, true, v)
}

// recordPairSpan retroactively attaches one pair span (with its
// filter/refine stage children) under the worker span, reusing the
// durations the sweeper already measured — no extra clock reads on the
// unsampled path, one on the sampled path. It is the only writer of
// pair spans. No-op when wsp is nil or the trace's span budget is spent.
func recordPairSpan(wsp *trace.Span, idx int, p Pair, sw *Sweeper, total time.Duration) {
	if !wsp.Recording() {
		return
	}
	end := time.Now()
	ps := wsp.ChildAt("pair", end.Add(-total), total)
	if ps == nil {
		return
	}
	ps.SetInt("index", int64(idx))
	ps.SetInt("r_id", int64(p.R.ID))
	ps.SetInt("s_id", int64(p.S.ID))
	ps.SetStr("verdict", sw.verdict.String())
	// Stage spans: filter ran first, refinement (when any) last.
	ps.ChildAt("filter", end.Add(-total), sw.filterTime)
	if sw.refineTime > 0 {
		ps.ChildAt("refine", end.Add(-sw.refineTime), sw.refineTime)
	}
}
