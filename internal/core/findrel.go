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

// MethodStats aggregates one find-relation sweep of a method over a pair
// workload. It is built on the observed pipeline path: each pair's
// filter and refinement stages are timed separately at the source, so
// FilterTime no longer mis-attributes the filter work of refined pairs
// to RefineTime (the accounting Fig. 8b depends on).
type MethodStats struct {
	Method       Method
	Pairs        int
	MBRSettled   int // pairs settled by the MBR filter alone
	IFSettled    int // pairs settled by the intermediate filter
	Undetermined int // pairs that needed DE-9IM refinement (Fig. 7b)
	Elapsed      time.Duration
	// FilterTime and RefineTime are sums of per-pair stage durations; in
	// the parallel sweep they aggregate CPU time across workers and so
	// exceed Elapsed. Elapsed additionally covers loop overhead, so
	// FilterTime+RefineTime <= Elapsed per worker.
	FilterTime time.Duration // MBR + intermediate filter time
	RefineTime time.Duration // DE-9IM time
	Relations  [de9im.NumRelations]int
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

// statsSink accumulates observed pipeline events into a MethodStats.
// It is not safe for concurrent use: the sweep gives each worker its own
// and merges afterwards. The last* fields replay the most recent event
// to the sweep body — which, unlike the sink, knows the pair index — so
// slow-pair tracking and retroactive trace spans reuse the pipeline's
// own stage timings instead of reading the clock again.
type statsSink struct {
	st          *MethodStats
	lastVerdict Verdict
	lastFilter  time.Duration
	lastRefine  time.Duration
}

func (k *statsSink) ObservePair(_ Method, res Result, v Verdict, filter, refine time.Duration) {
	switch v {
	case VerdictMBR:
		k.st.MBRSettled++
	case VerdictIF:
		k.st.IFSettled++
	default:
		k.st.Undetermined++
	}
	k.st.Relations[res.Relation]++
	k.st.FilterTime += filter
	k.st.RefineTime += refine
	k.lastVerdict, k.lastFilter, k.lastRefine = v, filter, refine
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

// RunFindRelation sweeps method m over the pairs through the observed
// pipeline on the Sweep executor (which see for workers, cancellation
// and the panic barrier), timing the filter and refinement stages
// separately at the pair level (Fig. 8b reports them split). One worker
// is the serial sweep; each worker runs on its own Sweeper, so the
// steady state allocates nothing per pair, and keeps a private
// MethodStats merged after the pool drains — FilterTime and RefineTime
// are therefore aggregate CPU time across workers, not wall clock.
// visit, when non-nil, is called concurrently from the workers with the
// pair index and its result.
//
// A non-nil error is either a *PanicError or ctx's error; either way
// the stats cover only the pairs actually evaluated (Pairs is reduced
// accordingly).
func RunFindRelation(ctx context.Context, m Method, pairs []Pair, workers int, visit func(i int, res Result)) (MethodStats, error) {
	st := MethodStats{Method: m}
	var partials []*MethodStats
	var perr *PanicError
	start := time.Now()
	res := Sweep(ctx, len(pairs), workers, func(wsp *trace.Span) SweepBody {
		sink := &statsSink{st: new(MethodStats)}
		partials = append(partials, sink.st)
		sweep := NewSweeper(m, sink)
		return func(i int) time.Duration {
			p := pairs[i]
			r := sweep.FindRelation(p.R, p.S)
			if visit != nil {
				visit(i, r)
			}
			d := sink.lastFilter + sink.lastRefine
			recordPairSpan(wsp, i, p, sink, d)
			return d
		}
	}, func(i int, v any, stack string) {
		if perr == nil {
			perr = &PanicError{Stack: stack}
		}
		perr.Pairs = append(perr.Pairs, PanickedPair{Index: i, Value: v})
	})
	st.Elapsed = time.Since(start)
	st.Pairs = len(pairs) - res.Skipped - res.Panicked // no verdict: keep Pairs honest
	st.SlowPair, st.SlowPairTime = res.SlowIndex, res.SlowTime
	for _, p := range partials { // Elapsed is not merged: wall clock is the caller's
		st.MBRSettled += p.MBRSettled
		st.IFSettled += p.IFSettled
		st.Undetermined += p.Undetermined
		st.FilterTime += p.FilterTime
		st.RefineTime += p.RefineTime
		for i, n := range p.Relations {
			st.Relations[i] += n
		}
	}
	if perr != nil {
		return st, perr
	}
	return st, ctx.Err()
}

// recordPairSpan retroactively attaches one pair span (with its
// filter/refine stage children) under the worker span, reusing the
// durations the pipeline sink already measured — no extra clock reads
// on the unsampled path, one on the sampled path. No-op when wsp is nil
// or the trace's span budget is spent.
func recordPairSpan(wsp *trace.Span, idx int, p Pair, sink *statsSink, total time.Duration) {
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
	ps.SetStr("verdict", sink.lastVerdict.String())
	// Stage spans: filter ran first, refinement (when any) last.
	ps.ChildAt("filter", end.Add(-total), sink.lastFilter)
	if sink.lastRefine > 0 {
		ps.ChildAt("refine", end.Add(-sink.lastRefine), sink.lastRefine)
	}
}
