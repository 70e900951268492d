package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/de9im"
	"repro/internal/trace"
)

// Test is what a sweep asks of each pair. The zero Test is the
// find-relation problem (Algorithm 1: the pair's most specific
// relation); PredicateTest and MaskTest ask whether a relate_p predicate
// holds (Sec. 3.3) or an arbitrary DE-9IM mask matches.
type Test struct {
	mode testMode
	pred de9im.Relation
	mask de9im.Mask
}

type testMode uint8

const (
	findMode testMode = iota
	predMode
	maskMode
)

// PredicateTest asks whether relation pred holds for each pair.
func PredicateTest(pred de9im.Relation) Test { return Test{mode: predMode, pred: pred} }

// MaskTest asks whether each pair's DE-9IM matrix matches mask.
func MaskTest(mask de9im.Mask) Test { return Test{mode: maskMode, mask: mask} }

// Find reports whether t is the find-relation test.
func (t Test) Find() bool { return t.mode == findMode }

// Sweeper is the one per-pair evaluator: every pair of every sweep —
// find-relation, predicate or mask — is answered by Sweeper.Eval. It
// refines on its own noding scratch and the objects' cached Prepared
// structures (zero steady-state allocations per pair), tallies each
// pair into its MethodStats, and, when timed, splits the pair's filter
// time from its refinement time at the source (Fig. 8b).
//
// A Sweeper is not safe for concurrent use: parallel sweeps give each
// worker its own (they are cheap — one scratch and one bound refiner).
type Sweeper struct {
	method Method
	test   Test
	st     *MethodStats
	timed  bool
	sc     de9im.Scratch
	refine Refiner // bound once to refineScratch
	// The last pair's settling stage and stage times (zero times when
	// untimed), for its trace span and the sweep's slow-pair tracking.
	verdict    Verdict
	filterTime time.Duration
	refineTime time.Duration
}

// NewSweeper returns an evaluator of test under pipeline m that tallies
// every pair into st; timed pairs also add their stage times to st.
func NewSweeper(m Method, test Test, st *MethodStats, timed bool) *Sweeper {
	sw := &Sweeper{method: m, test: test, st: st, timed: timed}
	sw.refine = sw.refineScratch
	return sw
}

// refineScratch is the sweeper's refinement step: the objects' cached
// Prepared structures plus the sweeper's own scratch, timed when the
// sweeper is.
func (sw *Sweeper) refineScratch(r, s *Object) de9im.Matrix {
	if !sw.timed {
		return de9im.RelateScratch(r.Prepared(), s.Prepared(), &sw.sc)
	}
	t0 := time.Now()
	m := de9im.RelateScratch(r.Prepared(), s.Prepared(), &sw.sc)
	sw.refineTime += time.Since(t0)
	return m
}

// Eval answers the sweeper's test for the pair (r, s) and tallies it.
// In find mode res is the pair's find-relation result and holds is
// false; in predicate and mask mode holds is the answer and res is
// zero. A timed pair's filter time is its total minus its
// refinement time, however many filters ran before the verdict.
func (sw *Sweeper) Eval(r, s *Object) (res Result, holds bool) {
	var start time.Time
	if sw.timed {
		start = time.Now()
		sw.refineTime = 0
	}
	switch sw.test.mode {
	case findMode:
		res = FindRelationWith(sw.method, r, s, sw.refine)
		sw.verdict = verdictOf(res)
	case predMode:
		rr := RelatePredWith(sw.method, r, s, sw.test.pred, sw.refine)
		holds, sw.verdict = rr.Holds, rr.Verdict
	default:
		rr := RelateMaskWith(sw.method, r, s, sw.test.mask, sw.refine)
		holds, sw.verdict = rr.Holds, rr.Verdict
	}
	st := sw.st
	if sw.timed {
		sw.filterTime = time.Since(start) - sw.refineTime
		st.FilterTime += sw.filterTime
		st.RefineTime += sw.refineTime
	}
	st.Pairs++
	switch sw.verdict {
	case VerdictMBR:
		st.MBRSettled++
	case VerdictIF:
		st.IFSettled++
	default:
		st.Undetermined++
	}
	if sw.test.mode == findMode {
		st.Relations[res.Relation]++
	} else if holds {
		st.Holds++
	}
	return res, holds
}

// sweepChunk is how many consecutive items a worker claims at a time:
// large enough to amortise the shared cursor, small enough that one
// straggler (a high-complexity refinement) does not imbalance the pool.
const sweepChunk = 16

// sweepBody evaluates item i and returns how long it took (0 when the
// caller does not time items); the executor keeps the slowest.
type sweepBody func(i int) time.Duration

// sweepResult is what one sweep did besides running the bodies.
type sweepResult struct {
	Skipped  int // items never run because ctx was cancelled
	Panicked int // items whose body panicked
	// SlowIndex is the item with the largest duration a body returned
	// (-1 when none returned a positive one), SlowTime that duration.
	SlowIndex int
	SlowTime  time.Duration
}

// sweep runs items 0..n-1 on a chunk-claiming worker pool, the parallel
// in-memory join evaluation the paper builds on (Tsitsigkos et al.,
// SIGSPATIAL 2019). It is the one pool every sweep in the repository
// runs on — and so the one place a sweep is cancelled and the one place
// a pair-level panic is recovered.
//
// workers <= 0 selects GOMAXPROCS; the count is clamped to the number of
// chunks, ceil(n/sweepChunk), since a worker that claims no chunk can do
// no work (a two-candidate relate probe runs on one worker). newBody is
// called once per worker, serially on the calling goroutine, so it may
// collect per-worker state (a Sweeper and its stats) without
// locking; the body it returns runs on that worker only. Worker 0 is the
// calling goroutine: a one-worker sweep spawns nothing. Each worker gets
// a "sweep.worker" child span of ctx's trace span (nil when unsampled).
//
// Workers re-check ctx at every chunk claim, so a cancelled sweep stops
// within one chunk per worker and reports the rest as Skipped. Each item
// runs behind a recover barrier: a panicking item is abandoned and
// reported to onPanic (serially, under the executor's lock) with its
// index, panic value and stack, and every other item still runs.
func sweep(ctx context.Context, n, workers int, newBody func(span *trace.Span) sweepBody,
	onPanic func(i int, value any, stack string)) sweepResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, (n+sweepChunk-1)/sweepChunk), 1)
	s := sweepState{ctx: ctx, n: n, onPanic: onPanic, res: sweepResult{SlowIndex: -1}}
	parent := trace.FromContext(ctx)
	var wg sync.WaitGroup
	for w := workers - 1; w >= 0; w-- {
		span := parent.Child("sweep.worker")
		span.SetInt("worker", int64(w))
		body := newBody(span)
		if w == 0 {
			s.work(body, span)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work(body, span)
		}()
	}
	wg.Wait()
	return s.res
}

type sweepState struct {
	ctx     context.Context
	n       int
	cursor  atomic.Int64
	onPanic func(i int, value any, stack string)

	mu  sync.Mutex // guards res and serialises onPanic
	res sweepResult
}

// work is one worker's claim loop.
func (s *sweepState) work(body sweepBody, span *trace.Span) {
	swept, skipped := 0, 0
	slowIdx, slowDur := -1, time.Duration(0)
	for {
		lo := int(s.cursor.Add(sweepChunk)) - sweepChunk
		if lo >= s.n {
			break
		}
		hi := min(lo+sweepChunk, s.n)
		if s.ctx.Err() != nil {
			skipped += hi - lo
			continue // keep claiming to drain the cursor fast
		}
		for i := lo; i < hi; i++ {
			if d := s.guarded(body, i); d > slowDur {
				slowIdx, slowDur = i, d
			}
		}
		swept += hi - lo
	}
	span.SetInt("pairs", int64(swept))
	span.End()
	s.mu.Lock()
	s.res.Skipped += skipped
	if slowDur > s.res.SlowTime {
		s.res.SlowIndex, s.res.SlowTime = slowIdx, slowDur
	}
	s.mu.Unlock()
}

// guarded runs one item behind the recover barrier: a panic —
// degenerate geometry, a bug in a pipeline stage, a fault injected by a
// test — is reported instead of unwinding through the worker and
// killing the process.
func (s *sweepState) guarded(body sweepBody, i int) (d time.Duration) {
	defer func() {
		if v := recover(); v != nil {
			stack := string(debug.Stack())
			s.mu.Lock()
			defer s.mu.Unlock()
			s.res.Panicked++
			s.onPanic(i, v, stack)
		}
	}()
	return body(i)
}
