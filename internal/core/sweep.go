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

// Sweeper runs the observed find-relation path over many pairs with zero
// steady-state allocations. FindRelationObserved builds a fresh
// timing closure per pair; over a million-pair sweep those closures (and
// the pooled-scratch round trips inside the default Refine) are pure
// overhead. A Sweeper binds the timed refiner, the noding scratch, and
// the per-pair accounting once, so the sweep loop's only work is the
// pipeline itself.
//
// A Sweeper is not safe for concurrent use: parallel sweeps give each
// worker its own (they are cheap — one scratch and two closures).
type Sweeper struct {
	method     Method
	sink       PipelineSink
	sc         de9im.Scratch
	refineTime time.Duration
	timed      Refiner // bound once to timedRefine
}

// NewSweeper returns a sweeper for pipeline m reporting per-pair events
// to sink (nil sink skips observation, matching FindRelationObserved).
func NewSweeper(m Method, sink PipelineSink) *Sweeper {
	sw := &Sweeper{method: m, sink: sink}
	sw.timed = sw.timedRefine
	return sw
}

// timedRefine is the sweeper's refinement step: the objects' cached
// Prepared structures plus the sweeper's own scratch, with the stage
// time accumulated for the sink.
func (sw *Sweeper) timedRefine(r, s *Object) de9im.Matrix {
	t0 := time.Now()
	m := de9im.RelateScratch(r.Prepared(), s.Prepared(), &sw.sc)
	sw.refineTime += time.Since(t0)
	return m
}

// FindRelation evaluates one pair through the sweeper's pipeline,
// delivering the same event FindRelationObserved would: the settled
// result, the verdict stage, and filter/refine durations with filter =
// total − refine.
func (sw *Sweeper) FindRelation(r, s *Object) Result {
	if sw.sink == nil {
		return FindRelationWith(sw.method, r, s, sw.timed)
	}
	start := time.Now()
	sw.refineTime = 0
	res := FindRelationWith(sw.method, r, s, sw.timed)
	total := time.Since(start)
	sw.sink.ObservePair(sw.method, res, verdictOf(res), total-sw.refineTime, sw.refineTime)
	return res
}

// sweepChunk is how many consecutive items a worker claims at a time:
// large enough to amortise the shared cursor, small enough that one
// straggler (a high-complexity refinement) does not imbalance the pool.
const sweepChunk = 16

// SweepBody evaluates item i and returns how long it took (0 when the
// caller does not time items); the executor keeps the slowest.
type SweepBody func(i int) time.Duration

// SweepResult is what one Sweep did besides running the bodies.
type SweepResult struct {
	Skipped  int // items never run because ctx was cancelled
	Panicked int // items whose body panicked
	// SlowIndex is the item with the largest duration a body returned
	// (-1 when none returned a positive one), SlowTime that duration.
	SlowIndex int
	SlowTime  time.Duration
}

// Sweep runs items 0..n-1 on a chunk-claiming worker pool, the parallel
// in-memory join evaluation the paper builds on (Tsitsigkos et al.,
// SIGSPATIAL 2019). It is the one pool every sweep in the repository
// runs on — and so the one place a sweep is cancelled and the one place
// a pair-level panic is recovered.
//
// workers <= 0 selects GOMAXPROCS; the count is clamped to the number of
// chunks, ceil(n/sweepChunk), since a worker that claims no chunk can do
// no work (a two-candidate relate probe runs on one worker). newBody is
// called once per worker, serially on the calling goroutine, so it may
// collect per-worker state (a Sweeper, stat partials, tallies) without
// locking; the body it returns runs on that worker only. Worker 0 is the
// calling goroutine: a one-worker sweep spawns nothing. Each worker gets
// a "sweep.worker" child span of ctx's trace span (nil when unsampled).
//
// Workers re-check ctx at every chunk claim, so a cancelled sweep stops
// within one chunk per worker and reports the rest as Skipped. Each item
// runs behind a recover barrier: a panicking item is abandoned and
// reported to onPanic (serially, under the executor's lock) with its
// index, panic value and stack, and every other item still runs.
func Sweep(ctx context.Context, n, workers int, newBody func(span *trace.Span) SweepBody,
	onPanic func(i int, value any, stack string)) SweepResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, (n+sweepChunk-1)/sweepChunk), 1)
	s := sweepState{ctx: ctx, n: n, onPanic: onPanic, res: SweepResult{SlowIndex: -1}}
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
	res SweepResult
}

// work is one worker's claim loop.
func (s *sweepState) work(body SweepBody, span *trace.Span) {
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
func (s *sweepState) guarded(body SweepBody, i int) (d time.Duration) {
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
