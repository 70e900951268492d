package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/trace"
)

// pairTest is what a relate or join request asks of each candidate
// pair: its most specific relation (Algorithm 1) when holds is nil, else
// whether a relate_p predicate or an arbitrary DE-9IM mask holds.
type pairTest struct {
	holds func(m core.Method, r, s *core.Object) core.RelateResult
	// relation names a holding pair's relation in the response: the
	// predicate's name, empty for a mask.
	relation string
}

// parsePairTest maps a request's predicate/mask fields to its test.
func parsePairTest(predicate, mask string) (pairTest, error) {
	switch {
	case predicate != "" && mask != "":
		return pairTest{}, errf(http.StatusBadRequest, "give predicate or mask, not both")
	case predicate != "":
		pred, err := parseRelation(predicate)
		if err != nil {
			return pairTest{}, err
		}
		return pairTest{relation: pred.String(), holds: func(m core.Method, r, s *core.Object) core.RelateResult {
			return core.RelatePred(m, r, s, pred)
		}}, nil
	case mask != "":
		dm, err := de9im.ParseMask(mask)
		if err != nil {
			return pairTest{}, errf(http.StatusBadRequest, "mask: %v", err)
		}
		return pairTest{holds: func(m core.Method, r, s *core.Object) core.RelateResult {
			return core.RelateMask(m, r, s, dm)
		}}, nil
	}
	return pairTest{}, nil
}

// probeJob is one relate probe in flight through the batcher. The
// dispatcher always delivers exactly one probeResult on done (buffered),
// even after the job's context expires, so neither side can leak.
type probeJob struct {
	ctx   context.Context
	entry *Entry
	probe *core.Object

	test   pairTest
	method core.Method
	limit  int
	// owns, when non-nil, is the shard-mode ownership filter: probe ×
	// candidate combinations whose reference point lies outside the
	// serving shard's key range are dropped before evaluation (another
	// shard, also holding both geometries, answers them).
	owns func(probe, cand geom.MBR) bool

	// span is the request's trace root span; track arms per-candidate
	// timing (sampled trace or slow-query log). Candidate spans hang
	// directly off span — relate has no worker level worth showing.
	span  *trace.Span
	track bool

	mu        sync.Mutex
	matches   []RelateMatch
	truncated bool
	slowObj   *core.Object  // slowest candidate so far (track only)
	slowDur   time.Duration // its evaluation time
	panicked  atomic.Int64  // candidates whose evaluation panicked
	evaluated atomic.Int64
	refined   atomic.Int64

	candidates int
	batchSize  int
	done       chan error
}

// noteSlow records one timed candidate; the slowest wins the slot.
func (j *probeJob) noteSlow(o *core.Object, d time.Duration) {
	j.mu.Lock()
	if d > j.slowDur {
		j.slowObj, j.slowDur = o, d
	}
	j.mu.Unlock()
}

// slowest returns the slowest candidate seen (nil when untracked).
func (j *probeJob) slowest() (*core.Object, time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slowObj, j.slowDur
}

func (j *probeJob) addMatch(m RelateMatch) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.matches) >= j.limit {
		j.truncated = true
		return
	}
	j.matches = append(j.matches, m)
}

// batcher micro-batches concurrent relate probes: jobs arriving within
// batchWindow of each other (up to maxBatch) are grouped, jobs against
// the same dataset are flattened into one (probe × candidate) task list,
// and the whole group is swept by one pass of the core executor — so N
// concurrent probes cost one pool pass, not N goroutine fan-outs.
// A lone request pays at most batchWindow of extra latency; under load
// the channel is never empty and the window barely waits.
type batcher struct {
	jobs     chan *probeJob
	window   time.Duration
	maxBatch int
	workers  int

	batches   *obs.Counter
	batchSize *obs.Histogram
	// onPanic records a recovered per-task panic (counter + repro dump).
	onPanic func(tag string, r, o *core.Object, rv any)
}

func newBatcher(window time.Duration, maxBatch, workers int, met *obs.Registry,
	onPanic func(tag string, r, o *core.Object, rv any)) *batcher {
	return &batcher{
		jobs:     make(chan *probeJob, maxBatch),
		window:   window,
		maxBatch: maxBatch,
		workers:  workers,
		batches:  met.Counter("server_relate_batches_total"),
		batchSize: met.Histogram("server_relate_batch_size",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		onPanic: onPanic,
	}
}

// run is the dispatcher loop; it exits when ctx is cancelled, failing
// any jobs still queued so their handlers unblock immediately.
func (b *batcher) run(ctx context.Context) {
	for {
		var first *probeJob
		select {
		case <-ctx.Done():
			b.drainFailed(ctx)
			return
		case first = <-b.jobs:
		}
		batch := []*probeJob{first}
		timer := time.NewTimer(b.window)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case j := <-b.jobs:
				batch = append(batch, j)
			case <-timer.C:
				break collect
			case <-ctx.Done():
				break collect
			}
		}
		timer.Stop()
		b.process(batch)
	}
}

func (b *batcher) drainFailed(ctx context.Context) {
	for {
		select {
		case j := <-b.jobs:
			j.done <- context.Cause(ctx)
		default:
			return
		}
	}
}

// process groups the batch by dataset and sweeps each group with one
// shared executor pass over the flattened (probe, candidate) tasks.
func (b *batcher) process(batch []*probeJob) {
	b.batches.Inc()
	groups := make(map[*Entry][]*probeJob)
	for _, j := range batch {
		groups[j.entry] = append(groups[j.entry], j)
	}
	for _, jobs := range groups {
		b.batchSize.Observe(float64(len(jobs)))
		b.processGroup(jobs)
	}
}

// task is one probe-candidate evaluation.
type task struct {
	job *probeJob
	obj *core.Object
}

func (b *batcher) processGroup(jobs []*probeJob) {
	var tasks []task
	for _, j := range jobs {
		j.batchSize = len(jobs)
		// All candidates come from the entry's merged epoch view: the
		// base tree minus tombstones plus the delta side tree. The group
		// key is the entry pointer, so the whole group shares one epoch.
		view := j.entry.View()
		err := view.QueryContext(j.ctx, j.probe.MBR, func(delta bool, e join.Entry) {
			if j.owns != nil && !j.owns(j.probe.MBR, e.Box) {
				return
			}
			tasks = append(tasks, task{job: j, obj: j.entry.objAt(delta, e.ID)})
			j.candidates++
		})
		if err != nil {
			j.done <- err
			j.candidates = -1 // sentinel: already answered
			continue
		}
	}
	live := jobs[:0]
	for _, j := range jobs {
		if j.candidates >= 0 {
			live = append(live, j)
		}
	}
	if len(tasks) > 0 {
		b.sweep(tasks)
	}
	for _, j := range live {
		switch {
		case j.ctx.Err() != nil:
			j.done <- j.ctx.Err()
		case j.panicked.Load() > 0:
			// Only the probes whose candidate evaluation panicked fail;
			// the rest of the batch answers normally.
			j.done <- errf(http.StatusInternalServerError,
				"evaluation panicked on %d candidate(s); repro dumped, see server log",
				j.panicked.Load())
		default:
			j.done <- nil
		}
	}
}

// sweep runs the task list on the core executor. One sweep serves many
// probes, so cancellation is per probe (an expired probe's remaining
// tasks are skipped), not per sweep; a panicking candidate fails only
// its own probe (recorded on the job), and the rest of the batch — other
// probes sharing the same sweep included — completes normally.
func (b *batcher) sweep(tasks []task) {
	core.Sweep(context.Background(), len(tasks), b.workers, func(*trace.Span) core.SweepBody {
		return func(i int) time.Duration {
			if t := tasks[i]; t.job.ctx.Err() == nil {
				evalTask(t)
			}
			return 0 // the slowest candidate is tracked per probe, on the job
		}
	}, func(i int, rv any, _ string) {
		t := tasks[i]
		t.job.panicked.Add(1)
		b.onPanic("relate", t.job.probe, t.obj, rv)
	})
}

func evalTask(t task) {
	j := t.job
	// Tracked jobs (sampled trace or armed slow-query log) time each
	// candidate; find mode additionally rides the observed pipeline to
	// split the time into filter/refine stage spans. Untracked jobs run
	// the plain path — the sink stays a nil interface.
	var start time.Time
	var filter, refineDur time.Duration
	var sink core.PipelineSink
	if j.track {
		start = time.Now()
		sink = core.SinkFunc(func(_ core.Method, _ core.Result, _ core.Verdict, f, r time.Duration) {
			filter, refineDur = f, r
		})
	}
	if j.test.holds != nil {
		rr := j.test.holds(j.method, j.probe, t.obj)
		if rr.Refined {
			j.refined.Add(1)
		}
		if rr.Holds {
			j.addMatch(RelateMatch{ID: t.obj.ID, Relation: j.test.relation})
		}
	} else {
		res := core.FindRelationObserved(j.method, j.probe, t.obj, sink)
		if res.Refined {
			j.refined.Add(1)
		}
		if res.Relation != de9im.Disjoint {
			j.addMatch(RelateMatch{ID: t.obj.ID, Relation: res.Relation.String()})
		}
	}
	j.evaluated.Add(1)
	if !j.track {
		return
	}
	d := time.Since(start)
	j.noteSlow(t.obj, d)
	if ps := j.span.ChildAt("candidate", start, d); ps != nil {
		ps.SetInt("id", int64(t.obj.ID))
		if filter+refineDur > 0 {
			ps.ChildAt("filter", start, filter)
			if refineDur > 0 {
				ps.ChildAt("refine", start.Add(d-refineDur), refineDur)
			}
		}
	}
}
