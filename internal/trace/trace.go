// Package trace is a zero-dependency, request-scoped span tracer for
// the serving hot path. Where internal/obs answers "how is the fleet
// doing" with counters and histograms, trace answers "where did THIS
// request's time go": each request carries a tree of nested spans —
// handler → sweep worker → per-pair settling stages — with monotonic
// start times, durations and typed attributes (pipeline, dataset pair,
// MBR-relation class, verdict stage, pairs pruned/refined).
//
// Sampling is two-tier so tracing can stay on in production:
//
//   - probabilistic: a fraction (Config.Sample) of requests record the
//     full span tree;
//   - always-sample-slow: every request gets a root span (one small
//     allocation), and any request whose total duration reaches
//     Config.SlowThreshold is kept even when the probabilistic coin
//     said no — slow outliers are never invisible. Unsampled slow
//     traces carry only the root span plus whatever forensic
//     attributes the sweep attached to it (slowest pair, counts).
//
// Completed traces land in a lock-light ring buffer (atomic slot
// pointers, no mutex on the publish path) and are exported as JSON or
// Chrome chrome://tracing format (see export.go). A nil *Tracer and a
// nil *Span are both fully inert: every method is nil-receiver safe, so
// instrumented call sites cost a pointer check when tracing is off —
// BenchmarkTraceOverhead guards that this stays under 5 % of the plain
// pipeline.
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer; zero values select the documented defaults.
type Config struct {
	// Sample is the probability (0..1) that a request records its full
	// span tree. 0 disables probabilistic sampling (slow capture still
	// works); 1 records everything.
	Sample float64
	// SlowThreshold keeps any trace whose root duration reaches it,
	// sampled or not, and reports it to the OnSlow hook. 0 disables
	// slow capture.
	SlowThreshold time.Duration
	// Capacity is the ring buffer size in completed traces (default 256).
	Capacity int
	// MaxSpans caps spans per trace (default 512): a join sweeping 10^5
	// pairs must not materialize 10^5 spans. Children beyond the budget
	// are dropped and counted on the trace.
	MaxSpans int
}

func (c Config) withDefaults() Config {
	if c.Sample < 0 {
		c.Sample = 0
	}
	if c.Sample > 1 {
		c.Sample = 1
	}
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// Stats is a point-in-time copy of a tracer's own accounting.
type Stats struct {
	// Started counts root spans created (every request when enabled).
	Started int64 `json:"started"`
	// Kept counts traces published to the ring (sampled or slow).
	Kept int64 `json:"kept"`
	// Slow counts traces kept because they crossed SlowThreshold.
	Slow int64 `json:"slow"`
	// DroppedSpans counts children discarded by the MaxSpans budget.
	DroppedSpans int64 `json:"dropped_spans"`
}

// Tracer owns the sampling policy and the ring of completed traces.
// A nil *Tracer is valid and disables tracing entirely.
type Tracer struct {
	cfg Config

	// ring holds completed traces: slot i%len receives publication i.
	// Slots are atomic pointers, so publishers never take a lock and a
	// concurrent snapshot sees each slot either old or new, never torn.
	ring []atomic.Pointer[TraceData]
	next atomic.Uint64

	onSlow atomic.Pointer[func(TraceData)]

	started      atomic.Int64
	kept         atomic.Int64
	slow         atomic.Int64
	droppedSpans atomic.Int64
}

// New creates a tracer with the given config.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, ring: make([]atomic.Pointer[TraceData], cfg.Capacity)}
}

// SlowThreshold returns the configured slow-trace threshold (0 when the
// tracer is nil or slow capture is off).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowThreshold
}

// OnSlow installs fn to be called synchronously (from the goroutine
// ending the root span) with every slow trace — the slow-query log
// hook. Safe to call at any time; nil-tracer safe.
func (t *Tracer) OnSlow(fn func(TraceData)) {
	if t == nil {
		return
	}
	t.onSlow.Store(&fn)
}

// Stats returns the tracer's own counters (zero for a nil tracer).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:      t.started.Load(),
		Kept:         t.kept.Load(),
		Slow:         t.slow.Load(),
		DroppedSpans: t.droppedSpans.Load(),
	}
}

// Start opens a request-scoped root span and decides, once for the
// whole request, whether the trace records child spans. The returned
// context carries the span for StartChild/FromContext further down the
// stack. A nil tracer returns (ctx, nil) unchanged.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	return t.start(ctx, name, 0)
}

// StartRemote is Start adopting a remote parent's trace id: the new
// root span (and all its children) carries the caller's id instead of
// a fresh one, so spans recorded on both sides of an RPC — the router's
// scatter spans and the shard's handler tree — correlate by id across
// process boundaries. The sampling decision stays local: each process
// applies its own policy, and slow capture works regardless. An id of
// 0 falls back to Start.
func (t *Tracer) StartRemote(ctx context.Context, name string, parent uint64) (context.Context, *Span) {
	return t.start(ctx, name, parent)
}

func (t *Tracer) start(ctx context.Context, name string, id uint64) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.started.Add(1)
	if id == 0 {
		id = rand.Uint64() | 1 // never 0: 0 means "no trace" to exemplars
	}
	tr := &traceState{
		tracer:  t,
		id:      id,
		sampled: t.cfg.Sample > 0 && rand.Float64() < t.cfg.Sample,
	}
	sp := &Span{name: name, start: time.Now(), trace: tr}
	tr.root = sp
	tr.spans.Store(1)
	return ContextWithSpan(ctx, sp), sp
}

// ParseID parses a propagated trace id (the hex form FormatID renders,
// leading zeros accepted); reports false for "", malformed tokens and
// the reserved id 0.
func ParseID(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

// traceState is the per-request shared state behind a span tree.
type traceState struct {
	tracer  *Tracer
	id      uint64
	sampled bool
	root    *Span
	spans   atomic.Int64 // span budget accounting
	dropped atomic.Int64
}

// Span is one timed operation in a trace. The zero value is not used;
// spans come from Tracer.Start, Child, ChildAt or StartChild. A nil
// *Span is inert: every method is safe and free on it.
type Span struct {
	name  string
	start time.Time
	trace *traceState

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
	dur      time.Duration
	ended    bool
}

// Attr is one span attribute; Value is a string or an int64.
type Attr struct {
	Key   string `json:"k"`
	Value any    `json:"v"`
}

// Recording reports whether child spans of s are recorded (the trace
// won the sampling coin). Root spans of unsampled traces return false
// but still measure and still accept attributes.
func (s *Span) Recording() bool { return s != nil && s.trace.sampled }

// TraceID returns the trace's 64-bit id, 0 for a nil span.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace.id
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// IntAttr reads back an integer attribute (the last write wins).
func (s *Span) IntAttr(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			if v, ok := s.attrs[i].Value.(int64); ok {
				return v, true
			}
		}
	}
	return 0, false
}

// Child opens a live child span. Returns nil (inert) when s is nil, the
// trace is not recording, or the span budget is spent; callers never
// need to check.
func (s *Span) Child(name string) *Span {
	if !s.Recording() {
		return nil
	}
	return s.newChild(name, time.Now(), -1)
}

// ChildAt attaches an already-completed child span with an explicit
// start and duration — how the sweep records per-pair settling stages
// retroactively from durations the per-pair evaluator measured, without
// a second set of clock reads.
func (s *Span) ChildAt(name string, start time.Time, dur time.Duration) *Span {
	if s == nil || !s.trace.sampled {
		return nil
	}
	if dur < 0 {
		dur = 0
	}
	return s.newChild(name, start, dur)
}

func (s *Span) newChild(name string, start time.Time, dur time.Duration) *Span {
	tr := s.trace
	if tr.spans.Add(1) > int64(tr.tracer.cfg.MaxSpans) {
		tr.spans.Add(-1)
		tr.dropped.Add(1)
		tr.tracer.droppedSpans.Add(1)
		return nil
	}
	c := &Span{name: name, start: start, trace: tr}
	if dur >= 0 {
		c.dur = dur
		c.ended = true
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span and returns its duration. Ending the root span
// finishes the trace: if it was sampled or crossed the slow threshold
// it is published to the ring (and the OnSlow hook for slow ones).
// Idempotent; nil-safe.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		d := s.dur
		s.mu.Unlock()
		return d
	}
	s.ended = true
	s.dur = time.Since(s.start)
	d := s.dur
	s.mu.Unlock()
	if s.trace.root == s {
		s.trace.tracer.finish(s.trace)
	}
	return d
}

func (t *Tracer) finish(tr *traceState) {
	d := tr.root.dur
	slow := t.cfg.SlowThreshold > 0 && d >= t.cfg.SlowThreshold
	if !tr.sampled && !slow {
		return
	}
	td := tr.data()
	td.Slow = slow
	t.kept.Add(1)
	i := t.next.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(&td)
	if slow {
		t.slow.Add(1)
		if fn := t.onSlow.Load(); fn != nil && *fn != nil {
			(*fn)(td)
		}
	}
}

// --- context plumbing ---

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span (ctx
// unchanged when s is nil).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span, or nil when ctx carries none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartChild opens a child of ctx's current span and returns a context
// carrying it. When nothing records, returns (ctx, nil) at the cost of
// one context lookup.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	c := FromContext(ctx).Child(name)
	if c == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, c), c
}
