// Package obs is a zero-dependency metrics and tracing subsystem for the
// topology-join pipeline. The paper's whole evaluation is a cost
// accounting — how many pairs each filter stage settles (Fig. 7b), where
// the time goes per stage (Fig. 8b), how many bytes of exact geometry are
// ever touched (Sec. 4.3) — so the instruments mirror that accounting:
//
//   - Counter and Gauge: single atomic int64 cells;
//   - Histogram: fixed-bucket latency distribution with atomic buckets;
//   - Registry: a named collection of the above with get-or-create
//     semantics and three exporters (Prometheus text format, JSON
//     snapshot, human-readable table);
//   - Span: a timer recording one operation into a histogram;
//   - ServeDebug: an HTTP endpoint bundling /metrics with expvar and
//     net/http/pprof so long joins can be profiled live.
//
// Everything is allocation-free and safe for concurrent use on the hot
// path; instrumented call sites guard with a single pointer check so a
// nil instrument costs nothing when observability is off.
package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the Prometheus export to stay sound).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add increments the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bounds are ascending upper
// bounds; observations greater than the last bound land in an implicit
// +Inf bucket. All mutation is atomic: concurrent Observe calls are safe
// and never block.
type Histogram struct {
	bounds    []float64
	buckets   []atomic.Int64  // len(bounds)+1, last is +Inf
	exemplars []atomic.Uint64 // per-bucket trace id, 0 = none
	count     atomic.Int64
	sum       atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. The bounds slice is not copied; callers must not mutate it.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
}

// bucketIndex returns the bucket v falls in. Linear scan: bucket counts
// are small (~25) and the common case (latencies near the low end)
// exits early.
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// SetExemplar links the bucket v falls in to a trace id, so a latency
// outlier in the histogram leads straight to its request trace. The
// last trace to land in a bucket wins; traceID 0 ("no trace") is a
// no-op. Exemplars appear in the JSON snapshot only — the Prometheus
// 0.0.4 text format predates them and stays untouched.
func (h *Histogram) SetExemplar(v float64, traceID uint64) {
	if traceID == 0 {
		return
	}
	h.exemplars[h.bucketIndex(v)].Store(traceID)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bucket; last is +Inf
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	// Exemplars holds one hex trace id per bucket ("" when none);
	// omitted entirely while no exemplar has been set.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Snapshot copies the histogram state. Buckets are read without a global
// lock, so a snapshot taken concurrently with Observe may be off by the
// in-flight observation — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	for i := range h.exemplars {
		if id := h.exemplars[i].Load(); id != 0 {
			if s.Exemplars == nil {
				s.Exemplars = make([]string, len(h.exemplars))
			}
			s.Exemplars[i] = fmt.Sprintf("%016x", id)
		}
	}
	return s
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket holding the target rank. Values in the +Inf bucket
// are reported as the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, n := range s.Counts {
		if float64(cum+n) >= rank {
			hi := s.Bounds[len(s.Bounds)-1]
			lo := 0.0
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			if n == 0 {
				return hi
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the standard exponential latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default latency layout for pipeline stages:
// 24 exponential buckets from 250ns doubling up to ~2s, covering
// everything from an interval merge-join probe to a multi-second
// refinement of a maximally complex pair.
var DurationBuckets = ExpBuckets(250e-9, 2, 24)

// Span times one operation into a histogram. The zero Span is inert.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan opens a span recording into h (h may be nil: the span still
// measures, but records nowhere).
func StartSpan(h *Histogram) Span {
	return Span{h: h, start: time.Now()}
}

// End closes the span, records the elapsed time and returns it.
func (s Span) End() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	d := time.Since(s.start)
	if s.h != nil {
		s.h.ObserveDuration(d)
	}
	return d
}
