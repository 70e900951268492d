package obs

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of metrics with get-or-create
// semantics: the first call for a name creates the metric, later calls
// return the same instance. Metric handles are cached by callers and
// mutated lock-free; the registry lock is only taken on lookup and
// snapshot, never on the hot path.
//
// Names follow the Prometheus convention, optionally with a literal
// label suffix built by Name: "pipeline_pairs_total" or
// `pipeline_verdict_total{stage="refine"}`. Exporters treat the suffix
// as opaque labels of the base name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	gaugeFns map[string]func() int64
	fnOrder  []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		gaugeFns: make(map[string]func() int64),
	}
}

// std is the process-global default registry (expvar-style): library
// code that wants always-on telemetry without plumbing publishes here.
var std = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return std }

// Name builds a metric name with a Prometheus-style label suffix from
// alternating key, value pairs: Name("x_total", "stage", "refine") is
// `x_total{stage="refine"}`. Deterministic, so tests and dashboards can
// reconstruct names exactly.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", labels[i], labels[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a gauge whose value is computed at snapshot time —
// for values that already exist elsewhere (cache sizes, runtime stats).
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFns[name]; !ok {
		r.fnOrder = append(r.fnOrder, name)
	}
	r.gaugeFns[name] = fn
}

// NamedValue is one scalar metric in a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHistogram is one histogram in a snapshot.
type NamedHistogram struct {
	Name string            `json:"name"`
	Hist HistogramSnapshot `json:"hist"`
}

// SnapshotData is a point-in-time copy of every registered metric,
// sorted by name.
type SnapshotData struct {
	Counters   []NamedValue     `json:"counters"`
	Gauges     []NamedValue     `json:"gauges"`
	Histograms []NamedHistogram `json:"histograms"`
}

// Snapshot copies the current value of every metric. Gauge functions are
// collected under the lock but evaluated after it is released, so a
// function that re-enters the registry cannot deadlock.
func (r *Registry) Snapshot() SnapshotData {
	r.mu.Lock()
	var s SnapshotData
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{name, c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{name, g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, NamedHistogram{name, h.Snapshot()})
	}
	type fn struct {
		name string
		f    func() int64
	}
	fns := make([]fn, 0, len(r.gaugeFns))
	for _, name := range r.fnOrder {
		fns = append(fns, fn{name, r.gaugeFns[name]})
	}
	r.mu.Unlock()

	for _, f := range fns {
		s.Gauges = append(s.Gauges, NamedValue{f.name, f.f()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// RegisterRuntimeMetrics adds Go runtime gauges (goroutines, heap bytes,
// cumulative allocations, GC count and pause total) to the registry.
// runtime.ReadMemStats runs once per snapshot, not per update.
func RegisterRuntimeMetrics(r *Registry) {
	r.GaugeFunc("go_goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	mem := func(pick func(*runtime.MemStats) int64) func() int64 {
		return func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return pick(&ms)
		}
	}
	r.GaugeFunc("go_heap_alloc_bytes", mem(func(ms *runtime.MemStats) int64 { return int64(ms.HeapAlloc) }))
	r.GaugeFunc("go_alloc_bytes_total", mem(func(ms *runtime.MemStats) int64 { return int64(ms.TotalAlloc) }))
	r.GaugeFunc("go_gc_runs_total", mem(func(ms *runtime.MemStats) int64 { return int64(ms.NumGC) }))
	r.GaugeFunc("go_gc_pause_ns_total", mem(func(ms *runtime.MemStats) int64 { return int64(ms.PauseTotalNs) }))
}
