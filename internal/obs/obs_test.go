package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // (-inf,1] (1,2] (2,4] (4,+inf)
	for i, n := range want {
		if s.Counts[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], n)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Sum != 106 {
		t.Errorf("sum = %g", s.Sum)
	}
	if m := s.Mean(); m != 106.0/5 {
		t.Errorf("mean = %g", m)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	for i := 0; i < 100; i++ {
		h.Observe(3) // lands in (2,4]
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q < 2 || q > 4 {
		t.Errorf("p50 = %g, want within (2,4]", q)
	}
	empty := NewHistogram(ExpBuckets(1, 2, 4)).Snapshot()
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean should be 0")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.25, 2, 4)
	want := []float64{0.25, 0.5, 1, 2}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	if len(DurationBuckets) != 24 || DurationBuckets[0] != 250e-9 {
		t.Error("DurationBuckets layout changed: update DESIGN.md")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total")
	c1.Add(5)
	if c2 := r.Counter("a_total"); c2 != c1 || c2.Value() != 5 {
		t.Error("counter not shared across lookups")
	}
	g1 := r.Gauge("g")
	if r.Gauge("g") != g1 {
		t.Error("gauge not shared")
	}
	h1 := r.Histogram("h_seconds", DurationBuckets)
	if r.Histogram("h_seconds", nil) != h1 {
		t.Error("histogram not shared")
	}
	r.GaugeFunc("fn", func() int64 { return 99 })
	s := r.Snapshot()
	found := false
	for _, g := range s.Gauges {
		if g.Name == "fn" && g.Value == 99 {
			found = true
		}
	}
	if !found {
		t.Error("gauge func missing from snapshot")
	}
}

func TestName(t *testing.T) {
	if got := Name("x_total"); got != "x_total" {
		t.Errorf("Name no labels = %q", got)
	}
	got := Name("x_total", "stage", "refine", "method", "P+C")
	want := `x_total{stage="refine",method="P+C"}`
	if got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("pairs_total", "method", "P+C")).Add(7)
	r.Counter("plain_total").Add(1)
	r.Gauge("temp").Set(-2)
	h := r.Histogram("lat_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pairs_total counter",
		`pairs_total{method="P+C"} 7`,
		"plain_total 1",
		"# TYPE temp gauge",
		"temp -2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 1`,
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_sum 5.5",
		"lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONAndTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(3)
	r.Histogram("h_seconds", DurationBuckets).ObserveDuration(3 * time.Millisecond)
	var jb strings.Builder
	if err := r.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded SnapshotData
	if err := json.Unmarshal([]byte(jb.String()), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(decoded.Counters) != 1 || decoded.Counters[0].Value != 3 {
		t.Errorf("decoded counters: %+v", decoded.Counters)
	}
	var tb strings.Builder
	if err := r.Snapshot().WriteTable(&tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "c_total") || !strings.Contains(tb.String(), "h_seconds") {
		t.Errorf("table output incomplete:\n%s", tb.String())
	}
}

func TestSpan(t *testing.T) {
	h := NewHistogram(DurationBuckets)
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Errorf("span measured %v", d)
	}
	if h.Count() != 1 {
		t.Errorf("span did not record: count=%d", h.Count())
	}
	if (Span{}).End() != 0 {
		t.Error("zero span should be inert")
	}
	if StartSpan(nil).End() <= 0 {
		t.Error("nil-histogram span should still measure")
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run under
// -race (the Makefile race target does).
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_seconds", DurationBuckets)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%7) * 1e-6)
				r.Gauge(fmt.Sprintf("g%d", w)).Set(int64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Errorf("lost updates: %d", got)
	}
	if got := r.Histogram("shared_seconds", nil).Count(); got != 8000 {
		t.Errorf("lost observations: %d", got)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	s := r.Snapshot()
	byName := map[string]int64{}
	for _, g := range s.Gauges {
		byName[g.Name] = g.Value
	}
	if byName["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %d", byName["go_goroutines"])
	}
	if byName["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d", byName["go_heap_alloc_bytes"])
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Add(11)
	addr, stop, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop(context.Background())
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if !strings.Contains(get("/metrics"), "served_total 11") {
		t.Error("/metrics missing counter")
	}
	if !strings.Contains(get("/metrics.json"), `"served_total"`) {
		t.Error("/metrics.json missing counter")
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "") {
		t.Error("unreachable")
	}
	if body := get("/debug/vars"); !strings.Contains(body, "cmdline") {
		t.Error("/debug/vars not serving expvar")
	}
}

// TestServeDebugShutdown: the returned stop function must actually close
// the listener so the port is released and further requests fail.
func TestServeDebugShutdown(t *testing.T) {
	r := NewRegistry()
	addr, stop, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatalf("GET before shutdown: %v", err)
	}
	if err := stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
	// Idempotent: a second stop reports ErrServerClosed, never panics.
	stop(context.Background())
}

func TestDefaultRegistry(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatal("Default registry must be a stable singleton")
	}
}
