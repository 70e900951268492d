package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/trace"
)

// newTracedServer is newTestServer with an always-sample tracer.
func newTracedServer(t *testing.T, cfg Config, sets ...string) (*Server, *Client, *trace.Tracer, string) {
	t.Helper()
	tr := trace.New(trace.Config{Sample: 1, Capacity: 32})
	cfg.Tracer = tr
	svc := New(testRegistry(t, sets...), cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, NewClient(ts.URL), tr, ts.URL
}

// TestJoinTraceDepth is the tentpole acceptance check: a sampled
// /v1/join yields a trace with at least three nested span levels
// (handler → sweep worker → settling stage) and the buffer exports as
// valid Chrome trace JSON through /debug/traces.
func TestJoinTraceDepth(t *testing.T) {
	_, c, tr, base := newTracedServer(t, Config{}, "OLE", "OPE")
	jr, err := c.Join(context.Background(), JoinRequest{Left: "OLE", Right: "OPE", Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Candidates == 0 || jr.Evaluated == 0 {
		t.Fatalf("join swept nothing: %+v", jr)
	}

	var td trace.TraceData
	for _, cand := range tr.Traces() {
		if cand.Root.Name == "http.join" {
			td = cand
		}
	}
	if td.ID == "" {
		t.Fatalf("no http.join trace buffered; have %d traces", len(tr.Traces()))
	}
	if !td.Sampled {
		t.Fatalf("trace not sampled: %+v", td)
	}
	if depth := td.Root.Depth(); depth < 3 {
		t.Fatalf("trace depth = %d, want >= 3 (handler → worker → pair)", depth)
	}
	if td.Root.Attr("left") != "OLE" || td.Root.Attr("right") != "OPE" {
		t.Fatalf("root attrs = %+v", td.Root.Attrs)
	}
	if v, ok := td.Root.IntAttr("candidates"); !ok || v != int64(jr.Candidates) {
		t.Fatalf("candidates attr = %d (%v), want %d", v, ok, jr.Candidates)
	}
	if v, ok := td.Root.IntAttr("http_status"); !ok || v != http.StatusOK {
		t.Fatalf("http_status attr = %d (%v)", v, ok)
	}
	// Worker 0 is the request goroutine and may drain a small join before
	// the others start, so look under every worker span.
	workers, foundStage := 0, false
	for _, worker := range td.Root.Children {
		if worker.Name != "sweep.worker" {
			continue
		}
		workers++
		for _, pair := range worker.Children {
			if pair.Name != "pair" {
				continue
			}
			for _, stage := range pair.Children {
				if stage.Name == "filter" || stage.Name == "refine" {
					foundStage = true
				}
			}
		}
	}
	if workers == 0 {
		t.Fatalf("no sweep.worker span under root; children: %+v", td.Root.Children)
	}
	if !foundStage {
		t.Fatal("no settling-stage span under any pair span")
	}

	// The buffer must export as valid Chrome trace JSON over HTTP.
	resp, err := http.Get(base + "/debug/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome export invalid JSON: %v", err)
	}
	if len(chrome.TraceEvents) < 3 {
		t.Fatalf("chrome export has %d events, want >= 3", len(chrome.TraceEvents))
	}
}

// TestRelateTraceCandidates: a sampled relate probe is a one-row join and
// leaves the join's trace shape — handler → sweep worker → pair →
// filter/refine — and the join's slow-pair forensics on the root.
func TestRelateTraceCandidates(t *testing.T) {
	_, c, tr, _ := newTracedServer(t, Config{}, "OPE")
	rr, err := c.Relate(context.Background(), RelateRequest{Dataset: "OPE", WKT: probeWKT, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Candidates == 0 {
		t.Fatalf("probe found no candidates: %+v", rr)
	}
	var td trace.TraceData
	for _, cand := range tr.Traces() {
		if cand.Root.Name == "http.relate" {
			td = cand
		}
	}
	if td.ID == "" {
		t.Fatal("no http.relate trace buffered")
	}
	pairs, stages := 0, 0
	for _, worker := range td.Root.Children {
		if worker.Name != "sweep.worker" {
			continue
		}
		for _, pair := range worker.Children {
			if pair.Name != "pair" {
				continue
			}
			pairs++
			for _, stage := range pair.Children {
				if stage.Name == "filter" || stage.Name == "refine" {
					stages++
				}
			}
		}
	}
	if pairs != rr.Candidates || stages == 0 {
		t.Fatalf("%d pair spans (want %d), %d stage spans; children: %+v", pairs, rr.Candidates, stages, td.Root.Children)
	}
	if td.Root.Attr("dataset") != "OPE" {
		t.Fatalf("root attrs = %+v", td.Root.Attrs)
	}
	if v, ok := td.Root.IntAttr("candidates"); !ok || v != int64(rr.Candidates) {
		t.Fatalf("candidates attr = %d (%v), want %d", v, ok, rr.Candidates)
	}
	if _, ok := td.Root.IntAttr("slow_pair_ns"); !ok {
		t.Fatalf("missing slow-pair forensics; attrs = %+v", td.Root.Attrs)
	}
}

// TestExemplarLinksHistogramToTrace: the per-route latency histogram
// carries the sampled request's trace id as a bucket exemplar.
func TestExemplarLinksHistogramToTrace(t *testing.T) {
	svc, c, tr, _ := newTracedServer(t, Config{}, "OLE", "OPE")
	if _, err := c.Join(context.Background(), JoinRequest{Left: "OLE", Right: "OPE", Limit: 1}); err != nil {
		t.Fatal(err)
	}
	snap := svc.Metrics().Histogram(obs.Name("server_request_seconds", "route", "join"), obs.DurationBuckets).Snapshot()
	if snap.Exemplars == nil {
		t.Fatal("join latency histogram has no exemplars")
	}
	var id string
	for _, e := range snap.Exemplars {
		if e != "" {
			id = e
		}
	}
	if id == "" {
		t.Fatal("all exemplar slots empty")
	}
	if _, ok := tr.TraceByID(id); !ok {
		t.Fatalf("exemplar %s does not resolve to a buffered trace", id)
	}
}

// TestSlowQueryLog: a request crossing the slow threshold leaves both
// forensic artifacts in SlowDir — the trace JSON (OnSlow hook) and the
// WKT dump of the slowest pair (handler) — and bumps the counter.
func TestSlowQueryLog(t *testing.T) {
	dir := t.TempDir()
	tr := trace.New(trace.Config{Sample: 0, SlowThreshold: time.Nanosecond, Capacity: 8})
	svc := New(testRegistry(t, "OLE", "OPE"), Config{Tracer: tr, SlowDir: dir})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	c := NewClient(ts.URL)

	if _, err := c.Join(context.Background(), JoinRequest{Left: "OLE", Right: "OPE", Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if n := svc.Metrics().Counter("server_slow_queries_total").Value(); n == 0 {
		t.Fatal("slow-query counter not bumped")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var traceJSON, wktDump string
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), "slow-join-") && strings.HasSuffix(e.Name(), ".txt"):
			wktDump = e.Name()
		case strings.HasPrefix(e.Name(), "slow-") && strings.HasSuffix(e.Name(), ".json"):
			traceJSON = e.Name()
		}
	}
	if traceJSON == "" || wktDump == "" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("missing forensics: trace=%q wkt=%q in %v", traceJSON, wktDump, names)
	}
	// The trace JSON round-trips, unsampled but kept as slow.
	data, err := os.ReadFile(filepath.Join(dir, traceJSON))
	if err != nil {
		t.Fatal(err)
	}
	var td trace.TraceData
	if err := json.Unmarshal(data, &td); err != nil {
		t.Fatal(err)
	}
	if !td.Slow || td.Sampled {
		t.Fatalf("slow trace flags = %+v", td)
	}
	// The WKT dump is in the corpus format the oracle replays.
	body, err := os.ReadFile(filepath.Join(dir, wktDump))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# slow-join:", "\nA MULTIPOLYGON", "\nB MULTIPOLYGON", "\nV "} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("WKT dump missing %q:\n%s", want, body)
		}
	}
}

// TestMetricz: the JSON metrics snapshot is served on the main API port.
func TestMetricz(t *testing.T) {
	_, c, _, base := newTracedServer(t, Config{}, "OLE")
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz status = %d", resp.StatusCode)
	}
	var snap obs.SnapshotData
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "stj_build_info{") && g.Value == 1 {
			found = true
			if !strings.Contains(g.Name, "version=") || !strings.Contains(g.Name, "grid_order=") {
				t.Fatalf("build info labels incomplete: %s", g.Name)
			}
		}
	}
	if !found {
		t.Fatalf("stj_build_info gauge missing; gauges: %+v", snap.Gauges)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("metricz snapshot has no counters")
	}
}

// TestHealthzBuildAndDegradedServed: /v1/healthz reports build identity
// and counts degraded-mode requests; the degraded counter dimension is
// bumped when a degraded dataset forces ST2.
func TestHealthzBuildAndDegradedServed(t *testing.T) {
	suite := testSuite()
	reg := NewRegistry(suite.Space, datagen.DefaultOrder)
	if _, err := reg.Add("OPE", datagen.EntityTypes["OPE"], suite.Sets["OPE"]); err != nil {
		t.Fatal(err)
	}
	// A degraded dataset: MBR-only entries, handlers must force ST2.
	if _, err := reg.AddDegraded("OLE", datagen.EntityTypes["OLE"], suite.Sets["OLE"]); err != nil {
		t.Fatal(err)
	}
	svc := New(reg, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Build.Version == "" || h.Build.Go == "" || h.Build.GridOrder == 0 {
		t.Fatalf("build info = %+v", h.Build)
	}
	if h.DegradedServed != 0 {
		t.Fatalf("degraded served before any request: %d", h.DegradedServed)
	}

	if _, err := c.Relate(ctx, RelateRequest{Dataset: "OLE", WKT: probeWKT, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(ctx, JoinRequest{Left: "OLE", Right: "OPE", Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if n := svc.Metrics().Counter(obs.Name("server_degraded_requests_total", "route", "relate")).Value(); n != 1 {
		t.Fatalf("degraded relate counter = %d, want 1", n)
	}
	if n := svc.Metrics().Counter(obs.Name("server_degraded_requests_total", "route", "join")).Value(); n != 1 {
		t.Fatalf("degraded join counter = %d, want 1", n)
	}
	h, err = c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.DegradedServed != 2 {
		t.Fatalf("degraded served = %d, want 2", h.DegradedServed)
	}
}

// TestTracerOffIsInert: without a tracer everything still works and no
// trace surfaces appear — the nil-tracer path of every call site.
func TestTracerOffIsInert(t *testing.T) {
	_, c := newTestServer(t, Config{}, "OLE", "OPE")
	if _, err := c.Join(context.Background(), JoinRequest{Left: "OLE", Right: "OPE", Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Relate(context.Background(), RelateRequest{Dataset: "OPE", WKT: probeWKT, Limit: 1}); err != nil {
		t.Fatal(err)
	}
}
