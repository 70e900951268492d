package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing query requests
	// (default 4 × GOMAXPROCS: queries are CPU-bound, a small multiple
	// keeps the cores busy while one request decodes, rasterises its
	// probe or encodes its response).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot (default MaxInFlight);
	// beyond it requests are rejected immediately with 429.
	MaxQueue int
	// QueueWait is how long a queued request waits for a slot before
	// 429 (default 100ms — shedding beats queueing at saturation).
	QueueWait time.Duration
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 10s); MaxTimeout clamps what a request may ask for
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// JoinWorkers caps the workers of one request's sweep over its
	// candidate pairs, join or relate probe (default GOMAXPROCS).
	JoinWorkers int
	// DefaultLimit and MaxLimit bound the matches/pairs a response may
	// carry (defaults 1000 and 100000).
	DefaultLimit int
	MaxLimit     int
	// Metrics receives all instrumentation (default: a fresh registry).
	Metrics *obs.Registry
	// ReproDir, when set, receives a WKT dump (oracle regression-corpus
	// format) of every geometry pair whose evaluation panicked, so
	// crashes become replayable test cases. Empty disables dumping.
	ReproDir string
	// Tracer, when non-nil, records request-scoped span traces: every
	// request gets a root span, sampled ones a full handler → sweep
	// worker → settling-stage tree, and requests crossing the tracer's
	// slow threshold are kept regardless of sampling. The buffer is
	// served on /debug/traces.
	Tracer *trace.Tracer
	// SlowDir, when set together with a Tracer whose SlowThreshold is
	// on, receives slow-query forensics: the slow request's trace as
	// JSON plus a WKT dump of its slowest pair in the oracle
	// regression-corpus format (same as ReproDir panic dumps), so a
	// latency outlier becomes a replayable input.
	SlowDir string
	// Shard, when non-nil, runs the server as one shard of a
	// partitioned deployment: candidate pairs whose reference point
	// (the min corner of the two MBRs' intersection) falls outside the
	// shard's key range are dropped before evaluation, so boundary
	// pairs replicated across shards are answered by exactly one of
	// them and a scatter-gather merge reproduces the single-node
	// result. The registry serving this config must be filtered with
	// the same assignment (Registry.SetShard).
	Shard *shard.Assignment
	// Logf receives the server's operational log lines (recovered
	// panics, degraded-mode transitions); default discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.JoinWorkers <= 0 {
		c.JoinWorkers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 1000
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 100000
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the topology query service: once-built indexes from a
// Registry behind an HTTP JSON API with admission control, per-request
// deadlines and graceful drain.
type Server struct {
	cfg  Config
	data *Registry
	met  *obs.Registry
	mux  *http.ServeMux
	adm  *admission

	// rootCtx is cancelled when the drain grace expires (or Close runs):
	// it force-cancels every in-flight request context.
	rootCtx    context.Context
	rootCancel context.CancelCauseFunc

	wg       sync.WaitGroup // in-flight requests
	draining atomic.Bool

	rejected *obs.Counter
	timeouts *obs.Counter
	logf     func(format string, args ...any)

	tracer  *trace.Tracer
	slowThr time.Duration
	// owns is the shard-mode ownership predicate over candidate MBR
	// pairs (nil when the server owns the whole keyspace).
	owns func(a, b geom.MBR) bool
	// degServed counts requests answered by the forced ST2 pipeline
	// while a dataset involved was degraded, per route.
	degServed map[string]*obs.Counter

	// testHook, when non-nil, runs inside every admitted request before
	// the real work — lifecycle tests use it to hold slots at a gate.
	testHook func(ctx context.Context) error
}

// New assembles a server over the registry's datasets.
func New(data *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := cfg.Metrics
	s := &Server{
		cfg:      cfg,
		data:     data,
		met:      met,
		mux:      http.NewServeMux(),
		rejected: met.Counter("server_rejected_total{reason=\"overload\"}"),
		timeouts: met.Counter("server_rejected_total{reason=\"deadline\"}"),
		logf:     cfg.Logf,
		tracer:   cfg.Tracer,
		slowThr:  cfg.Tracer.SlowThreshold(),
		degServed: map[string]*obs.Counter{
			"relate": met.Counter(obs.Name("server_degraded_requests_total", "route", "relate")),
			"join":   met.Counter(obs.Name("server_degraded_requests_total", "route", "join")),
		},
	}
	if cfg.Shard != nil {
		s.owns = cfg.Shard.Owns
	}
	s.installSlowLog()
	s.rootCtx, s.rootCancel = context.WithCancelCause(context.Background())
	s.adm = newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait,
		met.Gauge("server_inflight"), met.Gauge("server_queue_depth"))

	// Build identity: constant gauge, labels carry the facts.
	met.GaugeFunc(obs.Name("stj_build_info",
		"version", buildinfo.Version,
		"go", buildinfo.GoVersion(),
		"grid_order", fmt.Sprint(data.Builder().Grid().Order())),
		func() int64 { return 1 })

	s.mux.HandleFunc("GET /v1/healthz", s.route("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("GET /v1/datasets", s.route("datasets", false, s.handleDatasets))
	s.mux.HandleFunc("GET /v1/metricz", s.route("metricz", false, s.handleMetricz))
	s.mux.HandleFunc("POST /v1/relate", s.route("relate", true, s.handleRelate))
	s.mux.HandleFunc("POST /v1/join", s.route("join", true, s.handleJoin))
	s.registerIngestRoutes()
	// The PR-1 debug surface rides on the same server: metrics scrapes
	// and live profiles come from the serving process itself. The trace
	// buffer mounts under the same /debug/ tree (nil-tracer safe).
	debug := obs.Handler(met, obs.Mount{Pattern: "/debug/traces", Handler: cfg.Tracer.Handler()})
	s.mux.Handle("/metrics", debug)
	s.mux.Handle("/metrics.json", debug)
	s.mux.Handle("/debug/", debug)
	return s
}

// Handler returns the service's HTTP handler (mount it on any server).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the instrumentation registry.
func (s *Server) Metrics() *obs.Registry { return s.met }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the service: new requests get 503 immediately,
// in-flight requests run to completion, and when ctx expires before
// they finish their contexts are force-cancelled (the sweeps are
// context-aware, so they unwind promptly) and ctx's error is returned.
// The caller separately shuts down the http.Server carrying the
// handler; Shutdown only manages the service's own work.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.rootCancel(errors.New("server: shut down"))
		return nil
	case <-ctx.Done():
		s.rootCancel(fmt.Errorf("server: drain grace expired: %w", ctx.Err()))
		<-done // sweeps unwind on cancellation; wait for handlers to exit
		return ctx.Err()
	}
}

// Close force-stops without draining (tests and error paths).
func (s *Server) Close() {
	s.draining.Store(true)
	s.rootCancel(errors.New("server: closed"))
	s.wg.Wait()
}

// httpError carries a status code (and an optional machine-readable
// reason code) through a handler's error return.
type httpError struct {
	code   int
	msg    string
	reason string
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errfr is errf with a stable reason code for the error envelope, so
// clients can branch on the cause without parsing the message text.
func errfr(code int, reason, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...), reason: reason}
}

// errorReason extracts the machine-readable reason, if the handler set
// one.
func errorReason(err error) string {
	var he *httpError
	if errors.As(err, &he) {
		return he.reason
	}
	return ""
}

// handlerFunc is the shape of every endpoint: decode from r, return a
// JSON-encodable payload or an error the middleware maps to a status.
type handlerFunc func(ctx context.Context, r *http.Request) (any, error)

// route wraps an endpoint with the service middleware: drain check,
// in-flight tracking, admission (for query endpoints), per-endpoint
// request counters and latency histograms, and error → status mapping.
func (s *Server) route(name string, admit bool, h handlerFunc) http.HandlerFunc {
	lat := s.met.Histogram(obs.Name("server_request_seconds", "route", name), obs.DurationBuckets)
	codeCtr := func(code int) *obs.Counter {
		return s.met.Counter(obs.Name("server_requests_total", "route", name, "code", fmt.Sprint(code)))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		span := obs.StartSpan(lat)
		// Every request gets a trace root span (one small allocation);
		// whether children record was decided by the tracer's sampling
		// coin. finish closes both timers exactly once per exit path and,
		// when the trace is kept, plants its id as the latency bucket's
		// exemplar — the histogram outlier links to its trace. A caller
		// that already carries a trace (the scatter-gather router)
		// propagates its id via TraceHeader; adopting it as this root's
		// id stitches the two processes' span trees together.
		var tctx context.Context
		var rsp *trace.Span
		if pid, ok := trace.ParseID(r.Header.Get(TraceHeader)); ok {
			tctx, rsp = s.tracer.StartRemote(r.Context(), "http."+name, pid)
			rsp.SetStr("remote_parent", "true")
		} else {
			tctx, rsp = s.tracer.Start(r.Context(), "http."+name)
		}
		finish := func(code int) {
			codeCtr(code).Inc()
			rsp.SetInt("http_status", int64(code))
			d := span.End()
			rsp.End()
			if rsp.Recording() || (s.slowThr > 0 && d >= s.slowThr) {
				lat.SetExemplar(d.Seconds(), rsp.TraceID())
			}
		}
		// Outermost panic barrier: whatever escapes the per-pair guards
		// costs this request a 500, never the process. The handler has
		// not written its response yet when it can still panic (payload
		// encoding happens after it returns), so the error write is safe.
		wrote := false
		defer func() {
			if rv := recover(); rv != nil {
				s.handlerPanic(name, rv)
				rsp.SetStr("panic", fmt.Sprint(rv))
				if !wrote {
					writeError(w, http.StatusInternalServerError, "internal error")
					finish(http.StatusInternalServerError)
				} else {
					finish(http.StatusOK)
				}
			}
		}()
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			finish(http.StatusServiceUnavailable)
			return
		}
		s.wg.Add(1)
		defer s.wg.Done()

		// Tie the request to the drain lifecycle: when the grace period
		// expires, rootCtx cancels every in-flight request context.
		ctx, cancel := context.WithCancel(tctx)
		defer cancel()
		stop := context.AfterFunc(s.rootCtx, cancel)
		defer stop()

		if admit {
			release, err := s.adm.acquire(ctx)
			if err != nil {
				code := s.admissionCode(err)
				writeError(w, code, err.Error())
				finish(code)
				return
			}
			defer release()
		}

		payload, err := h(ctx, r)
		code := http.StatusOK
		wrote = true
		if err != nil {
			code = s.errorCode(err)
			writeErrorReason(w, code, err.Error(), errorReason(err))
		} else {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(payload)
		}
		finish(code)
	}
}

func (s *Server) admissionCode(err error) int {
	switch {
	case errors.Is(err, errOverload):
		s.rejected.Inc()
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return http.StatusGatewayTimeout
	default:
		return http.StatusServiceUnavailable
	}
}

func (s *Server) errorCode(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away or drain grace expired mid-request.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeErrorReason(w, code, msg, "")
}

func writeErrorReason(w http.ResponseWriter, code int, msg, reason string) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusTooManyRequests {
		// Queue wait already absorbed sub-second bursts; tell clients to
		// back off for a beat instead of hammering.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Reason: reason})
}

// requestCtx applies the request's deadline: timeoutMS if given
// (clamped to MaxTimeout), the server default otherwise.
func (s *Server) requestCtx(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(ctx, d)
}

func (s *Server) handleHealthz(ctx context.Context, r *http.Request) (any, error) {
	degraded, rebuilding := s.data.States()
	status := "ok"
	if len(degraded)+len(rebuilding) > 0 {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
	}
	var degServed int64
	for _, c := range s.degServed {
		degServed += c.Value()
	}
	var si *ShardInfo
	if a := s.cfg.Shard; a != nil {
		si = &ShardInfo{Index: a.Index(), KeyRange: a.Range().String(), RouteOrder: a.RouteOrder()}
	}
	return HealthResponse{
		Status: status,
		Build: BuildInfo{
			Version:   buildinfo.Version,
			Go:        buildinfo.GoVersion(),
			GridOrder: s.data.Builder().Grid().Order(),
		},
		Datasets:        s.data.Len(),
		InFlight:        s.met.Gauge("server_inflight").Value(),
		Queued:          s.met.Gauge("server_queue_depth").Value(),
		Degraded:        degraded,
		Rebuilding:      rebuilding,
		DegradedServed:  degServed,
		Shard:           si,
		WalPendingBytes: s.data.WalPendingBytes(),
	}, nil
}

// handleMetricz serves the full metrics snapshot as JSON on the main
// API port, so operators behind a firewall that only exposes the API
// don't need the separate -metrics debug listener.
func (s *Server) handleMetricz(ctx context.Context, r *http.Request) (any, error) {
	return s.met.Snapshot(), nil
}

func (s *Server) handleDatasets(ctx context.Context, r *http.Request) (any, error) {
	return s.data.List(), nil
}

func decodeBody(r *http.Request, into any) error {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 16<<20))
	if err != nil {
		return errf(http.StatusBadRequest, "reading body: %v", err)
	}
	if err := json.Unmarshal(body, into); err != nil {
		return errf(http.StatusBadRequest, "decoding request: %v", err)
	}
	return nil
}

func parseRelation(name string) (de9im.Relation, error) {
	for rel := de9im.Relation(0); int(rel) < de9im.NumRelations; rel++ {
		if rel.String() == name {
			return rel, nil
		}
	}
	return 0, errf(http.StatusBadRequest, "unknown predicate %q", name)
}

// probeGeometry extracts the probe polygon from a relate request,
// mapping decode failures to 400s.
func probeGeometry(req *RelateRequest) (*geom.Polygon, error) {
	p, err := req.Geometry()
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	return p, nil
}

func (s *Server) clampLimit(limit int) int {
	if limit <= 0 {
		return s.cfg.DefaultLimit
	}
	if limit > s.cfg.MaxLimit {
		return s.cfg.MaxLimit
	}
	return limit
}

func (s *Server) handleRelate(ctx context.Context, r *http.Request) (any, error) {
	var req RelateRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	entry, ok := s.data.Get(req.Dataset)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q", req.Dataset)
	}
	method := core.PC
	rsp := trace.FromContext(ctx)
	rsp.SetStr("dataset", req.Dataset)
	if entry.Degraded {
		// The entry has no approximations (post-corruption rebuild in
		// flight); ST2 never reads them, so answers stay correct. An
		// interval filter over empty lists would be silently wrong.
		method = core.ST2
		s.degServed["relate"].Inc()
		rsp.SetStr("degraded", "true")
	}
	rsp.SetStr("method", method.String())
	test, err := parsePairTest(req.Predicate, req.Mask)
	if err != nil {
		return nil, err
	}
	poly, err := probeGeometry(&req)
	if err != nil {
		return nil, err
	}
	probe, err := s.data.Probe(poly)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "probe geometry: %v", err)
	}

	rctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()

	if s.testHook != nil {
		if err := s.testHook(rctx); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	// A probe is a one-row join: every candidate from the entry's merged
	// epoch view (base minus tombstones plus delta) pairs with the probe,
	// which is the left operand of every relation reported.
	var pairs []core.Pair
	err = entry.View().QueryContext(rctx, probe.MBR, func(delta bool, e join.Entry) {
		// Shard mode: the reference-point rule, as in handleJoin.
		if s.owns != nil && !s.owns(probe.MBR, e.Box) {
			return
		}
		pairs = append(pairs, core.Pair{R: probe, S: entry.objAt(delta, e.ID)})
	})
	if err != nil {
		return nil, err
	}
	matches := []RelateMatch{}
	ev, err := s.evalPairs(rctx, "relate", start, pairs, method, test, s.clampLimit(req.Limit),
		func(i int, relation string) {
			matches = append(matches, RelateMatch{ID: pairs[i].S.ID, Relation: relation})
		})
	if err != nil {
		return nil, err
	}
	return RelateResponse{
		Dataset:      req.Dataset,
		Candidates:   len(pairs),
		Evaluated:    ev.stats.Pairs,
		Refined:      ev.stats.Undetermined,
		Matches:      matches,
		Truncated:    ev.truncated,
		BatchSize:    1,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
		Epoch:        entry.Epoch,
		IndexVersion: entry.Version,
	}, nil
}

func (s *Server) handleJoin(ctx context.Context, r *http.Request) (any, error) {
	var req JoinRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	left, ok := s.data.Get(req.Left)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q", req.Left)
	}
	right, ok := s.data.Get(req.Right)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q", req.Right)
	}
	method := core.PC
	rsp := trace.FromContext(ctx)
	rsp.SetStr("left", req.Left)
	rsp.SetStr("right", req.Right)
	if left.Degraded || right.Degraded {
		method = core.ST2 // see handleRelate: degraded entries carry no approximations
		s.degServed["join"].Inc()
		rsp.SetStr("degraded", "true")
	}
	rsp.SetStr("method", method.String())
	test, err := parsePairTest(req.Predicate, req.Mask)
	if err != nil {
		return nil, err
	}
	limit := s.clampLimit(req.Limit)

	rctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()

	if s.testHook != nil {
		if err := s.testHook(rctx); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	// Candidate generation: synchronized R-tree traversal over the two
	// once-built indexes, abandoned mid-tree when the deadline expires.
	csp := rsp.Child("candidates")
	var pairs []core.Pair
	err = join.JoinViews(rctx, left.View(), right.View(), func(aDelta, bDelta bool, a, b join.Entry) {
		// Shard mode: skip candidate pairs this shard does not own
		// under the reference-point rule — the shard holding the
		// intersection's min corner evaluates them instead, so each
		// boundary pair is answered exactly once fleet-wide.
		if s.owns != nil && !s.owns(a.Box, b.Box) {
			return
		}
		pairs = append(pairs, core.Pair{R: left.objAt(aDelta, a.ID), S: right.objAt(bDelta, b.ID)})
	})
	csp.SetInt("pairs", int64(len(pairs)))
	csp.End()
	if err != nil {
		return nil, err
	}

	resp := JoinResponse{
		Left: req.Left, Right: req.Right, Candidates: len(pairs),
		LeftEpoch: left.Epoch, LeftVersion: left.Version,
		RightEpoch: right.Epoch, RightVersion: right.Version,
	}
	ev, err := s.evalPairs(rctx, "join", start, pairs, method, test, limit, func(i int, relation string) {
		resp.Pairs = append(resp.Pairs, JoinPair{LeftID: pairs[i].R.ID, RightID: pairs[i].S.ID, Relation: relation})
	})
	if test.Find() {
		// Find-relation joins publish their sweep stats into the registry,
		// even when the sweep was cut short.
		ev.stats.Publish(s.met, "server_join")
		resp.Relations = make(map[string]int)
		for rel, n := range ev.stats.Relations {
			if n > 0 {
				resp.Relations[de9im.Relation(rel).String()] = n
			}
		}
	}
	if err != nil {
		return nil, err
	}
	resp.Evaluated, resp.Refined, resp.Holds, resp.Truncated = ev.stats.Pairs, ev.stats.Undetermined, ev.stats.Holds, ev.truncated
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

// pairTest is what a relate or join request asks of each candidate
// pair — its most specific relation (the zero core.Test, Algorithm 1),
// or whether a relate_p predicate or an arbitrary DE-9IM mask holds —
// and the relation a holding pair reports in the response: the
// predicate's name, empty for a mask.
type pairTest struct {
	core.Test
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
		return pairTest{Test: core.PredicateTest(pred), relation: pred.String()}, nil
	case mask != "":
		dm, err := de9im.ParseMask(mask)
		if err != nil {
			return pairTest{}, errf(http.StatusBadRequest, "mask: %v", err)
		}
		return pairTest{Test: core.MaskTest(dm)}, nil
	}
	return pairTest{}, nil
}

// evaluation is what evalPairs reports besides the accepted pairs.
type evaluation struct {
	// stats is the sweep's pair, verdict, holds, relation and stage
	// tallies.
	stats     core.MethodStats
	truncated bool
}

// evalPairs is the one evaluation path of /v1/relate and /v1/join: it
// runs the request's test over the candidate pairs through
// core.RunSweep. emit receives, serially, the index and reported
// relation of each accepted pair — a related pair in find mode, a
// holding one otherwise — up to limit; beyond it the evaluation is
// truncated. A panicking pair is counted, repro-dumped and fails the
// request with a 500; ctx's deadline cuts the sweep short. start is when
// the handler began the request's own work: a request slower than the
// tracer's slow threshold dumps its slowest pair, so predicate and mask
// pairs are timed whenever the slow-query log is on. The evaluation is
// returned even with an error and then covers the pairs actually
// evaluated.
func (s *Server) evalPairs(ctx context.Context, route string, start time.Time, pairs []core.Pair,
	method core.Method, test pairTest, limit int, emit func(i int, relation string)) (evaluation, error) {
	var ev evaluation
	var mu sync.Mutex
	emitted := 0
	accept := func(i int, relation string) {
		mu.Lock()
		defer mu.Unlock()
		if emitted >= limit {
			ev.truncated = true
			return
		}
		emitted++
		emit(i, relation)
	}
	rsp := trace.FromContext(ctx)
	rsp.SetInt("candidates", int64(len(pairs)))
	slowLog := s.slowThr > 0 && s.cfg.SlowDir != ""
	var err error
	ev.stats, err = core.RunSweep(ctx, method, test.Test, pairs, s.cfg.JoinWorkers, slowLog,
		func(i int, r core.Result, holds bool) {
			switch {
			case holds:
				accept(i, test.relation)
			case test.Find() && r.Relation != de9im.Disjoint:
				accept(i, r.Relation.String())
			}
		})
	var pe *core.PanicError
	if errors.As(err, &pe) {
		// Find-mode join dumps are tagged apart from predicate ones.
		tag := route
		if route == "join" && test.Find() {
			tag = "join-find"
		}
		for _, pp := range pe.Pairs {
			s.pairPanic(tag, pairs[pp.Index].R, pairs[pp.Index].S, pp.Value)
		}
		err = errPairPanics(len(pe.Pairs))
	}
	rsp.SetInt("evaluated", int64(ev.stats.Pairs))
	rsp.SetInt("refined", int64(ev.stats.Undetermined))
	// Slow-pair forensics ride the root span even on unsampled traces:
	// a slow request kept root-only still names its worst pair.
	slowIdx, slowDur := ev.stats.SlowPair, ev.stats.SlowPairTime
	if slowDur > 0 && slowIdx >= 0 && slowIdx < len(pairs) {
		p := pairs[slowIdx]
		rsp.SetInt("slow_pair_r", int64(p.R.ID))
		rsp.SetInt("slow_pair_s", int64(p.S.ID))
		rsp.SetInt("slow_pair_ns", int64(slowDur))
		if s.slowThr > 0 && time.Since(start) >= s.slowThr {
			s.dumpSlowPair(route, rsp.TraceID(), p.R, p.S, slowDur)
		}
	}
	return ev, err
}

// errPairPanics is the 500 relate and every join flavour answer with
// when pairs panicked (the panic values stay in the server log and the
// repro dumps).
func errPairPanics(n int) error {
	return errf(http.StatusInternalServerError,
		"evaluation panicked on %d pair(s); repro dumped, see server log", n)
}
