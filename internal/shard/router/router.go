// Package router is the scatter-gather front-end of the sharded
// serving tier: it owns the shard.Plan, fans every query out to the
// shards whose key ranges the query can touch, and merges the partial
// answers into one response that is an exact multiset match with what a
// single server holding the full datasets would return.
//
// Exactness needs no router-side deduplication: shards replicate
// boundary-straddling objects but evaluate only the candidate pairs
// they own under the PBSM reference-point rule (the shard whose key
// range contains the Hilbert cell of the MBR-intersection's min corner
// answers the pair), so every pair is counted by exactly one shard and
// the per-shard counters — candidates, evaluated, refined, holds, the
// relation tallies — sum to the single-node values.
//
// Failure handling is per replica, then per shard: each shard has N
// replica hosts tried in rotation (round-robin start, per-host circuit
// breakers shared through one resilient client), and only when every
// replica of a shard is unreachable does the router degrade the answer
// — the response is flagged Partial with the missing shard indexes,
// never an error. Request-level errors (bad geometry, unknown dataset)
// propagate verbatim from the first shard that reports one.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Config tunes a Router; zero values select the documented defaults.
type Config struct {
	// Plan is the fleet's partitioning plan; required. Every shard-mode
	// server must have been started with an Assignment from the same
	// plan (same space, route order and shard count).
	Plan *shard.Plan
	// Shards lists the replica base URLs per shard index; must have
	// exactly Plan.NumShards() entries with at least one replica each.
	Shards [][]string
	// Retry overrides the scatter client's retry policy. The default
	// keeps failover snappy: 2 attempts per replica, 25ms base backoff,
	// breaker threshold 3 with a 5s cooldown.
	Retry *server.RetryPolicy
	// HTTPClient overrides the transport (tests inject httptest).
	HTTPClient *http.Client
	// DefaultTimeout / MaxTimeout bound per-query deadlines as in
	// server.Config (defaults 10s / 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultLimit / MaxLimit clamp result sizes (defaults 1000 / 100000).
	DefaultLimit int
	MaxLimit     int
	// Metrics receives the router metric families; a private registry is
	// created when nil.
	Metrics *obs.Registry
	// Tracer, when non-nil, gives every routed request a root span with
	// one child span per shard RPC; the trace id rides the X-Stj-Trace
	// header so shard-side span trees adopt it.
	Tracer *trace.Tracer
	// Logf receives router log lines; the default discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Retry == nil {
		c.Retry = &server.RetryPolicy{
			MaxAttempts:      2,
			BaseDelay:        25 * time.Millisecond,
			MaxDelay:         250 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  5 * time.Second,
		}
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
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

// backend is one shard's replica set. Calls rotate through the replicas
// (round-robin start index) and fail over to the next replica on any
// temporary error; per-host circuit breakers make a dead replica cost
// one fast ErrCircuitOpen instead of a connect timeout on every query.
type backend struct {
	index    int
	replicas []*server.Client
	next     atomic.Uint64
}

// call runs fn against the shard's replicas until one succeeds or all
// have failed with a temporary error. A non-temporary error (the
// request's own fault: 400, 404) aborts immediately — every replica
// would answer it identically. failedOver reports whether the answer
// needed more than the first replica tried.
func (b *backend) call(ctx context.Context, fn func(c *server.Client) error) (failedOver bool, err error) {
	start := int(b.next.Add(1)-1) % len(b.replicas)
	var lastErr error
	for i := 0; i < len(b.replicas); i++ {
		c := b.replicas[(start+i)%len(b.replicas)]
		err := fn(c)
		if err == nil {
			return i > 0, nil
		}
		if ctx.Err() != nil || !shardUnreachable(err) {
			return i > 0, err
		}
		lastErr = err
	}
	return true, lastErr
}

// shardUnreachable reports whether err means "this replica cannot
// answer right now" (fail over / degrade) as opposed to "this request
// is broken" (propagate).
func shardUnreachable(err error) bool {
	return errors.Is(err, server.ErrCircuitOpen) || server.IsTemporary(err)
}

// Router is the scatter-gather HTTP front-end. Create with New, serve
// Handler().
type Router struct {
	cfg    Config
	plan   *shard.Plan
	shards []*backend
	mux    *http.ServeMux
	met    *obs.Registry
	tracer *trace.Tracer
	logf   func(format string, args ...any)

	draining atomic.Bool
	wg       sync.WaitGroup

	fanout *obs.Histogram
}

// New validates the shard map against the plan and builds the router.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("router: config needs a shard plan")
	}
	if len(cfg.Shards) != cfg.Plan.NumShards() {
		return nil, fmt.Errorf("router: plan has %d shards, config lists %d",
			cfg.Plan.NumShards(), len(cfg.Shards))
	}
	base := server.NewResilientClient("")
	base.Retry = cfg.Retry
	if cfg.HTTPClient != nil {
		base.HTTPClient = cfg.HTTPClient
	}
	rt := &Router{
		cfg:    cfg,
		plan:   cfg.Plan,
		mux:    http.NewServeMux(),
		met:    cfg.Metrics,
		tracer: cfg.Tracer,
		logf:   cfg.Logf,
		fanout: cfg.Metrics.Histogram("router_scatter_fanout",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}),
	}
	for i, urls := range cfg.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
		b := &backend{index: i}
		for _, u := range urls {
			b.replicas = append(b.replicas, base.At(u))
		}
		rt.shards = append(rt.shards, b)
	}
	rt.mux.HandleFunc("POST /v1/relate", rt.route("relate", rt.handleRelate))
	rt.mux.HandleFunc("POST /v1/join", rt.route("join", rt.handleJoin))
	rt.mux.HandleFunc("GET /v1/healthz", rt.route("healthz", rt.handleHealthz))
	rt.mux.HandleFunc("GET /v1/datasets", rt.route("datasets", rt.handleDatasets))
	rt.mux.HandleFunc("GET /v1/metricz", rt.route("metricz", rt.handleMetricz))
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics exposes the router's metrics registry.
func (rt *Router) Metrics() *obs.Registry { return rt.met }

// Plan exposes the partitioning plan the router scatters with.
func (rt *Router) Plan() *shard.Plan { return rt.plan }

// Shutdown starts draining: new requests get 503, and the call blocks
// until in-flight requests finish or ctx expires.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	done := make(chan struct{})
	go func() { rt.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

type handlerFunc func(ctx context.Context, r *http.Request) (any, error)

// route wraps an endpoint with the router middleware: drain check,
// panic barrier, per-route counters and latency, a trace root span
// (adopting an upstream id when one rides in — routers stack).
func (rt *Router) route(name string, h handlerFunc) http.HandlerFunc {
	lat := rt.met.Histogram(obs.Name("router_request_seconds", "route", name), obs.DurationBuckets)
	codeCtr := func(code int) *obs.Counter {
		return rt.met.Counter(obs.Name("router_requests_total", "route", name, "code", fmt.Sprint(code)))
	}
	return func(w http.ResponseWriter, r *http.Request) {
		span := obs.StartSpan(lat)
		var tctx context.Context
		var rsp *trace.Span
		if pid, ok := trace.ParseID(r.Header.Get(server.TraceHeader)); ok {
			tctx, rsp = rt.tracer.StartRemote(r.Context(), "router."+name, pid)
		} else {
			tctx, rsp = rt.tracer.Start(r.Context(), "router."+name)
		}
		finish := func(code int) {
			codeCtr(code).Inc()
			rsp.SetInt("http_status", int64(code))
			span.End()
			rsp.End()
		}
		wrote := false
		defer func() {
			if rv := recover(); rv != nil {
				rt.logf("router: handler %s panicked: %v", name, rv)
				rt.met.Counter("router_handler_panics_total").Inc()
				if !wrote {
					writeError(w, http.StatusInternalServerError, "internal error")
					finish(http.StatusInternalServerError)
				} else {
					finish(http.StatusOK)
				}
			}
		}()
		if rt.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "router is shutting down")
			finish(http.StatusServiceUnavailable)
			return
		}
		rt.wg.Add(1)
		defer rt.wg.Done()

		payload, err := h(tctx, r)
		code := http.StatusOK
		wrote = true
		if err != nil {
			code = errorCode(err)
			writeError(w, code, err.Error())
		} else {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(payload)
		}
		finish(code)
	}
}

// httpError mirrors the server's handler error convention.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errorCode maps a handler error to a status: router-local errors carry
// their code, shard-side APIErrors pass their status through, context
// expiry is a gateway timeout.
func errorCode(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.code
	}
	var api *server.APIError
	if errors.As(err, &api) {
		return api.StatusCode
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusBadGateway
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
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

func (rt *Router) requestCtx(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := rt.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > rt.cfg.MaxTimeout {
			d = rt.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(ctx, d)
}

func (rt *Router) clampLimit(limit int) int {
	if limit <= 0 {
		return rt.cfg.DefaultLimit
	}
	if limit > rt.cfg.MaxLimit {
		return rt.cfg.MaxLimit
	}
	return limit
}

// scatterResult is one shard's contribution to a gathered answer.
type scatterResult[T any] struct {
	shard int
	resp  T
	err   error
}

// scatter fans fn out to the given backends concurrently, one child
// span per shard RPC, and gathers every result. Outcome accounting
// lands in router_shard_requests_total{shard,outcome}.
func scatter[T any](ctx context.Context, rt *Router, backends []*backend,
	fn func(ctx context.Context, c *server.Client) (T, error)) []scatterResult[T] {
	rt.fanout.Observe(float64(len(backends)))
	results := make([]scatterResult[T], len(backends))
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			sctx, sp := trace.StartChild(ctx, "shard."+strconv.Itoa(b.index))
			var resp T
			failedOver, err := b.call(ctx, func(c *server.Client) error {
				var cerr error
				resp, cerr = fn(sctx, c)
				return cerr
			})
			sp.End()
			outcome := "ok"
			switch {
			case err != nil && shardUnreachable(err):
				outcome = "dead"
			case failedOver:
				outcome = "failover"
			}
			rt.met.Counter(obs.Name("router_shard_requests_total",
				"shard", strconv.Itoa(b.index), "outcome", outcome)).Inc()
			results[i] = scatterResult[T]{shard: b.index, resp: resp, err: err}
		}(i, b)
	}
	wg.Wait()
	return results
}

// splitErrors partitions scatter results into live responses, shards to
// degrade over (every replica unreachable), and the first propagatable
// request error. ctx expiry turns unreachable verdicts into the real
// cause — a timed-out caller should see 504, not a partial answer.
func splitErrors[T any](ctx context.Context, results []scatterResult[T]) (live []scatterResult[T], missing []int, err error) {
	for _, res := range results {
		switch {
		case res.err == nil:
			live = append(live, res)
		case shardUnreachable(res.err) && ctx.Err() == nil:
			missing = append(missing, res.shard)
		default:
			if err == nil {
				if ctx.Err() != nil {
					err = ctx.Err()
				} else {
					err = res.err
				}
			}
		}
	}
	sort.Ints(missing)
	return live, missing, err
}

func (rt *Router) notePartial(route string, missing []int) {
	if len(missing) == 0 {
		return
	}
	rt.met.Counter(obs.Name("router_partial_responses_total", "route", route)).Inc()
	rt.logf("router: %s answered partially, shards %v unreachable", route, missing)
}

func (rt *Router) handleJoin(ctx context.Context, r *http.Request) (any, error) {
	var req server.JoinRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	limit := rt.clampLimit(req.Limit)
	req.Limit = limit
	rctx, cancel := rt.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	start := time.Now()

	// A join touches every shard: each one owns some slice of the
	// candidate-pair keyspace regardless of where the probe sits.
	results := scatter(rctx, rt, rt.shards,
		func(ctx context.Context, c *server.Client) (*server.JoinResponse, error) {
			return c.Join(ctx, req)
		})
	live, missing, err := splitErrors(rctx, results)
	if err != nil {
		return nil, err
	}
	if len(live) == 0 {
		return nil, errf(http.StatusServiceUnavailable, "no shard reachable")
	}

	out := server.JoinResponse{Left: req.Left, Right: req.Right}
	for _, res := range live {
		sr := res.resp
		out.Candidates += sr.Candidates
		out.Evaluated += sr.Evaluated
		out.Refined += sr.Refined
		out.Holds += sr.Holds
		out.Truncated = out.Truncated || sr.Truncated
		for rel, n := range sr.Relations {
			if out.Relations == nil {
				out.Relations = make(map[string]int)
			}
			out.Relations[rel] += n
		}
		out.Pairs = append(out.Pairs, sr.Pairs...)
	}
	// Deterministic merge order: shards finish in any order, and pair
	// order inside a shard is sweep order — sort so equal fleets give
	// byte-equal responses.
	sort.Slice(out.Pairs, func(i, j int) bool {
		if out.Pairs[i].LeftID != out.Pairs[j].LeftID {
			return out.Pairs[i].LeftID < out.Pairs[j].LeftID
		}
		return out.Pairs[i].RightID < out.Pairs[j].RightID
	})
	if len(out.Pairs) > limit {
		out.Pairs = out.Pairs[:limit]
		out.Truncated = true
	}
	out.Partial = len(missing) > 0
	out.MissingShards = missing
	rt.notePartial("join", missing)
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, nil
}

func (rt *Router) handleRelate(ctx context.Context, r *http.Request) (any, error) {
	var req server.RelateRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	poly, err := req.Geometry()
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	limit := rt.clampLimit(req.Limit)
	req.Limit = limit
	rctx, cancel := rt.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	start := time.Now()

	// A relate probe only concerns the shards whose key ranges its MBR
	// can touch — usually one, a few when it straddles a boundary.
	var targets []*backend
	for _, idx := range rt.plan.ShardsFor(poly.Bounds()) {
		targets = append(targets, rt.shards[idx])
	}
	if len(targets) == 0 {
		// Probe outside the data space: nothing can intersect it.
		return server.RelateResponse{Dataset: req.Dataset, Matches: []server.RelateMatch{},
			BatchSize: 1, ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond)}, nil
	}
	results := scatter(rctx, rt, targets,
		func(ctx context.Context, c *server.Client) (*server.RelateResponse, error) {
			return c.Relate(ctx, req)
		})
	live, missing, err := splitErrors(rctx, results)
	if err != nil {
		return nil, err
	}
	if len(live) == 0 {
		return nil, errf(http.StatusServiceUnavailable, "no shard reachable")
	}

	out := server.RelateResponse{Dataset: req.Dataset, Matches: []server.RelateMatch{}, BatchSize: 1}
	for _, res := range live {
		sr := res.resp
		out.Candidates += sr.Candidates
		out.Evaluated += sr.Evaluated
		out.Refined += sr.Refined
		out.Truncated = out.Truncated || sr.Truncated
		out.Matches = append(out.Matches, sr.Matches...)
	}
	sort.Slice(out.Matches, func(i, j int) bool { return out.Matches[i].ID < out.Matches[j].ID })
	if len(out.Matches) > limit {
		out.Matches = out.Matches[:limit]
		out.Truncated = true
	}
	out.Partial = len(missing) > 0
	out.MissingShards = missing
	rt.notePartial("relate", missing)
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, nil
}

// handleHealthz probes every replica of every shard and aggregates:
// the router is "ok" only when every shard has its full replica set
// alive and healthy, "degraded" otherwise — a router never reports
// hard failure while at least it is up.
func (rt *Router) handleHealthz(ctx context.Context, r *http.Request) (any, error) {
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	shards := make([]server.ShardHealth, len(rt.shards))
	var wg sync.WaitGroup
	for i, b := range rt.shards {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			sh := server.ShardHealth{
				Index:    b.index,
				KeyRange: rt.plan.Ranges()[b.index].String(),
				Replicas: len(b.replicas),
			}
			degradedData := false
			var lastErr error
			for _, c := range b.replicas {
				h, err := c.Health(hctx)
				if err != nil {
					lastErr = err
					continue
				}
				sh.Alive++
				if sh.Alive == 1 {
					sh.Datasets = h.Datasets
				}
				if h.Status != "ok" {
					degradedData = true
				}
			}
			switch {
			case sh.Alive == 0:
				sh.Status = "dead"
				if lastErr != nil {
					sh.Error = lastErr.Error()
				}
			case sh.Alive < sh.Replicas || degradedData:
				sh.Status = "degraded"
			default:
				sh.Status = "ok"
			}
			shards[i] = sh
		}(i, b)
	}
	wg.Wait()
	status := "ok"
	datasets := 0
	for _, sh := range shards {
		if sh.Status != "ok" {
			status = "degraded"
		}
		if sh.Datasets > datasets {
			datasets = sh.Datasets
		}
	}
	if rt.draining.Load() {
		status = "draining"
	}
	return server.HealthResponse{
		Status:   status,
		Build:    BuildInfo(),
		Datasets: datasets,
		Shards:   shards,
	}, nil
}

// BuildInfo is the router's build identity; grid order is not known to
// the router (shards own the approximation grid), so it stays zero.
func BuildInfo() server.BuildInfo {
	return server.BuildInfo{Version: buildinfo.Version, Go: buildinfo.GoVersion()}
}

// handleDatasets merges the shards' dataset listings by name. Object
// and vertex counts are the sums of per-shard holdings: replicated
// boundary objects are counted once per holding shard, so sharded
// totals can exceed the single-node count — the listing describes the
// fleet's footprint, not the logical dataset size.
func (rt *Router) handleDatasets(ctx context.Context, r *http.Request) (any, error) {
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	results := scatter(dctx, rt, rt.shards,
		func(ctx context.Context, c *server.Client) ([]server.DatasetInfo, error) {
			return c.Datasets(ctx)
		})
	live, _, err := splitErrors(dctx, results)
	if err != nil {
		return nil, err
	}
	merged := make(map[string]*server.DatasetInfo)
	for _, res := range live {
		for _, di := range res.resp {
			m, ok := merged[di.Name]
			if !ok {
				c := di
				merged[di.Name] = &c
				continue
			}
			m.Objects += di.Objects
			m.Vertices += di.Vertices
			m.ApproxBytes += di.ApproxBytes
			m.BuildMS += di.BuildMS
			if di.Status != "ok" {
				m.Status = di.Status
			}
		}
	}
	out := make([]server.DatasetInfo, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (rt *Router) handleMetricz(ctx context.Context, r *http.Request) (any, error) {
	return rt.met.Snapshot(), nil
}
