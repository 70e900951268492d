package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/join"
	"repro/internal/mbrrel"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wkt"
)

// span is one recorded interval. Spans of one request share Req; Parent
// is the span whose work this one re-executes a part of (0 for a root).
// The benchmark cannot put spans inside the server, so below "http" the
// tree is a replay tree: a child runs after its parent, not within it,
// and a span's self time is its duration minus its children's durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, req, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.t0))})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = int64(time.Since(r.t0)) }

func (r *recorder) in(name string, req, parent int, f func()) {
	id := r.begin(name, req, parent)
	f()
	r.end(id)
}

// layerSum aggregates the spans of one name.
type layerSum struct {
	n           int
	total, self time.Duration
}

func (r *recorder) sums() map[string]*layerSum {
	children := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.Parent] += time.Duration(s.End - s.Start)
	}
	out := map[string]*layerSum{}
	for _, s := range r.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerSum{}
			out[s.Name] = l
		}
		d := time.Duration(s.End - s.Start)
		l.n++
		l.total += d
		l.self += d - children[s.ID]
	}
	return out
}

// durations returns the durations of the named spans of requests for
// which keep is true.
func (r *recorder) durations(name string, keep func(req int) bool) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && keep(s.Req) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// counts are the work counters taken at the same boundaries as the spans.
type counts struct {
	candidates, deltaCandidates int
	findPairs, ifSettled        int
	predPairs                   int
	refined, refinedVertices    int
	intervals                   int
	sweepOverhead               time.Duration
	built, builtIntervals       int
	builtBytes                  int
	snapshotBytes, snapshotObjs int
}

// replayer re-executes a request's work layer by layer, in handler
// order, through the packages' exported functions.
type replayer struct {
	s   *sut
	rec *recorder
	c   counts
	ctx context.Context

	pairs   []harness.Pair
	refined []int32
	sc      de9im.Scratch
	log     *wal.Log
	snap    string
}

// sinkMatrix keeps the compiler from dropping the refinement replay.
var sinkMatrix de9im.Matrix

func objAt(e *server.Entry, delta bool, id int32) *core.Object {
	if delta {
		return e.Delta.Objects[id]
	}
	return e.Dataset.Objects[id]
}

func (x *replayer) notePairs(refined []int32) {
	for _, p := range x.pairs {
		x.c.intervals += len(p.R.Approx.P) + len(p.R.Approx.C) + len(p.S.Approx.P) + len(p.S.Approx.C)
	}
	for _, i := range refined {
		x.c.refinedVertices += x.pairs[i].R.Poly.NumVertices() + x.pairs[i].S.Poly.NumVertices()
	}
	x.c.refined += len(refined)
}

// refine replays the DE-9IM step of the pairs the filter left undecided.
func (x *replayer) refine(req, parent int) {
	x.rec.in("de9im.refine", req, parent, func() {
		for _, i := range x.refined {
			p := x.pairs[i]
			sinkMatrix = de9im.RelateScratch(p.R.Prepared(), p.S.Prepared(), &x.sc)
		}
	})
	x.notePairs(x.refined)
}

// findRelation replays Algorithm 1 over x.pairs in two contiguous
// passes, so that each layer is one interval with no clock read per
// pair: the filters with a refiner that computes nothing, then the real
// refinement of the pairs the filters could not settle.
func (x *replayer) findRelation(req, parent int) {
	stub := func(_, _ *core.Object) de9im.Matrix { return de9im.Matrix{} }
	x.refined = x.refined[:0]
	x.rec.in("core.filter", req, parent, func() {
		for i, p := range x.pairs {
			if core.FindRelationWith(core.PC, p.R, p.S, stub).Refined {
				x.refined = append(x.refined, int32(i))
			}
		}
	})
	x.refine(req, parent)
	x.c.findPairs += len(x.pairs)
	for _, p := range x.pairs {
		if _, ok := mbrrel.Definite(mbrrel.Classify(p.R.MBR, p.S.MBR)); !ok {
			x.c.ifSettled++
		}
	}
	x.c.ifSettled -= len(x.refined)
}

func (x *replayer) join(req, parent int, o *op) error {
	var jr server.JoinRequest
	if err := json.Unmarshal(o.body, &jr); err != nil {
		return err
	}
	le, _ := x.s.reg.Get(jr.Left)
	re, _ := x.s.reg.Get(jr.Right)
	x.pairs = x.pairs[:0]
	var err error
	x.rec.in("join.candidates", req, parent, func() {
		err = join.JoinViews(x.ctx, le.View(), re.View(), func(ad, bd bool, a, b join.Entry) {
			x.pairs = append(x.pairs, harness.Pair{R: objAt(le, ad, a.ID), S: objAt(re, bd, b.ID)})
		})
	})
	if err != nil {
		return err
	}
	x.c.candidates += len(x.pairs)
	if jr.Predicate == "" {
		// The handler's sweep engine as a whole, then what it spent on
		// the two layers below it.
		sweep := x.rec.begin("harness.sweep", req, parent)
		st, err := harness.RunFindRelationParallelCtx(x.ctx, core.PC, x.pairs, 1, func(int, core.Result) {})
		x.rec.end(sweep)
		if err != nil {
			return err
		}
		x.c.sweepOverhead += st.Elapsed - st.FilterTime - st.RefineTime
		x.findRelation(req, sweep)
		return nil
	}
	// relate_p refines inside RelatePred, so the refinement replay is a
	// child of the filter span and comes off its self time.
	pred, err := relationNamed(jr.Predicate)
	if err != nil {
		return err
	}
	x.refined = x.refined[:0]
	filter := x.rec.begin("core.filter", req, parent)
	for i, p := range x.pairs {
		if core.RelatePred(core.PC, p.R, p.S, pred).Refined {
			x.refined = append(x.refined, int32(i))
		}
	}
	x.rec.end(filter)
	x.refine(req, filter)
	x.c.predPairs += len(x.pairs)
	return nil
}

func (x *replayer) build(req, parent int, poly *geom.Polygon) (*core.Object, error) {
	var obj *core.Object
	var err error
	x.rec.in("april.build", req, parent, func() { obj, err = x.s.reg.Probe(poly) })
	if err == nil {
		p, c := obj.Approx.NumIntervals()
		x.c.built++
		x.c.builtIntervals += p + c
		x.c.builtBytes += obj.Approx.Bytes()
	}
	return obj, err
}

func (x *replayer) parse(req, parent int, text string) (*geom.Polygon, error) {
	var poly *geom.Polygon
	var err error
	x.rec.in("wkt.parse", req, parent, func() { poly, err = wkt.ParsePolygon(text) })
	return poly, err
}

func (x *replayer) relate(req, parent int, o *op) error {
	poly, err := x.parse(req, parent, o.wkt)
	if err != nil {
		return err
	}
	probe, err := x.build(req, parent, poly)
	if err != nil {
		return err
	}
	entry, _ := x.s.reg.Get("OBE")
	x.pairs = x.pairs[:0]
	x.rec.in("join.candidates", req, parent, func() {
		err = entry.View().QueryContext(x.ctx, probe.MBR, func(delta bool, e join.Entry) {
			x.pairs = append(x.pairs, harness.Pair{R: probe, S: objAt(entry, delta, e.ID)})
			if delta {
				x.c.deltaCandidates++
			}
		})
	})
	if err != nil {
		return err
	}
	x.c.candidates += len(x.pairs)
	x.findRelation(req, parent)
	return nil
}

// appendWAL replays the durable append of one mutation on a log of the
// benchmark's own, next to the server's.
func (x *replayer) appendWAL(req, parent int, kind server.MutKind, id int, poly *geom.Polygon) error {
	var err error
	x.rec.in("wal.append", req, parent, func() {
		r := wal.Record{Kind: byte(kind), ID: id, LSN: x.log.NextLSN()}
		if poly != nil {
			r.Geom = store.EncodePolygon(poly)
		}
		err = x.log.Append([]wal.Record{r})
	})
	return err
}

func (x *replayer) insert(req, parent int, o *op) error {
	poly, err := x.parse(req, parent, o.wkt)
	if err != nil {
		return err
	}
	m := x.rec.begin("server.mutate", req, parent)
	res, err := x.s.reg.Mutate("OBE", server.MutInsert, -1, poly)
	x.rec.end(m)
	if err != nil || res.ID != o.id {
		return fmt.Errorf("engine insert: id %d, want %d: %v", res.ID, o.id, err)
	}
	x.rec.in("geom.validate", req, m, func() { err = geom.ValidatePolygon(poly) })
	if err != nil {
		return err
	}
	if _, err := x.build(req, m, poly); err != nil {
		return err
	}
	return x.appendWAL(req, m, server.MutInsert, res.ID, poly)
}

func (x *replayer) delete(req, parent int, o *op) error {
	m := x.rec.begin("server.delete", req, parent)
	_, err := x.s.reg.Mutate("OBE", server.MutDelete, o.id, nil)
	x.rec.end(m)
	if err != nil {
		return err
	}
	return x.appendWAL(req, m, server.MutDelete, o.id, nil)
}

func (x *replayer) compact(req, parent int) error {
	c := x.rec.begin("server.compact", req, parent)
	st, err := x.s.reg.Compact("OBE")
	x.rec.end(c)
	if err != nil || st.Compacted == 0 {
		return fmt.Errorf("engine compact folded %d ops: %v", st.Compacted, err)
	}
	entry, _ := x.s.reg.Get("OBE")
	grid := x.s.reg.Builder().Grid()
	x.rec.in("snapshot.write", req, c, func() {
		err = snapshot.WriteEpoch(x.snap, entry.Dataset, grid.Space(), grid.Order(),
			snapshot.EpochMeta{Epoch: entry.Epoch, NextID: entry.NextID, Tombs: entry.Tombs})
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(x.snap)
	if err != nil {
		return err
	}
	x.c.snapshotBytes += int(fi.Size())
	x.c.snapshotObjs += len(entry.Dataset.Objects)
	return nil
}

// replay runs the layers of one op, then the encoding of the response
// the handler pass produced for it.
func (x *replayer) replay(req, parent int, o *op, handlerBody []byte) error {
	var err error
	var resp any
	switch o.kind {
	case opJoin:
		resp, err = new(server.JoinResponse), x.join(req, parent, o)
	case opRelate:
		resp, err = new(server.RelateResponse), x.relate(req, parent, o)
	case opInsert:
		resp, err = new(server.IngestResponse), x.insert(req, parent, o)
	case opDelete:
		resp, err = new(server.IngestResponse), x.delete(req, parent, o)
	case opCompact:
		resp, err = new(server.CompactResponse), x.compact(req, parent)
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(handlerBody, resp); err != nil {
		return err
	}
	x.rec.in("server.encode", req, parent, func() { _, err = json.Marshal(resp) })
	return err
}

// layerMetrics names every per-layer metric with its unit; a workload
// that does not exercise a layer reports 0 for it.
var layerMetrics = [][2]string{
	{"trace_overhead_ratio", "ratio"},
	{"server.handler_p50_ms", "ms"}, {"server.http_overhead_ms", "ms"}, {"server.encode_ms", "ms"},
	{"server.other_ms", "ms"}, {"server.unattributed_ratio", "ratio"}, {"server.read_p99_ms", "ms"},
	{"server.write_p50_ms", "ms"}, {"server.alloc_kb_per_op", "KB"}, {"server.batch_size_mean", "count"},
	{"server.mutate_us", "us"}, {"server.delete_us", "us"}, {"server.compact_ms", "ms"},
	{"server.build_s.TL", "s"}, {"server.build_s.TC", "s"}, {"server.build_s.OLE", "s"},
	{"server.build_s.OPE", "s"}, {"server.build_s.OBE", "s"},
	{"wkt.parse_us", "us"},
	{"join.candidates_ms", "ms"}, {"join.candidates_per_op", "count"}, {"join.delta_share", "ratio"},
	{"core.filter_ns_per_pair", "ns"}, {"core.if_settled_ratio", "ratio"}, {"core.refined_ratio", "ratio"},
	{"core.relatep_ns_per_pair", "ns"}, {"core.relatep_refined_ratio", "ratio"},
	{"interval.intervals_per_pair", "count"},
	{"de9im.refine_us_per_refined_pair", "us"}, {"de9im.vertices_per_refined_pair", "count"},
	{"harness.sweep_overhead_ns_per_pair", "ns"},
	{"geom.validate_us_per_object", "us"},
	{"april.build_us_per_object", "us"}, {"april.intervals_per_object", "count"}, {"april.bytes_per_object", "B"},
	{"wal.append_us_per_record", "us"}, {"wal.bytes_per_record", "B"}, {"wal.fsyncs_per_write", "ratio"},
	{"snapshot.write_ms", "ms"}, {"snapshot.bytes_per_object", "B"}, {"snapshot.warm_start_ms", "ms"},
}

func fsyncs(s *sut) int64 {
	for _, h := range s.met.Snapshot().Histograms {
		if h.Name == "wal_fsync_seconds" {
			return h.Hist.Count
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// passes is what the three traced passes leave for the metrics.
type passes struct {
	rec        *recorder
	c          counts
	isRead     []bool // by request id
	relates    tally  // of the socket pass: relate responses and their batch sizes
	nRelates   int
	writes     int    // inserts and deletes of one pass
	walBytes   int64  // what those writes added to the server's log
	fsyncs     int64  // how often the server's log was synced for them
	allocBytes uint64 // allocated while the handler pass ran
}

// runPasses sends one round of ops three times — over the socket,
// straight into the handler, then layer by layer — each pass a round of
// its own from next. Wrong answers are counted on base.
func runPasses(s *sut, next func() round, g *loadgen, base *measured) (*passes, error) {
	rec := &recorder{t0: time.Now(), spans: make([]span, 0, 4096)}
	x := &replayer{s: s, rec: rec, ctx: context.Background(), snap: filepath.Join(s.dir, "bench.snap")}
	var err error
	if x.log, _, err = wal.Open(filepath.Join(s.dir, "benchwal"), "bench", wal.Options{}); err != nil {
		return nil, err
	}
	defer x.log.Close()
	fail := func(pass string, i int, err error) {
		if base.Failed++; base.FirstError == "" {
			base.FirstError = fmt.Sprintf("%s pass op %d: %v", pass, i, err)
		}
	}

	// Pass 1: the real request. The root span adds the client's own
	// validation to the round trip.
	rd := next()
	p := &passes{rec: rec, isRead: make([]bool, len(rd.ops))}
	httpIDs := make([]int, len(rd.ops))
	fsync0, wal0 := fsyncs(s), s.reg.WalPendingBytes()
	g.buf.Reset()
	for i := range rd.ops {
		o := &rd.ops[i]
		p.isRead[i] = o.kind.read()
		switch o.kind {
		case opInsert, opDelete:
			p.writes++
		case opCompact: // prunes the log: take its size first
			p.walBytes = s.reg.WalPendingBytes() - wal0
		}
		root := rec.begin("request", i, 0)
		httpIDs[i] = rec.begin("http", i, root)
		smp, err := g.do(o)
		rec.end(httpIDs[i])
		if err != nil {
			return nil, err
		}
		t, cerr := rd.check(i, smp.status, g.body(smp))
		rec.end(root)
		base.Attempted++
		if cerr != nil {
			fail("http", i, cerr)
		} else if o.kind == opRelate {
			p.relates.add(t)
			p.nRelates++
		}
	}
	p.fsyncs = fsyncs(s) - fsync0

	// Pass 2: the same ops into the handler, no socket.
	rd = next()
	h := s.srv.Handler()
	handlerIDs := make([]int, len(rd.ops))
	rrs := make([]*httptest.ResponseRecorder, len(rd.ops))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range rd.ops {
		o := &rd.ops[i]
		req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
		rrs[i] = httptest.NewRecorder()
		handlerIDs[i] = rec.begin("server.handler", i, httpIDs[i])
		h.ServeHTTP(rrs[i], req)
		rec.end(handlerIDs[i])
	}
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for i := range rd.ops {
		base.Attempted++
		if _, err := rd.check(i, rrs[i].Code, rrs[i].Body.Bytes()); err != nil {
			fail("handler", i, err)
		}
	}

	// Pass 3: the handler's work, layer by layer.
	rd = next()
	for i := range rd.ops {
		if err := x.replay(i, handlerIDs[i], &rd.ops[i], rrs[i].Body.Bytes()); err != nil {
			return nil, fmt.Errorf("layer replay of op %d: %w", i, err)
		}
	}
	p.c = x.c
	return p, nil
}

// traced runs the passes, writes the spans out and derives the per-layer
// metrics. base is the untraced baseline of the same process.
func traced(e *env, s *sut, w workload, next func() round, g *loadgen, base *measured) (map[string]metric, error) {
	p, err := runPasses(s, next, g, base)
	if err != nil {
		return nil, err
	}
	warmStart := 0.0
	if p.writes > 0 {
		if warmStart, err = warmStartMS(e, s); err != nil {
			return nil, err
		}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{w.name, p.rec.spans})
	if err != nil {
		return nil, err
	}
	if err := writeJSONFile(filepath.Join(e.opt.Out, "trace-"+w.name+".json"), data); err != nil {
		return nil, err
	}

	sums := p.rec.sums()
	v := p.values(sums, base)
	v["snapshot.warm_start_ms"] = warmStart
	for _, name := range corpus {
		if entry, ok := s.reg.Get(name); ok {
			v["server.build_s."+name] = entry.BuildTime.Seconds()
		}
	}
	metrics := make(map[string]metric, len(layerMetrics))
	for _, nu := range layerMetrics {
		metrics[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	fmt.Fprint(os.Stderr, attribution(w.name, sums))
	return metrics, nil
}

// values derives the per-layer numbers from the spans and the counts.
func (p *passes) values(sums map[string]*layerSum, base *measured) map[string]float64 {
	get := func(name string) layerSum {
		if l := sums[name]; l != nil {
			return *l
		}
		return layerSum{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ns := func(d time.Duration) float64 { return float64(d) }
	per := func(d time.Duration, n int, unit func(time.Duration) float64) float64 {
		return ratio(unit(d), float64(n))
	}
	mean := func(name string, unit func(time.Duration) float64) float64 {
		return per(get(name).total, get(name).n, unit)
	}
	reads := func(req int) bool { return p.isRead[req] }
	c, nOps := p.c, len(p.isRead)
	handler := get("server.handler")
	handlerP50 := percentileMS(p.rec.durations("server.handler", reads), 0.5)
	baseReads := base.allReads()
	baseP50 := percentileMS(baseReads, 0.5)
	pairs := c.findPairs + c.predPairs
	v := map[string]float64{
		"trace_overhead_ratio":               ratio(percentileMS(p.rec.durations("http", reads), 0.5), baseP50),
		"server.handler_p50_ms":              handlerP50,
		"server.http_overhead_ms":            baseP50 - handlerP50,
		"server.encode_ms":                   per(get("server.encode").total, nOps, ms),
		"server.other_ms":                    per(handler.self, nOps, ms),
		"server.unattributed_ratio":          ratio(float64(handler.self), float64(handler.total)),
		"server.read_p99_ms":                 percentileMS(baseReads, 0.99),
		"server.write_p50_ms":                percentileMS(base.writes, 0.5),
		"server.alloc_kb_per_op":             ratio(float64(p.allocBytes)/1024, float64(nOps)),
		"server.batch_size_mean":             ratio(float64(p.relates.batch), float64(p.nRelates)),
		"server.mutate_us":                   mean("server.mutate", us),
		"server.delete_us":                   mean("server.delete", us),
		"server.compact_ms":                  mean("server.compact", ms),
		"wkt.parse_us":                       mean("wkt.parse", us),
		"join.candidates_ms":                 mean("join.candidates", ms),
		"join.candidates_per_op":             ratio(float64(c.candidates), float64(get("join.candidates").n)),
		"join.delta_share":                   ratio(float64(c.deltaCandidates), float64(c.candidates)),
		"core.if_settled_ratio":              ratio(float64(c.ifSettled), float64(c.findPairs)),
		"interval.intervals_per_pair":        ratio(float64(c.intervals), float64(pairs)),
		"de9im.refine_us_per_refined_pair":   per(get("de9im.refine").total, c.refined, us),
		"de9im.vertices_per_refined_pair":    ratio(float64(c.refinedVertices), float64(c.refined)),
		"harness.sweep_overhead_ns_per_pair": per(c.sweepOverhead, c.findPairs, ns),
		"geom.validate_us_per_object":        mean("geom.validate", us),
		"april.build_us_per_object":          mean("april.build", us),
		"april.intervals_per_object":         ratio(float64(c.builtIntervals), float64(c.built)),
		"april.bytes_per_object":             ratio(float64(c.builtBytes), float64(c.built)),
		"wal.append_us_per_record":           mean("wal.append", us),
		"wal.bytes_per_record":               ratio(float64(p.walBytes), float64(p.writes)),
		"wal.fsyncs_per_write":               ratio(float64(p.fsyncs), float64(p.writes)),
		"snapshot.write_ms":                  mean("snapshot.write", ms),
		"snapshot.bytes_per_object":          ratio(float64(c.snapshotBytes), float64(c.snapshotObjs)),
	}
	// A workload runs either find-relation or relate_p, never both.
	filter := get("core.filter").self
	if c.predPairs > 0 {
		v["core.relatep_ns_per_pair"] = per(filter, c.predPairs, ns)
		v["core.relatep_refined_ratio"] = ratio(float64(c.refined), float64(c.predPairs))
	} else {
		v["core.filter_ns_per_pair"] = per(filter, c.findPairs, ns)
		v["core.refined_ratio"] = ratio(float64(c.refined), float64(c.findPairs))
	}
	return v
}

// attribution prints where the handler's time went: each layer's self
// time as a share of the summed handler time.
func attribution(name string, sums map[string]*layerSum) string {
	var b bytes.Buffer
	handler := sums["server.handler"].total
	fmt.Fprintf(&b, "%s: layer self time over %d traced ops (handler total %.1f ms)\n",
		name, sums["server.handler"].n, float64(handler)/1e6)
	names := make([]string, 0, len(sums))
	for k := range sums {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return sums[names[i]].self > sums[names[j]].self })
	for _, k := range names {
		l := sums[k]
		label := k
		if k == "server.handler" {
			label = "server.other (residual)"
		}
		if k == "request" || k == "http" {
			continue
		}
		fmt.Fprintf(&b, "  %-26s n=%-5d self %9.2f ms  %6.2f%% of handler\n",
			label, l.n, float64(l.self)/1e6, 100*ratio(float64(l.self), float64(handler)))
	}
	return b.String()
}

// warmStartMS times a fresh registry coming up from the files the
// workload left: snapshot load plus WAL replay, no rasterisation.
func warmStartMS(e *env, s *sut) (float64, error) {
	entry, _ := s.reg.Get("OBE")
	want := entry.Live()
	s.reg.CloseWAL()
	reg := server.NewRegistry(e.suite.Space, e.opt.Order)
	if err := reg.EnableSnapshots(filepath.Join(s.dir, "snap")); err != nil {
		return 0, err
	}
	if err := reg.EnableWAL(server.WALOptions{Dir: filepath.Join(s.dir, "wal")}); err != nil {
		return 0, err
	}
	defer reg.CloseWAL()
	t0 := time.Now()
	warm, err := reg.Register("OBE", datagen.EntityTypes["OBE"], e.suite.Sets["OBE"])
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if warm.Epoch == 0 || warm.Live() != want {
		return 0, fmt.Errorf("warm start came up at epoch %d with %d objects, want %d from a snapshot", warm.Epoch, warm.Live(), want)
	}
	return float64(d) / float64(time.Millisecond), nil
}
