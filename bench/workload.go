package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/server"
	"repro/internal/wkt"
)

type opKind uint8

const (
	opJoin opKind = iota
	opRelate
	opInsert
	opDelete
	opCompact
)

func (k opKind) read() bool { return k == opJoin || k == opRelate }

// op is one request. wkt and id repeat what body and path carry, for the
// layer replay of the traced run.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	wkt    string
	id     int
}

// tally is what one validated response adds to the round's totals; the
// totals of all measured rounds are the run's fingerprint. batch is the
// size of the micro-batch a relate probe rode in.
type tally struct{ candidates, evaluated, refined, results, batch int }

func (t *tally) add(o tally) {
	t.candidates += o.candidates
	t.evaluated += o.evaluated
	t.refined += o.refined
	t.results += o.results
	t.batch += o.batch
}

// round is one closed-loop pass over a workload's ops. check validates
// response i against the answer computed in-process; it runs after the
// round, off the clock.
type round struct {
	ops   []op
	check func(i int, status int, body []byte) (tally, error)
}

// workload is one traffic mix. ops is what plan is given for a measured
// round at scale 0.5, sized so that the round takes about half a second
// on the 2-core reference box; traced is what it is given for the traced
// passes, sized to 200 requests.
type workload struct {
	name   string
	ops    int
	traced int
	plan   func(e *env, s *sut, seed int64, ops int) (func() round, error)
}

var workloads = []workload{
	{"join_filter", 350, 200, joinPlan("TL", "TC", "")},
	{"join_refine", 50, 100, joinPlan("OLE", "OPE", "")},
	{"join_pred", 160, 200, joinPlan("OBE", "OPE", "inside")},
	{"relate_probe", 300, 200, relatePlan},
	{"ingest_mixed", 200, 66, ingestPlan}, // 3 × 66 + 1 requests
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- joins ----

// joinWant is a join's answer from the filter-free pipeline: ST2 refines
// every candidate of join.Pairs and reads no approximation.
type joinWant struct {
	candidates int
	relations  map[string]int
	holds      int
	pairs      map[[2]int]string
}

// relationNamed is the relation a request's predicate names.
func relationNamed(name string) (de9im.Relation, error) {
	for rel := de9im.Relation(0); int(rel) < de9im.NumRelations; rel++ {
		if rel.String() == name {
			return rel, nil
		}
	}
	return 0, fmt.Errorf("unknown predicate %q", name)
}

func expectJoin(left, right *server.Entry, pred string) (joinWant, error) {
	w := joinWant{relations: map[string]int{}, pairs: map[[2]int]string{}}
	var rel de9im.Relation
	if pred != "" {
		var err error
		if rel, err = relationNamed(pred); err != nil {
			return w, err
		}
	}
	L, R := left.Dataset.Objects, right.Dataset.Objects
	for _, ij := range join.Pairs(left.Dataset.MBRs(), right.Dataset.MBRs()) {
		r, s := L[ij[0]], R[ij[1]]
		w.candidates++
		if pred != "" {
			if core.RelatePred(core.ST2, r, s, rel).Holds {
				w.holds++
				w.pairs[[2]int{r.ID, s.ID}] = pred
			}
			continue
		}
		got := core.FindRelation(core.ST2, r, s).Relation
		w.relations[got.String()]++
		if got != de9im.Disjoint {
			w.pairs[[2]int{r.ID, s.ID}] = got.String()
		}
	}
	return w, nil
}

func (w joinWant) check(status int, body []byte, pred string) (tally, error) {
	var resp server.JoinResponse
	if err := decode2xx(status, body, &resp); err != nil {
		return tally{}, err
	}
	t := tally{resp.Candidates, resp.Evaluated, resp.Refined, len(resp.Pairs), 0}
	switch {
	case resp.Candidates != w.candidates || resp.Evaluated != w.candidates:
		return t, fmt.Errorf("candidates %d evaluated %d, want %d", resp.Candidates, resp.Evaluated, w.candidates)
	case resp.Truncated || len(resp.Pairs) != len(w.pairs):
		return t, fmt.Errorf("%d pairs (truncated %v), want %d", len(resp.Pairs), resp.Truncated, len(w.pairs))
	case pred != "" && resp.Holds != w.holds:
		return t, fmt.Errorf("holds %d, want %d", resp.Holds, w.holds)
	case pred == "" && !reflect.DeepEqual(resp.Relations, w.relations):
		return t, fmt.Errorf("relations %v, want %v", resp.Relations, w.relations)
	}
	for _, p := range resp.Pairs {
		if want, ok := w.pairs[[2]int{p.LeftID, p.RightID}]; !ok || want != p.Relation {
			return t, fmt.Errorf("pair (%d,%d) %q, want %q", p.LeftID, p.RightID, p.Relation, want)
		}
	}
	return t, nil
}

// joinPlan sends one fixed join request; the seed has nothing to vary.
// The limit is lifted so that no answer is truncated and every response
// pair can be checked.
func joinPlan(left, right, pred string) func(*env, *sut, int64, int) (func() round, error) {
	return func(e *env, s *sut, _ int64, n int) (func() round, error) {
		le, lok := s.reg.Get(left)
		re, rok := s.reg.Get(right)
		if !lok || !rok {
			return nil, fmt.Errorf("datasets %s, %s not registered", left, right)
		}
		want, err := expectJoin(le, re, pred)
		if err != nil {
			return nil, err
		}
		body, _ := json.Marshal(server.JoinRequest{Left: left, Right: right, Predicate: pred, Limit: 100000})
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{kind: opJoin, method: http.MethodPost, path: "/v1/join", body: body}
		}
		r := round{ops: ops, check: func(_ int, status int, b []byte) (tally, error) {
			return want.check(status, b, pred)
		}}
		return func() round { return r }, nil
	}
}

// ---- relate probes ----

// probe is one generated geometry as the server will see it: the WKT
// text, and the object built from parsing that same text.
type probe struct {
	wkt string
	obj *core.Object
}

func newProbe(s *sut, p *geom.Polygon) (probe, error) {
	text := wkt.MarshalPolygon(p)
	parsed, err := wkt.ParsePolygon(text)
	if err != nil {
		return probe{}, err
	}
	obj, err := s.reg.Probe(parsed)
	return probe{text, obj}, err
}

// probeShapes generates n blobs inside region from a ladder of sizes
// (16..216 vertices, radius 4..16, detail coupled to size as in the
// datasets), each around a uniformly drawn centre.
func probeShapes(rng *rand.Rand, region geom.MBR, n int) []*geom.Polygon {
	const margin = 20
	out := make([]*geom.Polygon, n)
	for i, rank := range rng.Perm(n) {
		u := float64(rank) / math.Max(1, float64(n-1))
		c := geom.Point{
			X: region.MinX + margin + rng.Float64()*(region.Width()-2*margin),
			Y: region.MinY + margin + rng.Float64()*(region.Height()-2*margin),
		}
		out[i] = datagen.Blob(rng, c, 4+12*u, int(16*math.Pow(216.0/16, u)))
	}
	return out
}

// euRegion is where OBE lives (datagen places the European sets in the
// left half of the space).
func euRegion(space geom.MBR) geom.MBR {
	space.MaxX = space.MinX + space.Width()/2
	return space
}

// relateWant is a probe's answer against the base objects of a dataset.
type relateWant struct {
	candidates int
	matches    map[int]string
}

// expectRelate answers every probe against objs with the filter-free
// pipeline; visible (optional) says which objects a probe can see.
// Matches are keyed by object id, or by position for objects that have
// no id yet.
func expectRelate(probes []probe, objs []*core.Object, visible func(probe, obj int) bool) []relateWant {
	pm := make([]geom.MBR, len(probes))
	for i, p := range probes {
		pm[i] = p.obj.MBR
	}
	om := make([]geom.MBR, len(objs))
	for i, o := range objs {
		om[i] = o.MBR
	}
	want := make([]relateWant, len(probes))
	for i := range want {
		want[i].matches = map[int]string{}
	}
	for _, ij := range join.Pairs(pm, om) {
		pi, oi := int(ij[0]), int(ij[1])
		if visible != nil && !visible(pi, oi) {
			continue
		}
		want[pi].candidates++
		if rel := core.FindRelation(core.ST2, probes[pi].obj, objs[oi]).Relation; rel != de9im.Disjoint {
			key := objs[oi].ID
			if key < 0 {
				key = oi
			}
			want[pi].matches[key] = rel.String()
		}
	}
	return want
}

// checkRelate compares a relate response with the base answer plus the
// answer over the delta objects inserted so far (delta may be nil);
// delta ids are deltaBase + position.
func checkRelate(status int, body []byte, base relateWant, delta *relateWant, baseN, deltaBase int) (tally, error) {
	var resp server.RelateResponse
	if err := decode2xx(status, body, &resp); err != nil {
		return tally{}, err
	}
	t := tally{resp.Candidates, resp.Evaluated, resp.Refined, len(resp.Matches), resp.BatchSize}
	wantC, wantM := base.candidates, len(base.matches)
	if delta != nil {
		wantC += delta.candidates
		wantM += len(delta.matches)
	}
	switch {
	case resp.Candidates != wantC || resp.Evaluated != wantC:
		return t, fmt.Errorf("candidates %d evaluated %d, want %d", resp.Candidates, resp.Evaluated, wantC)
	case resp.Truncated || len(resp.Matches) != wantM:
		return t, fmt.Errorf("%d matches (truncated %v), want %d", len(resp.Matches), resp.Truncated, wantM)
	}
	for _, m := range resp.Matches {
		want, ok := base.matches[m.ID]
		if m.ID >= baseN {
			ok = delta != nil
			if ok {
				want, ok = delta.matches[m.ID-deltaBase]
			}
		}
		if !ok || want != m.Relation {
			return t, fmt.Errorf("match %d %q, want %q", m.ID, m.Relation, want)
		}
	}
	return t, nil
}

func relateBody(dataset, text string) []byte {
	b, _ := json.Marshal(server.RelateRequest{Dataset: dataset, WKT: text})
	return b
}

// relatePlan cycles a pool of 300 probes against OBE. The pool is part
// of the fixed corpus (generated from the data seed) and the traffic seed
// deals the order, so every seed sends the same total work: with probes
// drawn from the traffic seed, pairs_per_s ranged 17 % and
// resp_bytes_per_op 4 % over ten seeds of the same code. The default 300
// ops are one pass over the pool, which makes every round the same work
// too.
func relatePlan(e *env, s *sut, seed int64, n int) (func() round, error) {
	const distinct = 300
	entry, ok := s.reg.Get("OBE")
	if !ok {
		return nil, fmt.Errorf("dataset OBE not registered")
	}
	polys := probeShapes(rand.New(rand.NewSource(dataSeed)), euRegion(e.suite.Space), distinct)
	probes := make([]probe, len(polys))
	pool := make([]op, len(polys))
	for i, p := range polys {
		var err error
		if probes[i], err = newProbe(s, p); err != nil {
			return nil, err
		}
		pool[i] = op{kind: opRelate, method: http.MethodPost, path: "/v1/relate",
			body: relateBody("OBE", probes[i].wkt), wkt: probes[i].wkt}
	}
	want := expectRelate(probes, entry.Dataset.Objects, nil)
	order := rand.New(rand.NewSource(seed)).Perm(distinct)
	baseN, next := len(entry.Dataset.Objects), 0
	return func() round {
		first := next
		next = (first + n) % distinct
		ops := make([]op, n)
		for i := range ops {
			ops[i] = pool[order[(first+i)%distinct]]
		}
		return round{ops: ops, check: func(i int, status int, b []byte) (tally, error) {
			return checkRelate(status, b, want[order[(first+i)%distinct]], nil, baseN, 0)
		}}
	}, nil
}

// ---- ingest beside reads ----

// ingestPlan builds rounds of n × (insert a building into OBE, then
// probe around it over base + delta), n deletes of those ids, and one
// compaction, which leaves OBE at its base content. Ids are never
// reused, so each round's ids continue where the last one stopped. As in
// relatePlan the geometries are part of the fixed corpus and the traffic
// seed deals the order in which the insert/probe pairs are sent.
func ingestPlan(e *env, s *sut, seed int64, n int) (func() round, error) {
	entry, ok := s.reg.Get("OBE")
	if !ok {
		return nil, fmt.Errorf("dataset OBE not registered")
	}
	rng := rand.New(rand.NewSource(dataSeed))
	shapes := probeShapes(rng, euRegion(e.suite.Space), n)
	order := rand.New(rand.NewSource(seed)).Perm(n)
	inserts := make([]probe, n)
	probes := make([]probe, n)
	for i, shape := range shapes {
		var err error
		// A building as datagen makes them (4..12 vertices, radius
		// 0.4..1.8) within 2 units of the centre of the probe that follows
		// it, so that the probe's candidates include the delta.
		mbr := shape.Bounds()
		c := geom.Point{X: (mbr.MinX+mbr.MaxX)/2 + rng.Float64()*4 - 2, Y: (mbr.MinY+mbr.MaxY)/2 + rng.Float64()*4 - 2}
		b := datagen.Blob(rng, c, 0.4+rng.Float64()*1.4, 4+rng.Intn(9))
		if inserts[order[i]], err = newProbe(s, b); err != nil {
			return nil, err
		}
		if probes[order[i]], err = newProbe(s, shape); err != nil {
			return nil, err
		}
	}
	baseN := entry.Live()
	if baseN != len(entry.Dataset.Objects) {
		return nil, fmt.Errorf("OBE has %d pending ops, want a compacted base", entry.PendingOps())
	}
	base := expectRelate(probes, entry.Dataset.Objects, nil)
	insObjs := make([]*core.Object, n)
	for i, p := range inserts {
		insObjs[i] = p.obj
	}
	// Probe i runs after insert i: it sees inserts 0..i.
	delta := expectRelate(probes, insObjs, func(p, o int) bool { return o <= p })

	nextID := entry.NextID
	return func() round {
		first := nextID
		nextID += n
		ops := make([]op, 0, 3*n+1)
		for i := range inserts {
			body, _ := json.Marshal(server.IngestRequest{WKT: inserts[i].wkt})
			ops = append(ops,
				op{kind: opInsert, method: http.MethodPost, path: "/v1/datasets/OBE/objects", body: body, wkt: inserts[i].wkt, id: first + i},
				op{kind: opRelate, method: http.MethodPost, path: "/v1/relate", body: relateBody("OBE", probes[i].wkt), wkt: probes[i].wkt})
		}
		for i := range inserts {
			ops = append(ops, op{kind: opDelete, method: http.MethodDelete,
				path: fmt.Sprintf("/v1/datasets/OBE/objects/%d", first+i), id: first + i})
		}
		ops = append(ops, op{kind: opCompact, method: http.MethodPost, path: "/v1/datasets/OBE/compact"})
		return round{ops: ops, check: func(i int, status int, b []byte) (tally, error) {
			switch {
			case i < 2*n && i%2 == 0:
				return tally{}, checkIngest(status, b, "insert", first+i/2)
			case i < 2*n:
				return checkRelate(status, b, base[i/2], &delta[i/2], baseN, first)
			case i < 3*n:
				return tally{}, checkIngest(status, b, "delete", first+i-2*n)
			}
			var resp server.CompactResponse
			if err := decode2xx(status, b, &resp); err != nil {
				return tally{}, err
			}
			if !resp.Compacted || resp.Objects != baseN {
				return tally{}, fmt.Errorf("compacted %v to %d objects, want %d", resp.Compacted, resp.Objects, baseN)
			}
			return tally{}, nil
		}}
	}, nil
}

func checkIngest(status int, body []byte, wantOp string, wantID int) error {
	var resp server.IngestResponse
	if err := decode2xx(status, body, &resp); err != nil {
		return err
	}
	if resp.Op != wantOp || resp.ID != wantID || resp.Deduped {
		return fmt.Errorf("%s id %d (deduped %v), want %s id %d", resp.Op, resp.ID, resp.Deduped, wantOp, wantID)
	}
	return nil
}

func decode2xx(status int, body []byte, into any) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	return nil
}
