package oracle

import (
	"context"
	"flag"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/wkt"
)

var (
	pairsFlag = flag.Int("oracle.pairs", 1500, "generated pairs for TestDifferential")
	seedFlag  = flag.Int64("oracle.seed", 1, "base seed for the differential run")
)

// report records failures, shrinking and writing each as a regression
// repro; it returns true once enough failures accumulated to stop.
func report(t *testing.T, fails []Failure, count *int) bool {
	t.Helper()
	for _, f := range fails {
		*count++
		path, err := WriteRegression(RegressionDir, f)
		if err != nil {
			t.Errorf("%v (regression write failed: %v)\nA %s\nB %s", f, err,
				wkt.MarshalMultiPolygon(f.Pair.A), wkt.MarshalMultiPolygon(f.Pair.B))
		} else {
			t.Errorf("%v\nshrunk repro written to %s", f, path)
		}
		if *count >= 5 {
			t.Fatalf("stopping after %d failures", *count)
			return true
		}
	}
	return false
}

// TestDifferential is the main fuzz loop: -oracle.pairs random lattice
// pairs through every check. make difftest runs it at 10k pairs.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag))
	failures := 0
	for i := 0; i < *pairsFlag; i++ {
		p := GeneratePair(rng)
		if report(t, CheckPair(rng, p), &failures) {
			return
		}
	}
}

// corpusPairs builds pairs from the datagen corpus generators — the
// shapes the benchmarks and the server tests actually run on.
func corpusPairs(seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	var pairs []Pair
	add := func(name string, a, b *geom.Polygon) {
		pairs = append(pairs, Pair{Name: "corpus:" + name, A: single(a), B: single(b)})
	}
	for i := 0; i < 12; i++ {
		c := geom.Point{X: 100 + 800*rng.Float64(), Y: 100 + 800*rng.Float64()}
		host := datagen.Blob(rng, c, 30+40*rng.Float64(), 12+rng.Intn(16))
		add("inside", datagen.InsideBlob(rng, host, 0.4, 10, 2), host)
		add("nearmiss", datagen.NearMissBlob(rng, host, 10, 10, 2), host)
		other := datagen.Blob(rng, geom.Point{X: c.X + 25, Y: c.Y - 10}, 35, 10+rng.Intn(10))
		add("overlap", host, other)
		add("hole", datagen.BlobWithHole(rng, c, 45, 18), datagen.Blob(rng, c, 12, 9))
	}
	tiles := datagen.SplitRects(rng, geom.MBR{MinX: 0, MinY: 0, MaxX: 600, MaxY: 600}, 12)
	for i := 0; i+1 < len(tiles); i++ {
		add("tiles", datagen.DensifiedRect(rng, tiles[i], 12), datagen.DensifiedRect(rng, tiles[i+1], 12))
		add("tile-rect", datagen.Rect(tiles[i]), datagen.DensifiedRect(rng, tiles[i], 16))
	}
	return pairs
}

// TestCorpus replays datagen-generated geometry (arbitrary float
// coordinates) through the exact-transform subset of the checks.
func TestCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag + 7))
	failures := 0
	for _, p := range corpusPairs(*seedFlag + 7) {
		if report(t, CheckCorpusPair(rng, p), &failures) {
			return
		}
	}
}

// TestRegressions replays every shrunk repro in the checked-in corpus.
// This is the "forever" half of the oracle: once a bug is found and
// fixed, its minimal pair keeps being checked on every test run.
func TestRegressions(t *testing.T) {
	regs, err := LoadRegressions(RegressionDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) == 0 {
		t.Fatal("regression corpus is empty; the checked-in sentinels should always load")
	}
	for _, reg := range regs {
		reg := reg
		t.Run(reg.File, func(t *testing.T) {
			if reg.ParseOnly {
				// Loading already verified the vertex counts, which is
				// the whole point of a parse-only repro.
				return
			}
			if reg.ExpectInvalid {
				// The pinned fix is that validation rejects this input.
				bad := false
				for _, m := range []*geom.MultiPolygon{reg.Pair.A, reg.Pair.B} {
					for _, poly := range m.Polys {
						if geom.ValidatePolygon(poly) != nil {
							bad = true
						}
					}
				}
				if !bad {
					t.Errorf("pair marked MODE invalid, but validation accepts both geometries (stored note: %s)", reg.Note)
				}
				return
			}
			rng := rand.New(rand.NewSource(*seedFlag))
			for _, f := range CheckCorpusPair(rng, reg.Pair) {
				t.Errorf("%v (stored note: %s)", f, reg.Note)
			}
		})
	}
}

// latticePolys draws n single-part polygons from the pair generators.
func latticePolys(rng *rand.Rand, n int) []*geom.Polygon {
	var out []*geom.Polygon
	for len(out) < n {
		p := GeneratePair(rng)
		if len(p.A.Polys) == 1 {
			out = append(out, p.A.Polys[0])
		}
		if len(out) < n && len(p.B.Polys) == 1 {
			out = append(out, p.B.Polys[0])
		}
	}
	return out[:n]
}

// generation space of the lattice generators, padded.
var latticeSpace = geom.MBR{MinX: -64, MinY: -64, MaxX: 192, MaxY: 192}

// TestHarnessParallelAgainstOracle sweeps generated pairs through the
// parallel harness and cross-checks every verdict delivered via the
// visit callback against the brute-force relation.
func TestHarnessParallelAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag + 13))
	polys := latticePolys(rng, 40)
	b := april.NewBuilder(latticeSpace, 8)
	objs := make([]*core.Object, len(polys))
	for i, p := range polys {
		o, err := core.NewObject(i, p, b)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		objs[i] = o
	}
	var hp []core.Pair
	var want []de9im.Relation
	for i := 0; i < len(objs) && len(hp) < 400; i++ {
		for j := i + 1; j < len(objs) && len(hp) < 400; j++ {
			hp = append(hp, core.Pair{R: objs[i], S: objs[j]})
			want = append(want, MostSpecific(single(objs[i].Poly), single(objs[j].Poly)))
		}
	}
	for _, m := range []core.Method{core.PC, core.APRIL} {
		var mu sync.Mutex
		var bad []string
		_, err := core.RunFindRelation(context.Background(), m, hp, 4,
			func(i int, res core.Result) {
				if res.Relation != want[i] {
					mu.Lock()
					bad = append(bad, wkt.MarshalPolygon(hp[i].R.Poly)+" vs "+wkt.MarshalPolygon(hp[i].S.Poly)+
						": got "+res.Relation.String()+", oracle "+want[i].String())
					mu.Unlock()
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range bad {
			if i >= 3 {
				t.Errorf("%s: ... and %d more", m, len(bad)-3)
				break
			}
			t.Errorf("%s: %s", m, d)
		}
	}
}

// TestServerRelateAgainstOracle probes a live server (full HTTP stack,
// relate path, a one-row join) and checks the match set against the
// brute-force relation of the probe with every dataset object.
func TestServerRelateAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(*seedFlag + 29))
	data := latticePolys(rng, 30)
	reg := server.NewRegistry(latticeSpace, 8)
	if _, err := reg.Add("oracle", "lattice", data); err != nil {
		t.Fatal(err)
	}
	svc := server.New(reg, server.Config{})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cli := server.NewClient(ts.URL)
	ctx := context.Background()

	probes := latticePolys(rng, 10)
	for pi, probe := range probes {
		want := map[int]string{}
		for id, obj := range data {
			rel := MostSpecific(single(probe), single(obj))
			if rel != de9im.Disjoint {
				want[id] = rel.String()
			}
		}
		resp, err := cli.Relate(ctx, server.RelateRequest{
			Dataset: "oracle", WKT: wkt.MarshalPolygon(probe), Limit: len(data) + 1,
		})
		if err != nil {
			t.Fatalf("probe %d: %v", pi, err)
		}
		got := map[int]string{}
		for _, m := range resp.Matches {
			got[m.ID] = m.Relation
		}
		for id, rel := range want {
			if got[id] != rel {
				t.Errorf("probe %d vs object %d: server %q, oracle %q\nprobe %s\nobject %s",
					pi, id, got[id], rel, wkt.MarshalPolygon(probe), wkt.MarshalPolygon(data[id]))
			}
		}
		for id, rel := range got {
			if _, ok := want[id]; !ok {
				t.Errorf("probe %d: server matched object %d (%s), oracle says disjoint\nprobe %s\nobject %s",
					pi, id, rel, wkt.MarshalPolygon(probe), wkt.MarshalPolygon(data[id]))
			}
		}

		// Predicate mode must agree with the hierarchy over the oracle
		// relation.
		pred, err := cli.Relate(ctx, server.RelateRequest{
			Dataset: "oracle", WKT: wkt.MarshalPolygon(probe), Predicate: "intersects", Limit: len(data) + 1,
		})
		if err != nil {
			t.Fatalf("probe %d predicate: %v", pi, err)
		}
		gotP := map[int]bool{}
		for _, m := range pred.Matches {
			gotP[m.ID] = true
		}
		for id, obj := range data {
			rel := MostSpecific(single(probe), single(obj))
			if wantHolds := core.Implies(rel, de9im.Intersects); gotP[id] != wantHolds {
				t.Errorf("probe %d vs object %d: predicate intersects = %v, oracle relation %s",
					pi, id, gotP[id], rel)
			}
		}
	}
}

// TestShrinkPreservesFailure pins the shrinker contract on a synthetic
// failure: the shrunk pair still triggers the (artificial) predicate and
// is no larger than the input.
func TestShrinkPreservesFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := GeneratePair(rng)
	// Artificial failure: "A has at least 3 vertices" — shrinkable but
	// never vanishing.
	recheck := func(q Pair) string {
		n := 0
		for _, poly := range q.A.Polys {
			n += poly.NumVertices()
		}
		if n >= 3 {
			return "still big"
		}
		return ""
	}
	shrunk := Shrink(p, recheck)
	if recheck(shrunk) == "" {
		t.Fatal("shrink lost the failure")
	}
	if cost(shrunk) > cost(p) {
		t.Fatalf("shrink increased cost: %v -> %v", cost(p), cost(shrunk))
	}
	if !validPair(shrunk) {
		t.Fatal("shrunk pair is not valid")
	}
}

// TestGeneratorsValid: every generator must emit exact-predicate-valid
// pairs (GeneratePair retries internally; this pins each generator's hit
// rate is nonzero and the output is genuinely valid).
func TestGeneratorsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		p := GeneratePair(rng)
		if !validPair(p) {
			t.Fatalf("invalid pair from generator %s", p.Name)
		}
		seen[p.Name]++
	}
	for _, g := range generators {
		if seen[g.name] == 0 {
			t.Errorf("generator %s never produced a valid pair", g.name)
		}
	}
}
