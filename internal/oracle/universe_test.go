package oracle

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/wkt"
)

// TestUniverse relates every pair of the refiner's small universe with
// de9im.Relate and requires the brute-force oracle's matrix; a failure is
// shrunk into the regression corpus like a TestDifferential one.
func TestUniverse(t *testing.T) {
	if n := len(universeConvex()); n != 76+70 {
		t.Errorf("convex family has %d shapes, want 76 triangles + 70 quadrilaterals", n)
	}
	start := time.Now()
	pairs, failures := 0, 0
	Universe(func(p Pair) {
		if failures >= 5 {
			return
		}
		pairs++
		if !validPair(p) {
			t.Fatalf("universe pair %s is invalid", p.Name)
		}
		if d := checkRefine(p); d != "" {
			report(t, []Failure{{Check: "refine", Detail: d, Pair: p, Recheck: checkRefine}}, &failures)
		}
	})
	t.Logf("%d universe pairs in %v", pairs, time.Since(start))
}

// fuzzPair maps fuzz bytes to two lattice polygons: a vertex count for
// each (3 to 8), then one byte per coordinate on the quarter lattice of
// [0, 4]. Each ring takes its vertices in angular order around their
// mean, so most inputs are simple; ok is false when the pair is not
// valid under the oracle's exact predicates.
func fuzzPair(data []byte) (p Pair, ok bool) {
	ring := func() geom.Ring {
		if len(data) == 0 {
			return nil
		}
		n := 3 + int(data[0])%6
		data = data[1:]
		if len(data) < 2*n {
			return nil
		}
		r := make(geom.Ring, n)
		var c geom.Point
		for i := range r {
			r[i] = geom.Point{X: snap(float64(data[2*i]%17) / 4), Y: snap(float64(data[2*i+1]%17) / 4)}
			c = c.Add(r[i].Scale(1 / float64(n)))
		}
		data = data[2*n:]
		sort.SliceStable(r, func(i, j int) bool {
			return math.Atan2(r[i].Y-c.Y, r[i].X-c.X) < math.Atan2(r[j].Y-c.Y, r[j].X-c.X)
		})
		return r
	}
	a, b := ring(), ring()
	if !simpleRing(a) || !simpleRing(b) {
		return Pair{}, false
	}
	p = Pair{Name: "fuzz", A: single(geom.NewPolygon(a)), B: single(geom.NewPolygon(b))}
	return p, validPair(p)
}

// FuzzRelateLattice requires de9im.Relate to reproduce the brute-force
// matrix on fuzzer-chosen lattice polygon pairs.
func FuzzRelateLattice(f *testing.F) {
	f.Add([]byte{1, 0, 0, 8, 0, 8, 8, 0, 8, 1, 8, 0, 16, 0, 16, 8, 8, 8}) // shared edge
	f.Add([]byte{0, 0, 0, 8, 0, 0, 8, 0, 8, 8, 8, 16, 8, 8, 16})          // vertex touch
	f.Add([]byte{1, 0, 0, 16, 0, 16, 16, 0, 16, 0, 4, 4, 12, 4, 8, 8})    // nested
	f.Add([]byte{0, 0, 0, 8, 4, 0, 8, 0, 4, 4, 12, 4, 8, 12})             // vertex on edge
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := fuzzPair(data)
		if !ok {
			return
		}
		if d := checkRefine(p); d != "" {
			t.Fatalf("%s\nA %s\nB %s", d, wkt.MarshalMultiPolygon(p.A), wkt.MarshalMultiPolygon(p.B))
		}
	})
}
