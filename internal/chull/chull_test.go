package chull

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/april"
	"repro/internal/datagen"
	"repro/internal/geom"
)

func rect(x0, y0, x1, y1 float64) *geom.Polygon {
	return geom.NewPolygon(geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}})
}

func TestEnclosedRectOnRectangle(t *testing.T) {
	p := rect(2, 3, 10, 9)
	r := EnclosedRect(p)
	if r.IsEmpty() {
		t.Fatal("no rectangle found")
	}
	// The enclosed rectangle of a rectangle should nearly fill it.
	if r.Area() < 0.95*p.Area() {
		t.Errorf("enclosed rect covers only %.1f%% of the rectangle", 100*r.Area()/p.Area())
	}
	if !p.Bounds().ContainsMBR(r) {
		t.Error("enclosed rect escapes the polygon bounds")
	}
}

func TestEnclosedRectInsidePolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		p := datagen.Blob(rng, geom.Point{X: 50, Y: 50}, 10+rng.Float64()*20, 12+rng.Intn(100))
		r := EnclosedRect(p)
		if r.IsEmpty() {
			t.Fatalf("trial %d: no rectangle for a fat blob", trial)
		}
		// Sample the rectangle densely: every sample must be inside.
		for i := 0; i <= 8; i++ {
			for j := 0; j <= 8; j++ {
				pt := geom.Point{
					X: r.MinX + r.Width()*float64(i)/8,
					Y: r.MinY + r.Height()*float64(j)/8,
				}
				if geom.LocateInPolygon(pt, p) == geom.Outside {
					t.Fatalf("trial %d: rect point %v outside polygon", trial, pt)
				}
			}
		}
	}
}

func TestEnclosedRectWithHole(t *testing.T) {
	// Annulus: the rectangle must avoid the hole.
	p := geom.NewPolygon(
		geom.Ring{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 20, Y: 20}, {X: 0, Y: 20}},
		geom.Ring{{X: 8, Y: 8}, {X: 12, Y: 8}, {X: 12, Y: 12}, {X: 8, Y: 12}},
	)
	r := EnclosedRect(p)
	if r.IsEmpty() {
		t.Fatal("no rectangle in annulus")
	}
	hole := geom.MBR{MinX: 8, MinY: 8, MaxX: 12, MaxY: 12}
	inter := r.Intersection(hole)
	if !inter.IsEmpty() && inter.Area() > 1e-6 {
		t.Errorf("rect %v overlaps the hole", r)
	}
}

func TestBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := datagen.Blob(rng, geom.Point{X: 0, Y: 0}, 10, 64)
	a := Build(p)
	if len(a.Hull) < 3 {
		t.Fatal("hull missing")
	}
	if a.MER.IsEmpty() {
		t.Fatal("MER missing")
	}
	// Progressive ⊆ object ⊆ conservative.
	if !convexContainsRing(a.Hull, p.Shell) {
		t.Error("hull must contain the shell")
	}
	if geom.LocateInPolygon(a.MER.Center(), p) != geom.Inside {
		t.Error("MER center must be inside the object")
	}
}

func TestIntersectionFilterVerdicts(t *testing.T) {
	a := Build(rect(0, 0, 10, 10))
	b := Build(rect(20, 20, 30, 30))
	if v := IntersectionFilter(a, b); v != april.DefiniteDisjoint {
		t.Errorf("far apart: %v", v)
	}
	c := Build(rect(5, 5, 15, 15))
	if v := IntersectionFilter(a, c); v != april.DefiniteIntersect {
		t.Errorf("overlapping rects: %v", v)
	}
	inner := Build(rect(2, 2, 8, 8))
	if v := IntersectionFilter(a, inner); v != april.DefiniteIntersect {
		t.Errorf("nested rects: %v", v)
	}
}

// TestIntersectionFilterSoundness: the filter must never contradict exact
// geometry on random blobs.
func TestIntersectionFilterSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	definite := 0
	for trial := 0; trial < 200; trial++ {
		p1 := datagen.Blob(rng, geom.Point{X: 20 + rng.Float64()*30, Y: 20 + rng.Float64()*30}, 4+rng.Float64()*10, 8+rng.Intn(40))
		p2 := datagen.Blob(rng, geom.Point{X: 20 + rng.Float64()*30, Y: 20 + rng.Float64()*30}, 4+rng.Float64()*10, 8+rng.Intn(40))
		truth := polysIntersect(p1, p2)
		switch IntersectionFilter(Build(p1), Build(p2)) {
		case april.DefiniteDisjoint:
			definite++
			if truth {
				t.Fatalf("trial %d: filter says disjoint, objects intersect", trial)
			}
		case april.DefiniteIntersect:
			definite++
			if !truth {
				t.Fatalf("trial %d: filter says intersect, objects disjoint", trial)
			}
		}
	}
	if definite == 0 {
		t.Error("filter never definite on 200 random pairs")
	}
}

func polysIntersect(p1, p2 *geom.Polygon) bool {
	cross := false
	p1.Edges(func(a, b geom.Point) {
		p2.Edges(func(c, d geom.Point) {
			if geom.SegIntersect(a, b, c, d).Kind != geom.SegNone {
				cross = true
			}
		})
	})
	if cross {
		return true
	}
	if geom.LocateInPolygon(p1.Shell[0], p2) != geom.Outside {
		return true
	}
	return geom.LocateInPolygon(p2.Shell[0], p1) != geom.Outside
}

func TestVertexProbe(t *testing.T) {
	host := Build(rect(0, 0, 20, 20))
	poking := rect(5, 5, 8, 8) // vertices inside host's MER
	if !VertexProbe(poking, host) {
		t.Error("vertex inside MER should be detected")
	}
	outside := rect(40, 40, 44, 44)
	if VertexProbe(outside, host) {
		t.Error("distant polygon should not probe true")
	}
	if VertexProbe(poking, Approx{}) {
		t.Error("empty approximation cannot probe true")
	}
}

// TestFilterPowerComparison: on a containment-heavy workload, the raster
// filter (APRIL) should classify at least as many pairs as the
// convex-approximation filter — the motivation for raster intermediate
// filters in Sec. 2.3 of the paper.
func TestFilterPowerComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	space := geom.MBR{MinX: 0, MinY: 0, MaxX: 200, MaxY: 200}
	builder := april.NewBuilder(space, 9)
	var chDef, aprilDef, total int
	for trial := 0; trial < 300; trial++ {
		p1 := datagen.Blob(rng, geom.Point{X: 40 + rng.Float64()*120, Y: 40 + rng.Float64()*120}, 6+rng.Float64()*24, 12+rng.Intn(60))
		p2 := datagen.Blob(rng, geom.Point{X: 40 + rng.Float64()*120, Y: 40 + rng.Float64()*120}, 6+rng.Float64()*24, 12+rng.Intn(60))
		if !p1.Bounds().Intersects(p2.Bounds()) {
			continue // mimic the MBR filter step
		}
		total++
		if IntersectionFilter(Build(p1), Build(p2)) != april.Inconclusive {
			chDef++
		}
		a1, err := builder.Build(p1)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := builder.Build(p2)
		if err != nil {
			t.Fatal(err)
		}
		if april.IntersectionFilter(a1, a2) != april.Inconclusive {
			aprilDef++
		}
	}
	if total < 30 {
		t.Fatalf("too few MBR-overlapping pairs: %d", total)
	}
	if aprilDef < chDef {
		t.Errorf("APRIL settled %d pairs, convex approximations %d: expected raster >= convex", aprilDef, chDef)
	}
}

func TestSegmentTouchesRect(t *testing.T) {
	r := geom.MBR{MinX: 2, MinY: 2, MaxX: 6, MaxY: 6}
	cases := []struct {
		a, b geom.Point
		want bool
	}{
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}, false},   // outside
		{geom.Point{X: 3, Y: 3}, geom.Point{X: 5, Y: 5}, true},    // inside
		{geom.Point{X: 0, Y: 4}, geom.Point{X: 8, Y: 4}, true},    // crossing
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 8, Y: 0}, false},   // below
		{geom.Point{X: 0, Y: 2}, geom.Point{X: 8, Y: 2}, true},    // along bottom edge
		{geom.Point{X: 7, Y: 0}, geom.Point{X: 7, Y: 8}, false},   // right of box
		{geom.Point{X: 0, Y: 7}, geom.Point{X: 7, Y: 0}, true},    // clips corner
		{geom.Point{X: 0, Y: 13}, geom.Point{X: 13, Y: 0}, false}, // misses corner
	}
	for _, c := range cases {
		if got := segmentTouchesRect(c.a, c.b, r); got != c.want {
			t.Errorf("segment %v-%v: got %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEnclosedRectDegenerate(t *testing.T) {
	// A sliver triangle still yields some rectangle or empty, never panics.
	sliver := geom.NewPolygon(geom.Ring{{X: 0, Y: 0}, {X: 100, Y: 0.001}, {X: 100, Y: 0.002}})
	r := EnclosedRect(sliver)
	if !r.IsEmpty() && math.IsNaN(r.Area()) {
		t.Error("NaN area")
	}
}
