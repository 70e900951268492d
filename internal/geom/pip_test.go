package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLocateInRing(t *testing.T) {
	sq := square(0, 0, 4)
	cases := []struct {
		p    Point
		want Location
	}{
		{Point{2, 2}, Inside},
		{Point{0, 2}, OnBoundary},
		{Point{4, 4}, OnBoundary}, // corner
		{Point{2, 0}, OnBoundary},
		{Point{5, 2}, Outside},
		{Point{-1, -1}, Outside},
		{Point{2, 4.0001}, Outside},
	}
	for _, c := range cases {
		if got := LocateInRing(c.p, sq); got != c.want {
			t.Errorf("LocateInRing(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLocateInPolygonWithHole(t *testing.T) {
	p := NewPolygon(square(0, 0, 10), square(3, 3, 4))
	cases := []struct {
		p    Point
		want Location
	}{
		{Point{1, 1}, Inside},
		{Point{5, 5}, Outside},    // in the hole
		{Point{3, 5}, OnBoundary}, // on hole edge
		{Point{0, 5}, OnBoundary}, // on shell edge
		{Point{11, 5}, Outside},
		{Point{5, 1}, Inside}, // below the hole
	}
	for _, c := range cases {
		if got := LocateInPolygon(c.p, p); got != c.want {
			t.Errorf("LocateInPolygon(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLocateInMulti(t *testing.T) {
	m := NewMultiPolygon(
		NewPolygon(square(0, 0, 2)),
		NewPolygon(square(10, 10, 2)),
	)
	if LocateInMulti(Point{1, 1}, m) != Inside {
		t.Error("point in first component")
	}
	if LocateInMulti(Point{11, 11}, m) != Inside {
		t.Error("point in second component")
	}
	if LocateInMulti(Point{5, 5}, m) != Outside {
		t.Error("point between components")
	}
	if LocateInMulti(Point{10, 11}, m) != OnBoundary {
		t.Error("point on second component boundary")
	}
}

// TestLocatorMatchesDirect cross-checks the slab-indexed Locator against
// the direct point-in-polygon walk on random blobs and query points.
func TestLocatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		poly := NewPolygon(randBlob(rng, 5, 5, 4, 20+rng.Intn(60)))
		m := NewMultiPolygon(poly)
		loc := NewLocator(m)
		f := func() bool {
			p := Point{rng.Float64() * 12, rng.Float64() * 12}
			return loc.Locate(p) == LocateInMulti(p, m)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLocatorWithHoles(t *testing.T) {
	poly := NewPolygon(square(0, 0, 10), square(2, 2, 3), square(6, 6, 2))
	loc := NewLocator(NewMultiPolygon(poly))
	cases := []struct {
		p    Point
		want Location
	}{
		{Point{1, 1}, Inside},
		{Point{3, 3}, Outside},
		{Point{7, 7}, Outside},
		{Point{2, 3}, OnBoundary},
		{Point{5.5, 5.5}, Inside},
		{Point{-1, 5}, Outside},
	}
	for _, c := range cases {
		if got := loc.Locate(c.p); got != c.want {
			t.Errorf("Locate(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if loc.NumEdges() != 12 {
		t.Errorf("NumEdges = %d, want 12", loc.NumEdges())
	}
}

// TestLocatorEdgesExact pins the edge table to one edge per vertex with
// no growth slack, on a polygon with a hole and a two-part multipolygon.
func TestLocatorEdgesExact(t *testing.T) {
	holed := NewPolygon(square(0, 0, 10), square(2, 2, 3))
	for _, m := range []*MultiPolygon{
		NewMultiPolygon(holed),
		NewMultiPolygon(holed, NewPolygon(square(20, 0, 4))),
	} {
		l := NewLocator(m)
		if n := m.NumVertices(); len(l.edges) != n || cap(l.edges) != n {
			t.Errorf("edges len %d cap %d, want %d", len(l.edges), cap(l.edges), n)
		}
	}
}

// TestLocatorVertexQueries checks queries exactly at polygon vertices.
func TestLocatorVertexQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	poly := NewPolygon(randBlob(rng, 0, 0, 5, 40))
	loc := NewLocator(NewMultiPolygon(poly))
	for _, v := range poly.Shell {
		if got := loc.Locate(v); got != OnBoundary {
			t.Fatalf("vertex %v: got %v, want boundary", v, got)
		}
	}
}

func TestPointOnSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		poly := NewPolygon(randBlob(rng, 0, 0, 3, 10+rng.Intn(40)))
		pt := PointOnSurface(poly)
		if LocateInPolygon(pt, poly) != Inside {
			t.Fatalf("trial %d: PointOnSurface %v not inside", trial, pt)
		}
	}
}

func TestPointOnSurfaceWithHole(t *testing.T) {
	// A polygon whose centroid falls inside its hole.
	p := NewPolygon(square(0, 0, 10), square(2, 2, 6))
	pt := PointOnSurface(p)
	if LocateInPolygon(pt, p) != Inside {
		t.Fatalf("PointOnSurface %v not in interior", pt)
	}
}

func TestInteriorPoints(t *testing.T) {
	m := NewMultiPolygon(
		NewPolygon(square(0, 0, 2)),
		NewPolygon(square(10, 0, 2)),
	)
	pts := InteriorPoints(m)
	if len(pts) != 2 {
		t.Fatalf("got %d interior points", len(pts))
	}
	if LocateInPolygon(pts[0], m.Polys[0]) != Inside ||
		LocateInPolygon(pts[1], m.Polys[1]) != Inside {
		t.Error("interior points not inside their components")
	}
}
