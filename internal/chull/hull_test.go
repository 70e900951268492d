package chull

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
)

// convexContainsPoint reports whether p lies inside or on a convex CCW
// ring, in O(log n) via binary search on the fan around vertex 0.
func convexContainsPoint(hull geom.Ring, p geom.Point) bool {
	n := len(hull)
	if n == 0 {
		return false
	}
	if n == 1 {
		return hull[0].Eq(p)
	}
	if n == 2 {
		return geom.OnSegment(p, hull[0], hull[1])
	}
	if geom.Cross(hull[0], hull[1], p) < -geom.Eps || geom.Cross(hull[0], hull[n-1], p) > geom.Eps {
		return false
	}
	lo, hi := 1, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if geom.Cross(hull[0], hull[mid], p) >= -geom.Eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return geom.Cross(hull[lo], hull[lo+1], p) >= -geom.Eps
}

// convexContainsRing reports whether every vertex of r lies inside hull
// (sufficient for ring containment when hull is convex).
func convexContainsRing(hull, r geom.Ring) bool {
	for _, v := range r {
		if !convexContainsPoint(hull, v) {
			return false
		}
	}
	return true
}

func TestConvexHullSquarePlusInterior(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}, {X: 2, Y: 2}, {X: 1, Y: 3}, {X: 2, Y: 0}}
	hull := convexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull has %d vertices: %v", len(hull), hull)
	}
	if !hull.IsCCW() {
		t.Error("hull must be CCW")
	}
	if a := hull.Area(); a != 16 {
		t.Errorf("hull area = %v", a)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := convexHull([]geom.Point{{X: 1, Y: 1}}); len(h) != 1 {
		t.Errorf("single point hull: %v", h)
	}
	if h := convexHull([]geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}); len(h) != 2 {
		t.Errorf("two point hull: %v", h)
	}
	// All identical points collapse.
	if h := convexHull([]geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}}); len(h) != 1 {
		t.Errorf("identical points hull: %v", h)
	}
}

// TestConvexHullProperties: the hull contains every input point, is
// convex, and is invariant under input shuffling.
func TestConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		}
		hull := convexHull(pts)
		if len(hull) < 3 {
			t.Fatalf("trial %d: degenerate hull from %d points", trial, n)
		}
		// Convexity: every consecutive triple turns left (or straight).
		m := len(hull)
		for i := 0; i < m; i++ {
			if geom.Cross(hull[i], hull[(i+1)%m], hull[(i+2)%m]) < -geom.Eps {
				t.Fatalf("trial %d: hull not convex at %d", trial, i)
			}
		}
		for _, p := range pts {
			if !convexContainsPoint(hull, p) {
				t.Fatalf("trial %d: hull misses input point %v", trial, p)
			}
		}
		// Shuffle invariance (same vertex set).
		rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		hull2 := convexHull(pts)
		if len(hull2) != m || hull2.Area() != hull.Area() {
			t.Fatalf("trial %d: hull changed under shuffle", trial)
		}
	}
}

func TestConvexContainsPoint(t *testing.T) {
	hull := geom.Ring{{X: 0, Y: 0}, {X: 6, Y: 0}, {X: 6, Y: 6}, {X: 0, Y: 6}}
	for _, p := range []geom.Point{{X: 3, Y: 3}, {X: 0, Y: 0}, {X: 6, Y: 6}, {X: 3, Y: 0}, {X: 0, Y: 3}} {
		if !convexContainsPoint(hull, p) {
			t.Errorf("%v should be inside", p)
		}
	}
	for _, p := range []geom.Point{{X: -1, Y: 3}, {X: 7, Y: 3}, {X: 3, Y: -0.001}, {X: 3, Y: 6.001}} {
		if convexContainsPoint(hull, p) {
			t.Errorf("%v should be outside", p)
		}
	}
}

// TestConvexIntersectsAgainstBrute compares the SAT test with a brute
// force on random convex polygons.
func TestConvexIntersectsAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randHull := func() geom.Ring {
		n := 4 + rng.Intn(20)
		pts := make([]geom.Point, n)
		cx, cy := rng.Float64()*16, rng.Float64()*16
		for i := range pts {
			pts[i] = geom.Point{X: cx + rng.Float64()*8, Y: cy + rng.Float64()*8}
		}
		return convexHull(pts)
	}
	for trial := 0; trial < 300; trial++ {
		a, b := randHull(), randHull()
		if len(a) < 3 || len(b) < 3 {
			continue
		}
		got := convexIntersects(a, b)
		want := bruteRingsIntersect(a, b)
		if got != want {
			t.Fatalf("trial %d: SAT=%v brute=%v\na=%v\nb=%v", trial, got, want, a, b)
		}
	}
}

func bruteRingsIntersect(a, b geom.Ring) bool {
	cross := false
	a.Edges(func(p, q geom.Point) {
		b.Edges(func(r, s geom.Point) {
			if geom.SegIntersect(p, q, r, s).Kind != geom.SegNone {
				cross = true
			}
		})
	})
	if cross {
		return true
	}
	if geom.LocateInRing(a[0], b) != geom.Outside {
		return true
	}
	return geom.LocateInRing(b[0], a) != geom.Outside
}

func TestConvexContainsRing(t *testing.T) {
	outer := geom.Ring{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}}
	inner := geom.Ring{{X: 2, Y: 2}, {X: 5, Y: 2}, {X: 4, Y: 5}}
	if !convexContainsRing(outer, inner) {
		t.Error("inner should be contained")
	}
	if convexContainsRing(inner, outer) {
		t.Error("outer cannot be inside inner")
	}
}

// TestHullOfPolygon: Build's hull covers every shell vertex and at least
// the shell's area.
func TestHullOfPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := datagen.Blob(rng, geom.Point{X: 5, Y: 5}, 4, 60)
	hull := Build(p).Hull
	for _, v := range p.Shell {
		if !convexContainsPoint(hull, v) {
			t.Fatalf("hull misses shell vertex %v", v)
		}
	}
	if hull.Area() < p.Shell.Area() {
		t.Error("hull area must dominate shell area")
	}
}
