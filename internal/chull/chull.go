// Package chull implements the classic simple-shape object approximations
// of Brinkhoff et al. (SIGMOD 1994), reference [6] of the paper: a convex
// conservative approximation (the convex hull) and a progressive
// approximation (a maximal enclosed axis-aligned rectangle). The paper's
// raster-interval filters are compared against this family in Sec. 2.3;
// the package provides the baseline intermediate filter for that
// comparison (see the related-work ablation in the harness).
package chull

import (
	"math"

	"repro/internal/april"
	"repro/internal/geom"
)

// Approx is the simple-shape approximation of one polygon.
type Approx struct {
	// Hull is the convex hull (conservative: object ⊆ hull).
	Hull geom.Ring
	// MER is a maximal enclosed rectangle (progressive: MER ⊆ object).
	// Empty when no interior rectangle was found (degenerate objects).
	MER geom.MBR
}

// Build computes the approximation of a polygon. Holes cannot
// contribute hull vertices, so the hull is the shell's.
func Build(p *geom.Polygon) Approx {
	return Approx{Hull: convexHull(p.Shell), MER: EnclosedRect(p)}
}

// EnclosedRect finds a large axis-aligned rectangle inside the polygon by
// greedy bidirectional expansion around an interior point, halving the
// step size geometrically. The result is maximal in the sense that no
// side can be pushed further by the final step size; it is not the global
// optimum (which is unnecessary for filtering).
func EnclosedRect(p *geom.Polygon) geom.MBR {
	c := geom.PointOnSurface(p)
	if geom.LocateInPolygon(c, p) != geom.Inside {
		return geom.EmptyMBR()
	}
	b := p.Bounds()
	loc := geom.NewPolygonLocator(p)
	const minStepFrac = 1e-4
	minStep := math.Max(b.Width(), b.Height()) * minStepFrac

	// Seed with a small square: growing from a degenerate point can lock
	// into a zero-height chord of the polygon that no step can thicken.
	r := geom.EmptyMBR()
	for half := math.Max(b.Width(), b.Height()) / 8; half > minStep/4; half /= 2 {
		cand := geom.MBR{MinX: c.X - half, MinY: c.Y - half, MaxX: c.X + half, MaxY: c.Y + half}
		if rectInside(cand, p, loc) {
			r = cand
			break
		}
	}
	if r.IsEmpty() {
		return r
	}

	step := math.Max(b.Width(), b.Height()) / 2
	for step > minStep {
		grown := false
		for side := 0; side < 4; side++ {
			cand := r
			switch side {
			case 0:
				cand.MinX -= step
			case 1:
				cand.MaxX += step
			case 2:
				cand.MinY -= step
			case 3:
				cand.MaxY += step
			}
			if rectInside(cand, p, loc) {
				r = cand
				grown = true
			}
		}
		if !grown {
			step /= 2
		}
	}
	if r.Width() <= 0 || r.Height() <= 0 {
		return geom.EmptyMBR()
	}
	return r
}

// rectInside reports whether the rectangle lies strictly inside the
// polygon: its corners are interior and no boundary edge reaches it.
func rectInside(r geom.MBR, p *geom.Polygon, loc *geom.Locator) bool {
	corners := [4]geom.Point{
		{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MinY},
		{X: r.MaxX, Y: r.MaxY}, {X: r.MinX, Y: r.MaxY},
	}
	for _, c := range corners {
		if loc.Locate(c) != geom.Inside {
			return false
		}
	}
	hit := false
	p.Edges(func(a, b geom.Point) {
		if hit {
			return
		}
		if segmentTouchesRect(a, b, r) {
			hit = true
		}
	})
	return !hit
}

// segmentTouchesRect reports whether segment (a, b) intersects the closed
// rectangle, via a Cohen-Sutherland style outcode rejection followed by
// edge tests.
func segmentTouchesRect(a, b geom.Point, r geom.MBR) bool {
	codeOf := func(p geom.Point) int {
		c := 0
		if p.X < r.MinX {
			c |= 1
		} else if p.X > r.MaxX {
			c |= 2
		}
		if p.Y < r.MinY {
			c |= 4
		} else if p.Y > r.MaxY {
			c |= 8
		}
		return c
	}
	ca, cb := codeOf(a), codeOf(b)
	if ca == 0 || cb == 0 {
		return true // an endpoint is inside
	}
	if ca&cb != 0 {
		return false // both beyond the same side
	}
	corners := [4]geom.Point{
		{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MinY},
		{X: r.MaxX, Y: r.MaxY}, {X: r.MinX, Y: r.MaxY},
	}
	for i := 0; i < 4; i++ {
		if geom.SegIntersect(a, b, corners[i], corners[(i+1)%4]).Kind != geom.SegNone {
			return true
		}
	}
	return false
}

// mbrRing converts a rectangle to a CCW ring.
func mbrRing(r geom.MBR) geom.Ring {
	return geom.Ring{
		{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MinY},
		{X: r.MaxX, Y: r.MaxY}, {X: r.MinX, Y: r.MaxY},
	}
}

// IntersectionFilter is the [6]-style intermediate filter for spatial
// intersection: disjoint convex hulls prove disjointness; intersecting
// progressive rectangles (or a hull enclosed in the other's rectangle)
// prove intersection; anything else is inconclusive.
func IntersectionFilter(r, s Approx) april.Verdict {
	if len(r.Hull) < 3 || len(s.Hull) < 3 {
		return april.Inconclusive
	}
	if !convexIntersects(r.Hull, s.Hull) {
		return april.DefiniteDisjoint
	}
	rOK := !r.MER.IsEmpty()
	sOK := !s.MER.IsEmpty()
	if rOK && sOK && r.MER.Intersects(s.MER) {
		return april.DefiniteIntersect
	}
	// A hull inside the other's enclosed rectangle implies containment.
	if sOK && hullInsideRect(r.Hull, s.MER) {
		return april.DefiniteIntersect
	}
	if rOK && hullInsideRect(s.Hull, r.MER) {
		return april.DefiniteIntersect
	}
	// A hull vertex (a point of the object only if the object is convex)
	// cannot be used, but an object vertex inside the other's rectangle
	// can — callers with vertex access use VertexProbe for that.
	return april.Inconclusive
}

func hullInsideRect(hull geom.Ring, r geom.MBR) bool {
	for _, v := range hull {
		if !r.ContainsPoint(v) {
			return false
		}
	}
	return true
}

// VertexProbe strengthens the filter with exact evidence: any vertex of
// one polygon inside the other's enclosed rectangle proves intersection.
func VertexProbe(p *geom.Polygon, other Approx) bool {
	if other.MER.IsEmpty() {
		return false
	}
	for _, v := range p.Shell {
		if other.MER.ContainsPoint(v) {
			return true
		}
	}
	return false
}
