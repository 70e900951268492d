package oracle

import (
	"sort"

	"repro/internal/geom"
)

// The refiner's small universe: a few tiny shape families on a 3×3-cell
// grid, enumerated exhaustively and related pairwise. At this scale
// every contact the noder must report happens somewhere — a vertex on
// the other's edge, a shared edge or part of one, a vertex-only touch,
// a vertex on a vertex — and the whole universe runs in seconds.
const universeCells = 3

// universeRects returns every axis-aligned rectangle whose corners lie
// on the half-cell lattice of the grid: C(7,2)² = 441 rectangles.
func universeRects() []*geom.MultiPolygon {
	var vals []float64
	for v := 0.0; v <= universeCells; v += 0.5 {
		vals = append(vals, v)
	}
	var out []*geom.MultiPolygon
	for i, x0 := range vals {
		for _, x1 := range vals[i+1:] {
			for j, y0 := range vals {
				for _, y1 := range vals[j+1:] {
					out = append(out, single(latticeRect(x0, y0, x1, y1)))
				}
			}
		}
	}
	return out
}

// universeConvex returns every triangle and every strictly convex
// quadrilateral whose vertices lie on the coarser lattice {0, 1.5, 3}²
// (76 triangles, 70 quadrilaterals).
func universeConvex() []*geom.MultiPolygon {
	var pts []geom.Point
	for _, x := range []float64{0, 1.5, universeCells} {
		for _, y := range []float64{0, 1.5, universeCells} {
			pts = append(pts, geom.Point{X: x, Y: y})
		}
	}
	var out []*geom.MultiPolygon
	var pick func(from int, sub []geom.Point)
	pick = func(from int, sub []geom.Point) {
		if len(sub) >= 3 {
			if hull := strictHull(sub); len(hull) == len(sub) {
				out = append(out, single(geom.NewPolygon(hull)))
			}
		}
		if len(sub) == 4 {
			return
		}
		for i := from; i < len(pts); i++ {
			pick(i+1, append(sub[:len(sub):len(sub)], pts[i]))
		}
	}
	pick(0, nil)
	return out
}

// strictHull returns the convex hull of pts in counter-clockwise order,
// dropping collinear points (Andrew's monotone chain, exact predicates).
func strictHull(pts []geom.Point) geom.Ring {
	p := append([]geom.Point(nil), pts...)
	sort.Slice(p, func(i, j int) bool { return p[i].X < p[j].X || p[i].X == p[j].X && p[i].Y < p[j].Y })
	var h geom.Ring
	for pass := 0; pass < 2; pass++ {
		start := len(h)
		for _, q := range p {
			for len(h) >= start+2 && xprod(h[len(h)-2], h[len(h)-1], q) <= 0 {
				h = h[:len(h)-1]
			}
			h = append(h, q)
		}
		h = h[:len(h)-1] // the last point starts the other chain
		for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
			p[i], p[j] = p[j], p[i]
		}
	}
	return h
}

// universeVariants returns a fixed few shapes with a hole or two parts.
func universeVariants() []*geom.MultiPolygon {
	frame := geom.Ring{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 3}, {X: 0, Y: 3}}
	square := func(x0, y0, x1, y1 float64) geom.Ring {
		return geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	}
	return []*geom.MultiPolygon{
		single(geom.NewPolygon(frame.Clone(), square(1, 1, 2, 2))),
		single(geom.NewPolygon(frame.Clone(), square(0.5, 1, 2.5, 2))),
		single(geom.NewPolygon(frame.Clone(), geom.Ring{{X: 0.5, Y: 0.5}, {X: 2.5, Y: 0.5}, {X: 1.5, Y: 2.5}})),
		geom.NewMultiPolygon(latticeRect(0, 0, 1, 1), latticeRect(2, 2, 3, 3)),
		geom.NewMultiPolygon(latticeRect(0, 0, 1, 3), latticeRect(2, 0, 3, 3)),
	}
}

// Universe calls visit with every pair of the refiner's small universe:
// every ordered pair of rectangles, every ordered pair of triangles and
// convex quadrilaterals, and each hole or two-part variant against every
// shape (both orders) and every variant. Shapes are shared between
// pairs, so visit must not mutate them.
func Universe(visit func(Pair)) {
	rects, convex, variants := universeRects(), universeConvex(), universeVariants()
	all := func(name string, as, bs []*geom.MultiPolygon) {
		for _, a := range as {
			for _, b := range bs {
				visit(Pair{Name: name, A: a, B: b})
			}
		}
	}
	all("universe:rects", rects, rects)
	all("universe:convex", convex, convex)
	shapes := append(append([]*geom.MultiPolygon(nil), rects...), convex...)
	all("universe:variant", variants, shapes)
	all("universe:variant", shapes, variants)
	all("universe:variant", variants, variants)
}
