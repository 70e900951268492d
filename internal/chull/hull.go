package chull

import (
	"sort"

	"repro/internal/geom"
)

// convexHull returns the convex hull of the points as a CCW ring, using
// Andrew's monotone chain. Collinear points on the hull boundary are
// dropped. The input is not modified.
func convexHull(pts []geom.Point) geom.Ring {
	if len(pts) < 3 {
		out := make(geom.Ring, len(pts))
		copy(out, pts)
		return out
	}
	ps := make([]geom.Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Deduplicate.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if !p.Eq(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) < 3 {
		out := make(geom.Ring, len(ps))
		copy(out, ps)
		return out
	}

	build := func(iter func(fn func(geom.Point))) []geom.Point {
		var chain []geom.Point
		iter(func(p geom.Point) {
			for len(chain) >= 2 && geom.Cross(chain[len(chain)-2], chain[len(chain)-1], p) <= geom.Eps {
				chain = chain[:len(chain)-1]
			}
			chain = append(chain, p)
		})
		return chain
	}
	lower := build(func(fn func(geom.Point)) {
		for _, p := range ps {
			fn(p)
		}
	})
	upper := build(func(fn func(geom.Point)) {
		for i := len(ps) - 1; i >= 0; i-- {
			fn(ps[i])
		}
	})
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	return geom.Ring(hull)
}

// convexIntersects reports whether two convex CCW rings share at least
// one point, via separating-axis testing over both edge sets.
func convexIntersects(a, b geom.Ring) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return !hasSeparatingAxis(a, b) && !hasSeparatingAxis(b, a)
}

// hasSeparatingAxis reports whether some edge of a separates all of b
// strictly to its outside.
func hasSeparatingAxis(a, b geom.Ring) bool {
	n := len(a)
	for i := 0; i < n; i++ {
		p, q := a[i], a[(i+1)%n]
		separates := true
		for _, v := range b {
			if geom.Cross(p, q, v) >= -geom.Eps {
				separates = false
				break
			}
		}
		if separates {
			return true
		}
	}
	return false
}
