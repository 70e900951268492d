package de9im

import (
	"slices"
	"sync"

	"repro/internal/geom"
)

// Relate computes the DE-9IM matrix of the ordered pair (r, s).
func Relate(r, s *geom.MultiPolygon) Matrix {
	return RelatePrepared(Prepare(r), Prepare(s))
}

// RelatePolygons computes the DE-9IM matrix of two single polygons.
func RelatePolygons(r, s *geom.Polygon) Matrix {
	return Relate(geom.NewMultiPolygon(r), geom.NewMultiPolygon(s))
}

// Prepared wraps a geometry with every pair-independent acceleration
// structure Relate needs: a slab-indexed point locator, the boundary
// edge table with per-edge bounding boxes, a minX-sorted edge index for
// the noding sweep, cached bounds, and lazily computed per-component
// interior points. Preparing once amortizes all of it across the many
// pairs an object participates in; a Prepared is immutable after
// construction and safe for concurrent use (interior points are guarded
// by a sync.Once).
type Prepared struct {
	Geom    *geom.MultiPolygon
	locator *geom.Locator
	bounds  geom.MBR
	edges   []prepEdge // boundary edges in Geom.Edges order
	byMinX  []int32    // edge indices sorted by (minX, index)
	intOnce sync.Once
	intPts  []geom.Point
}

// Prepare builds the locator and edge tables for g.
func Prepare(g *geom.MultiPolygon) *Prepared {
	p := &Prepared{Geom: g, locator: geom.NewLocator(g), bounds: g.Bounds()}
	g.Edges(func(a, b geom.Point) { p.edges = append(p.edges, newPrepEdge(a, b)) })
	p.byMinX = make([]int32, len(p.edges))
	for i := range p.byMinX {
		p.byMinX[i] = int32(i)
	}
	slices.SortFunc(p.byMinX, func(a, b int32) int {
		xa, xb := p.edges[a].minX, p.edges[b].minX
		switch {
		case xa < xb:
			return -1
		case xa > xb:
			return 1
		default:
			return int(a - b)
		}
	})
	return p
}

// interiorPoints computes one interior point per polygon component,
// caching the result. Safe under concurrent callers.
func (p *Prepared) interiorPoints() []geom.Point {
	p.intOnce.Do(func() { p.intPts = geom.InteriorPoints(p.Geom) })
	return p.intPts
}

// probe classifies an interior point of the *other* geometry, nudging the
// probe off numerically-degenerate boundary hits while staying inside own.
func probe(pt geom.Point, other, own *geom.Locator) geom.Location {
	loc := other.Locate(pt)
	if loc != geom.OnBoundary {
		return loc
	}
	const d = 1e-9
	for _, off := range [...]geom.Point{{X: d}, {X: -d}, {Y: d}, {Y: -d}} {
		q := pt.Add(off)
		if own.Locate(q) != geom.Inside {
			continue
		}
		if l := other.Locate(q); l != geom.OnBoundary {
			return l
		}
	}
	return loc
}

// classifyMid folds the location of one noded-segment midpoint into the
// side flags.
func classifyMid(mid geom.Point, loc *geom.Locator, in, on, out *bool) {
	switch loc.Locate(mid) {
	case geom.Inside:
		*in = true
	case geom.OnBoundary:
		*on = true
	default:
		*out = true
	}
}

// classifySide classifies the midpoint of every noded sub-segment of one
// boundary against the other geometry's locator. cuts must be sorted by
// (edge, t); the walk uses a single cursor over the contiguous per-edge
// runs, so it allocates nothing. Early-exits once all three flags are set.
func classifySide(edges []prepEdge, cuts []cut, loc *geom.Locator, in, on, out *bool) {
	c := 0
	for i := range edges {
		if *in && *on && *out {
			return
		}
		lo := c
		for c < len(cuts) && cuts[c].edge == int32(i) {
			c++
		}
		e := &edges[i]
		run := cuts[lo:c]
		if len(run) == 0 {
			classifyMid(geom.Midpoint(e.a, e.b), loc, in, on, out)
			continue
		}
		// Cut parameters within 1e-12 of each other collapse into one
		// sub-segment boundary.
		prev := 0.0
		for _, ct := range run {
			if ct.t-prev > 1e-12 {
				classifySub(e, prev, ct.t, loc, in, on, out)
				prev = ct.t
			}
		}
		classifySub(e, prev, 1, loc, in, on, out)
	}
}

func classifySub(e *prepEdge, t0, t1 float64, loc *geom.Locator, in, on, out *bool) {
	if t1-t0 > 1e-12 {
		mid := geom.Midpoint(geom.Lerp(e.a, e.b, t0), geom.Lerp(e.a, e.b, t1))
		classifyMid(mid, loc, in, on, out)
	}
}

// RelatePrepared computes the DE-9IM matrix from prepared geometries,
// allocating a fresh scratch.
func RelatePrepared(r, s *Prepared) Matrix {
	return RelateScratch(r, s, nil)
}

// RelateScratch computes the DE-9IM matrix from prepared geometries using
// the caller's reusable scratch (nil means allocate one). With a warm
// scratch and warm Prepared values the steady state allocates nothing —
// the zero-alloc guard test pins this.
//
// Derivation: after noding the boundaries against each other, every noded
// boundary segment of one geometry lies entirely in the interior, on the
// boundary, or in the exterior of the other (its interior cannot cross the
// other boundary), so its midpoint classification is exact. Because
// interiors and exteriors are open sets, boundary/interior and
// boundary/exterior intersections are never isolated points, which makes
// the segment flags sufficient for all B-row and B-column entries.
// Area entries (II, IE, EI) follow from the flags plus per-component
// interior-point probes; DESIGN.md §4 sketches the completeness argument.
func RelateScratch(r, s *Prepared, sc *Scratch) Matrix {
	var m Matrix
	for i := range m {
		m[i] = DimF
	}
	m[EE] = Dim2
	if len(r.Geom.Polys) == 0 || len(s.Geom.Polys) == 0 {
		// Degenerate empty inputs: only the non-empty side contributes.
		if len(r.Geom.Polys) != 0 {
			m[IE], m[BE] = Dim2, Dim1
		}
		if len(s.Geom.Polys) != 0 {
			m[EI], m[EB] = Dim2, Dim1
		}
		return m
	}

	if sc == nil {
		sc = new(Scratch)
	}
	anyPoint := sc.node(r, s)

	var rIn, rOn, rOut, sIn, sOn, sOut bool
	classifySide(r.edges, sc.rCuts, s.locator, &rIn, &rOn, &rOut)
	classifySide(s.edges, sc.sCuts, r.locator, &sIn, &sOn, &sOut)

	// Boundary rows/columns.
	if rIn {
		m[BI] = Dim1
	}
	if rOut {
		m[BE] = Dim1
	}
	if sIn {
		m[IB] = Dim1
	}
	if sOut {
		m[EB] = Dim1
	}
	switch {
	case rOn || sOn:
		m[BB] = Dim1
	case anyPoint:
		m[BB] = Dim0
	}

	// Area entries. A boundary segment of one geometry inside the other's
	// interior witnesses area overlap on both sides of that segment.
	if rIn || sIn {
		m[II] = Dim2
	}
	if rOut || sIn {
		m[IE] = Dim2
	}
	if sOut || rIn {
		m[EI] = Dim2
	}

	// Interior-point fallbacks for the undecided open-set entries: needed
	// when one region's components avoid the other's boundary entirely
	// (nesting without contact, identical boundaries, disjointness).
	if m[II] == DimF || m[IE] == DimF {
		for _, pt := range r.interiorPoints() {
			switch probe(pt, s.locator, r.locator) {
			case geom.Inside:
				m[II] = Dim2
			case geom.Outside:
				m[IE] = Dim2
			}
		}
	}
	if m[II] == DimF || m[EI] == DimF {
		for _, pt := range s.interiorPoints() {
			switch probe(pt, r.locator, s.locator) {
			case geom.Inside:
				m[II] = Dim2
			case geom.Outside:
				m[EI] = Dim2
			}
		}
	}
	return m
}

// FindRelation computes the most specific topological relation of (r, s)
// by full refinement: the ST2 baseline's core.
func FindRelation(r, s *geom.MultiPolygon) Relation {
	return MostSpecific(Relate(r, s), AllRelations)
}
