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
// edge table with per-edge bounding boxes and per-ring end offsets, a
// minX-sorted edge index for the noding sweep, cached bounds, and lazily
// computed per-component interior points. Preparing once amortizes all
// of it across the many pairs an object participates in; a Prepared is
// immutable after construction and safe for concurrent use (interior
// points are guarded by a sync.Once).
type Prepared struct {
	Geom    *geom.MultiPolygon
	locator *geom.Locator
	bounds  geom.MBR
	edges   []prepEdge // boundary edges in Geom.Edges order
	ringEnd []int32    // per ring, in Geom.Edges order: its end offset in edges
	byMinX  []int32    // edge indices sorted by (minX, index)
	intOnce sync.Once
	intPts  []geom.Point
}

// Prepare builds the locator and edge tables for g.
func Prepare(g *geom.MultiPolygon) *Prepared {
	p := &Prepared{Geom: g, locator: geom.NewLocator(g), bounds: g.Bounds()}
	p.edges = make([]prepEdge, 0, g.NumVertices()) // one edge per vertex
	rings := 0
	for _, poly := range g.Polys {
		rings += 1 + len(poly.Holes)
	}
	p.ringEnd = make([]int32, 0, rings)
	for _, poly := range g.Polys {
		poly.Rings(func(r geom.Ring) {
			r.Edges(func(a, b geom.Point) { p.edges = append(p.edges, newPrepEdge(a, b)) })
			p.ringEnd = append(p.ringEnd, int32(len(p.edges)))
		})
	}
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

// InteriorPoints computes one interior point per polygon component,
// caching the result: the part of preparation a refinement builds only
// when it needs it (see Relate's interior-point fallbacks). Safe under
// concurrent callers.
func (p *Prepared) InteriorPoints() []geom.Point {
	p.intOnce.Do(func() { p.intPts = geom.InteriorPoints(p.Geom) })
	return p.intPts
}

// locate is loc.Locate, counted on the scratch.
func (sc *Scratch) locate(loc *geom.Locator, pt geom.Point) geom.Location {
	sc.locates++
	return loc.Locate(pt)
}

// probe classifies an interior point of the *other* geometry, nudging the
// probe off numerically-degenerate boundary hits while staying inside own.
func (sc *Scratch) probe(pt geom.Point, other, own *geom.Locator) geom.Location {
	loc := sc.locate(other, pt)
	if loc != geom.OnBoundary {
		return loc
	}
	const d = 1e-9
	for _, off := range [...]geom.Point{{X: d}, {X: -d}, {Y: d}, {Y: -d}} {
		q := pt.Add(off)
		if sc.locate(own, q) != geom.Inside {
			continue
		}
		if l := sc.locate(other, q); l != geom.OnBoundary {
			return l
		}
	}
	return loc
}

// classifySub folds the location of the midpoint of edge e's
// sub-segment [t0, t1] into the side flags.
func (sc *Scratch) classifySub(e *prepEdge, t0, t1 float64, loc *geom.Locator, in, on, out *bool) {
	a, b := e.a, e.b
	if t0 != 0 {
		a = geom.Lerp(e.a, e.b, t0)
	}
	if t1 != 1 {
		b = geom.Lerp(e.a, e.b, t1)
	}
	switch sc.locate(loc, geom.Midpoint(a, b)) {
	case geom.Inside:
		*in = true
	case geom.OnBoundary:
		*on = true
	default:
		*out = true
	}
}

// classifySide labels one boundary against the other geometry's locator,
// one run at a time. A run is a stretch of a ring between two contacts:
// its interior meets the other boundary nowhere, or lies on it
// throughout (an overlap, whose ends are contacts), so the midpoint of
// its first positive-length noded sub-segment labels all of it. The walk
// keeps a "need locate" flag, set at each ring's start, at each contact
// vertex and at each cut; once a run is labelled it jumps to the next
// contact (a word-wise scan of the vertex bits), so a ring costs one
// Locate plus at most one per contact (the run that wraps past the
// ring's start may take a second), not one per edge. Sub-segments are those of the noded boundary — cuts within
// 1e-12 of each other collapse — and the walk uses a single cursor over
// the cuts, so it allocates nothing. Early-exits once all three flags
// are set.
func (sc *Scratch) classifySide(p *Prepared, ct *contacts, loc *geom.Locator, in, on, out *bool) {
	c, lo := 0, int32(0)
	for _, hi := range p.ringEnd {
		need := true
		for i := lo; i < hi; {
			if *in && *on && *out {
				return
			}
			need = need || ct.at(i)
			e := &p.edges[i]
			prev := 0.0
			for ; c < len(ct.cuts) && ct.cuts[c].edge == i; c++ {
				if t := ct.cuts[c].t; t-prev > 1e-12 {
					if need {
						sc.classifySub(e, prev, t, loc, in, on, out)
					}
					prev, need = t, true
				}
			}
			if need && 1-prev > 1e-12 {
				sc.classifySub(e, prev, 1, loc, in, on, out)
				need = false
			}
			i++
			if !need && i < hi {
				// Nothing changes before the next contact: skip to it.
				next := hi
				if c < len(ct.cuts) && ct.cuts[c].edge < next {
					next = ct.cuts[c].edge
				}
				i = ct.nextVert(i, next)
			}
		}
		lo = hi
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
// Derivation: the noder reports every point where the two boundaries
// meet, contacts at edge endpoints included. Between two consecutive
// contacts on a ring — a run — one boundary lies entirely in the
// interior, on the boundary, or in the exterior of the other (it cannot
// reach the other boundary without a contact, and an overlap's ends are
// contacts), so locating one midpoint labels the whole run exactly, and
// a ring without contacts is a single run. Because interiors and
// exteriors are open sets, boundary/interior and boundary/exterior
// intersections are never isolated points, which makes the run flags
// sufficient for all B-row and B-column entries.
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
	sc.classifySide(r, &sc.r, s.locator, &rIn, &rOn, &rOut)
	sc.classifySide(s, &sc.s, r.locator, &sIn, &sOn, &sOut)

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
		for _, pt := range r.InteriorPoints() {
			switch sc.probe(pt, s.locator, r.locator) {
			case geom.Inside:
				m[II] = Dim2
			case geom.Outside:
				m[IE] = Dim2
			}
		}
	}
	if m[II] == DimF || m[EI] == DimF {
		for _, pt := range s.InteriorPoints() {
			switch sc.probe(pt, r.locator, s.locator) {
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
