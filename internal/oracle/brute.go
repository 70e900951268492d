// Package oracle cross-checks the production find-relation pipeline
// against an independent brute-force refiner and a set of metamorphic
// invariants. It is the repository's differential correctness gate: every
// geometry pair that flows through it is evaluated twice — once by the
// production path (MBR filter → APRIL interval filters → DE-9IM
// refinement) and once by a naive O(n·m) implementation written from
// scratch — and any disagreement is shrunk to a minimal WKT pair and
// recorded under testdata/regressions/ for permanent replay.
//
// The brute refiner deliberately shares no algorithm with internal/de9im:
// point location uses the winding number (de9im uses slab-indexed ray
// crossing parity), boundary classification uses naive all-pairs noding
// (de9im uses a plane sweep), and the area entries II/IE/EI come from a
// strip scanline decomposition (de9im derives them from boundary classes
// plus interior-point probes). Only the Matrix/Dim value definitions are
// shared, since they are the vocabulary both sides must speak.
//
// All predicates here are exact over floats: no epsilon snapping. The
// generators therefore keep coordinates on a coarse binary lattice, where
// every cross product is computed without rounding, so an oracle verdict
// is ground truth rather than a second opinion.
//
// The flip side of exactness is the oracle's known limit: on arbitrary
// coordinates the production epsilon tolerance and the oracle's exact
// predicates legitimately disagree within ~Eps of a boundary, so the
// datagen-corpus checks (CheckCorpusPair) run only the transforms that
// are exact on any floats and the harness cannot prove epsilon-regime
// behaviour — it exercises it.
package oracle

import (
	"math"
	"sort"

	"repro/internal/de9im"
	"repro/internal/geom"
)

// xprod returns the exact-sign cross product (a-o) × (b-o).
func xprod(o, a, b geom.Point) float64 {
	return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
}

// onSegment reports whether p lies on the closed segment [a, b], with
// exact comparisons (no tolerance).
func onSegment(p, a, b geom.Point) bool {
	if xprod(a, b, p) != 0 {
		return false
	}
	return math.Min(a.X, b.X) <= p.X && p.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= p.Y && p.Y <= math.Max(a.Y, b.Y)
}

// region classification of a point.
type side int

const (
	sideOut side = iota
	sideOn
	sideIn
)

// locate classifies p against the region of m by winding number over all
// ring edges. Shells are CCW and holes CW (the geom constructors
// normalize), so the total winding number is nonzero exactly for interior
// points of the multipolygon.
func locate(p geom.Point, m *geom.MultiPolygon) side {
	wn := 0
	onB := false
	m.Edges(func(a, b geom.Point) {
		if onB {
			return
		}
		if onSegment(p, a, b) {
			onB = true
			return
		}
		if a.Y <= p.Y {
			if b.Y > p.Y && xprod(a, b, p) > 0 {
				wn++
			}
		} else if b.Y <= p.Y && xprod(a, b, p) < 0 {
			wn--
		}
	})
	switch {
	case onB:
		return sideOn
	case wn != 0:
		return sideIn
	default:
		return sideOut
	}
}

// segParam returns the parameter of p along segment (a, b), projecting on
// the dominant axis.
func segParam(a, b, p geom.Point) float64 {
	dx, dy := b.X-a.X, b.Y-a.Y
	if math.Abs(dx) >= math.Abs(dy) {
		if dx == 0 {
			return 0
		}
		return (p.X - a.X) / dx
	}
	return (p.Y - a.Y) / dy
}

// segCuts appends the parameters in (0, 1) at which segment (a, b) meets
// segment (c, d) and reports whether the segments share any point at all.
func segCuts(a, b, c, d geom.Point, cuts []float64) ([]float64, bool) {
	d1 := xprod(c, d, a)
	d2 := xprod(c, d, b)
	d3 := xprod(a, b, c)
	d4 := xprod(a, b, d)

	if d1 == 0 && d2 == 0 {
		// Collinear: overlap (or touch) iff parameter ranges intersect.
		tc, td := segParam(a, b, c), segParam(a, b, d)
		lo, hi := math.Min(tc, td), math.Max(tc, td)
		if hi < 0 || lo > 1 {
			return cuts, false
		}
		if lo > 0 && lo < 1 {
			cuts = append(cuts, lo)
		}
		if hi > 0 && hi < 1 {
			cuts = append(cuts, hi)
		}
		return cuts, true
	}

	touch := false
	if (d1 > 0) != (d2 > 0) && (d3 > 0) != (d4 > 0) && d1 != 0 && d2 != 0 && d3 != 0 && d4 != 0 {
		// Proper crossing: cross(c,d,·) is affine along (a, b), zero at t.
		t := d1 / (d1 - d2)
		if t > 0 && t < 1 {
			cuts = append(cuts, t)
		}
		return cuts, true
	}
	// Endpoint touches.
	if d1 == 0 && onSegment(a, c, d) {
		touch = true
	}
	if d2 == 0 && onSegment(b, c, d) {
		touch = true
	}
	if d3 == 0 && onSegment(c, a, b) {
		touch = true
		if t := segParam(a, b, c); t > 0 && t < 1 {
			cuts = append(cuts, t)
		}
	}
	if d4 == 0 && onSegment(d, a, b) {
		touch = true
		if t := segParam(a, b, d); t > 0 && t < 1 {
			cuts = append(cuts, t)
		}
	}
	return cuts, touch
}

type bEdge struct{ a, b geom.Point }

func collect(m *geom.MultiPolygon) []bEdge {
	var out []bEdge
	m.Edges(func(a, b geom.Point) { out = append(out, bEdge{a, b}) })
	return out
}

// onCollinear reports whether the piece [t0, t1] of edge e lies on an
// edge of ye collinear with it. The test is exact: the piece's ends are
// cut parameters computed by segParam, as are the overlap's, so a piece
// inside an overlap compares inside it bit for bit. Locating the piece's
// midpoint instead would round it off a diagonal edge whenever the cut
// parameters are not dyadic.
func onCollinear(e bEdge, t0, t1 float64, ye []bEdge) bool {
	for _, f := range ye {
		if xprod(f.a, f.b, e.a) != 0 || xprod(f.a, f.b, e.b) != 0 {
			continue
		}
		tc, td := segParam(e.a, e.b, f.a), segParam(e.a, e.b, f.b)
		if math.Min(tc, td) <= t0 && t1 <= math.Max(tc, td) {
			return true
		}
	}
	return false
}

// boundaryAgainst nodes every edge of xe at its intersections with ye and
// classifies each resulting piece against region y: on y's boundary when
// it lies on a collinear edge of ye, else by its midpoint's location.
// It reports whether any piece lies inside, on, or outside y, and whether
// the two boundaries share at least one point.
func boundaryAgainst(xe, ye []bEdge, y *geom.MultiPolygon) (in, on, out, touch bool) {
	var cuts []float64
	for _, e := range xe {
		cuts = cuts[:0]
		for _, f := range ye {
			var t bool
			cuts, t = segCuts(e.a, e.b, f.a, f.b, cuts)
			touch = touch || t
		}
		sort.Float64s(cuts)
		prev := 0.0
		classify := func(t0, t1 float64) {
			if t1-t0 <= 1e-12 {
				return
			}
			if onCollinear(e, t0, t1, ye) {
				on = true
				return
			}
			mid := geom.Lerp(e.a, e.b, (t0+t1)/2)
			switch locate(mid, y) {
			case sideIn:
				in = true
			case sideOn:
				on = true
			default:
				out = true
			}
		}
		for _, t := range cuts {
			classify(prev, t)
			if t > prev {
				prev = t
			}
		}
		classify(prev, 1)
		if in && on && out {
			// Flags saturated; keep scanning only for touch.
			for _, e2 := range xe {
				if touch {
					break
				}
				for _, f := range ye {
					if _, t := segCuts(e2.a, e2.b, f.a, f.b, nil); t {
						touch = true
						break
					}
				}
			}
			return
		}
	}
	return
}

// areaFlags decides whether int(a)∩int(b), int(a)∩ext(b) and
// ext(a)∩int(b) are nonempty, by decomposing the plane into horizontal
// strips between consecutive critical heights (vertices and boundary
// intersection points). Inside a strip the crossing structure of both
// boundaries is constant, so classifying one midpoint per sub-interval of
// one scanline per strip is exact: every nonempty open region spans at
// least one full strip.
func areaFlags(a, b *geom.MultiPolygon) (ii, ie, ei bool) {
	ae, be := collect(a), collect(b)
	ys := make([]float64, 0, 2*(len(ae)+len(be)))
	for _, e := range ae {
		ys = append(ys, e.a.Y)
	}
	for _, e := range be {
		ys = append(ys, e.a.Y)
	}
	// Proper boundary crossings introduce critical heights too.
	for _, e := range ae {
		for _, f := range be {
			d1 := xprod(f.a, f.b, e.a)
			d2 := xprod(f.a, f.b, e.b)
			d3 := xprod(e.a, e.b, f.a)
			d4 := xprod(e.a, e.b, f.b)
			if (d1 > 0) != (d2 > 0) && (d3 > 0) != (d4 > 0) && d1 != 0 && d2 != 0 && d3 != 0 && d4 != 0 {
				t := d1 / (d1 - d2)
				ys = append(ys, e.a.Y+t*(e.b.Y-e.a.Y))
			}
		}
	}
	sort.Float64s(ys)

	// A scanline crossing: its x and the edge it lies on.
	type crossing struct {
		x float64
		e bEdge
	}
	crossings := func(edges []bEdge, y float64, xs []float64, merged []crossing) ([]float64, []crossing) {
		xs = xs[:0]
		for _, e := range edges {
			if (e.a.Y < y) != (e.b.Y < y) {
				x := e.a.X + (y-e.a.Y)*(e.b.X-e.a.X)/(e.b.Y-e.a.Y)
				xs = append(xs, x)
				merged = append(merged, crossing{x, e})
			}
		}
		sort.Float64s(xs)
		return xs, merged
	}
	// Two collinear edges cross a scanline at one point, but the x
	// computed from each (say, a shared edge traversed in opposite
	// directions) may differ in the last bits: the gap between them is
	// no region, and its midpoint must not be classified.
	collinear := func(e, f bEdge) bool { return xprod(e.a, e.b, f.a) == 0 && xprod(e.a, e.b, f.b) == 0 }
	// odd reports whether the ray from x to +inf crosses an odd number of
	// boundary edges: even-odd membership, exact because no xs equals x.
	odd := func(xs []float64, x float64) bool {
		i := sort.SearchFloat64s(xs, x)
		return (len(xs)-i)%2 == 1
	}

	var xsA, xsB []float64
	var merged []crossing
	for i := 0; i+1 < len(ys) && !(ii && ie && ei); i++ {
		y0, y1 := ys[i], ys[i+1]
		y := (y0 + y1) / 2
		if !(y > y0 && y < y1) {
			continue
		}
		xsA, merged = crossings(ae, y, xsA, merged[:0])
		xsB, merged = crossings(be, y, xsB, merged)
		if len(merged) == 0 {
			continue
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i].x < merged[j].x })
		for j := 0; j+1 < len(merged); j++ {
			x0, x1 := merged[j].x, merged[j+1].x
			x := (x0 + x1) / 2
			if !(x > x0 && x < x1) || collinear(merged[j].e, merged[j+1].e) {
				continue
			}
			inA, inB := odd(xsA, x), odd(xsB, x)
			switch {
			case inA && inB:
				ii = true
			case inA:
				ie = true
			case inB:
				ei = true
			}
		}
	}
	return
}

// Relate computes the DE-9IM matrix of (a, b) by brute force: naive
// all-pairs noding, winding-number point location, and a strip scanline
// for the area entries. For valid polygonal input on exactly-representable
// coordinates the result is exact.
func Relate(a, b *geom.MultiPolygon) de9im.Matrix {
	var m de9im.Matrix
	for i := range m {
		m[i] = de9im.DimF
	}
	m[de9im.EE] = de9im.Dim2

	ae, be := collect(a), collect(b)
	aIn, aOn, aOut, touch := boundaryAgainst(ae, be, b)
	bIn, bOn, bOut, _ := boundaryAgainst(be, ae, a)
	ii, ie, ei := areaFlags(a, b)

	if aIn {
		m[de9im.BI] = de9im.Dim1
	}
	if aOut {
		m[de9im.BE] = de9im.Dim1
	}
	if bIn {
		m[de9im.IB] = de9im.Dim1
	}
	if bOut {
		m[de9im.EB] = de9im.Dim1
	}
	switch {
	case aOn || bOn:
		m[de9im.BB] = de9im.Dim1
	case touch:
		m[de9im.BB] = de9im.Dim0
	}
	if ii {
		m[de9im.II] = de9im.Dim2
	}
	if ie {
		m[de9im.IE] = de9im.Dim2
	}
	if ei {
		m[de9im.EI] = de9im.Dim2
	}
	return m
}

// MostSpecific is the oracle's ground-truth relation for a pair: the most
// specific relation whose mask matches the brute-force matrix.
func MostSpecific(a, b *geom.MultiPolygon) de9im.Relation {
	return de9im.MostSpecific(Relate(a, b), de9im.AllRelations)
}
