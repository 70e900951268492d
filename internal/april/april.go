// Package april builds and evaluates APRIL raster-interval approximations
// (Georgiadis, Tzirita Zacharatou, Mamoulis, VLDB J. 2025): for each object
// a Progressive interval list P covering the grid cells fully inside the
// object and a Conservative list C covering all cells the object touches,
// with cells enumerated along a Hilbert curve. The package also implements
// the original APRIL intersection-only intermediate filter used as the
// APRIL baseline in the paper's experiments.
package april

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/interval"
	"repro/internal/raster"
)

// Approx is the APRIL approximation of one object.
type Approx struct {
	// P is the Progressive list: cells entirely inside the object.
	P interval.List
	// C is the Conservative list: all cells the object touches.
	C interval.List
}

// NumIntervals returns the interval counts of the P and C lists.
func (a Approx) NumIntervals() (p, c int) { return len(a.P), len(a.C) }

// Bytes returns the encoded storage size of the approximation.
func (a Approx) Bytes() int { return a.P.EncodedSize() + a.C.EncodedSize() }

// AppendEncode serializes the approximation.
func (a Approx) AppendEncode(buf []byte) []byte {
	buf = a.P.AppendEncode(buf)
	return a.C.AppendEncode(buf)
}

// DecodeApprox parses an approximation written by AppendEncode, returning
// it and the number of bytes consumed.
func DecodeApprox(buf []byte) (Approx, int, error) {
	p, n, err := interval.Decode(buf)
	if err != nil {
		return Approx{}, 0, fmt.Errorf("april: P list: %w", err)
	}
	c, m, err := interval.Decode(buf[n:])
	if err != nil {
		return Approx{}, 0, fmt.Errorf("april: C list: %w", err)
	}
	return Approx{P: p, C: c}, n + m, nil
}

// Builder constructs approximations over a fixed grid; the Hilbert curve
// order always matches the grid order. A Builder is immutable after
// construction and safe for concurrent use: Build allocates all of its
// working state per call, so the serving tier shares one Builder
// between ingest rasterization, cold builds, and background rebuilds
// without locking.
type Builder struct {
	grid  raster.Grid
	curve hilbert.Curve
}

// NewBuilder creates a Builder for the given data space and grid order
// (the paper uses order 16: a 2^16 × 2^16 grid).
func NewBuilder(space geom.MBR, order uint) *Builder {
	return &Builder{grid: raster.NewGrid(space, order), curve: hilbert.New(order)}
}

// Grid exposes the underlying grid.
func (b *Builder) Grid() raster.Grid { return b.grid }

// Build computes the APRIL approximation of a polygon at a cost that
// follows its boundary, not its area, so any object builds at any grid
// order. The boundary's partial cells are collected as sorted Hilbert
// ids; the rest is classified by descending the Hilbert quadrant tree,
// where a quadrant holding no partial cell is uniformly inside or
// outside the polygon and becomes at most one interval.
func (b *Builder) Build(p *geom.Polygon) (Approx, error) {
	var ids []uint64
	lastCol, lastRow := -1, -1
	win := b.grid.Boundary(p, func(col, row int) {
		if col != lastCol || row != lastRow {
			lastCol, lastRow = col, row
			ids = append(ids, b.curve.D(uint32(col), uint32(row)))
		}
	})
	slices.Sort(ids)
	ids = slices.Compact(ids)

	// Descend from the smallest quadrant holding every partial cell; the
	// rest of the grid is outside the polygon. It is connected and
	// boundary-free, and it holds cells of a grid-edge column (in the
	// top-level quadrant beside the partial cells'). Were such a cell
	// inside, the boundary would cross its row towards the grid edge, in
	// the cell or beyond the grid where it aliases onto the cell, and
	// would have marked it.
	q, k := uint64(0), b.grid.Order()
	if len(ids) > 0 {
		k = uint(bits.Len64(ids[0]^ids[len(ids)-1])+1) / 2
		q = ids[0] >> (2 * k)
	}
	d := descent{b: b, win: win, loc: geom.NewPolygonLocator(p)}
	d.visit(q, k, ids)
	return Approx{P: d.p, C: d.c}, nil
}

// descent accumulates the P and C lists of one Build.
type descent struct {
	b    *Builder
	win  raster.Window
	loc  *geom.Locator
	p, c interval.List
}

// visit classifies quadrant q of level k, the cells with ids
// [q<<2k, (q+1)<<2k), given the sorted partial ids it holds. Children
// are visited in id order, so both lists grow sorted.
func (d *descent) visit(q uint64, k uint, ids []uint64) {
	switch {
	case len(ids) == 0:
		if d.inside(q, k) {
			iv := interval.Interval{Start: q << (2 * k), End: (q + 1) << (2 * k)}
			d.p, d.c = appendRun(d.p, iv), appendRun(d.c, iv)
		}
	case k == 0:
		d.c = appendRun(d.c, interval.Interval{Start: q, End: q + 1})
	default:
		k--
		for child := q << 2; child < q<<2+4; child++ {
			n, _ := slices.BinarySearch(ids, (child+1)<<(2*k))
			d.visit(child, k, ids[:n])
			ids = ids[n:]
		}
	}
}

// inside classifies quadrant q of level k, which holds no partial cell.
// The boundary does not enter it, so it is uniformly inside or outside:
// outside when it reaches beyond the window, otherwise whatever one of
// its cell centres is.
func (d *descent) inside(q uint64, k uint) bool {
	x, y := d.b.curve.XY(q << (2 * k))
	side := 1 << k
	col, row := int(x)&^(side-1), int(y)&^(side-1)
	if col < d.win.ColMin || row < d.win.RowMin || col+side-1 > d.win.ColMax || row+side-1 > d.win.RowMax {
		return false
	}
	return d.loc.Locate(d.b.grid.CellCenter(int(x), int(y))) == geom.Inside
}

// appendRun appends iv to a sorted list, merging it into an adjacent
// last interval.
func appendRun(l interval.List, iv interval.Interval) interval.List {
	if n := len(l); n > 0 && l[n-1].End == iv.Start {
		l[n-1].End = iv.End
		return l
	}
	return append(l, iv)
}

// Verdict is the outcome of the APRIL intersection filter.
type Verdict uint8

// Intersection filter outcomes.
const (
	// Inconclusive: the approximations cannot decide; refinement needed.
	Inconclusive Verdict = iota
	// DefiniteDisjoint: the objects certainly do not intersect.
	DefiniteDisjoint
	// DefiniteIntersect: the objects certainly intersect.
	DefiniteIntersect
)

func (v Verdict) String() string {
	switch v {
	case DefiniteDisjoint:
		return "disjoint"
	case DefiniteIntersect:
		return "intersect"
	default:
		return "inconclusive"
	}
}

// IntersectionFilter is the original APRIL intermediate filter for spatial
// intersection joins: if the conservative lists do not overlap the objects
// are disjoint; if a conservative list overlaps the other's progressive
// list, a full cell of one object is touched by the other, so they
// certainly intersect; otherwise the filter is inconclusive.
func IntersectionFilter(r, s Approx) Verdict {
	if !interval.Overlap(r.C, s.C) {
		return DefiniteDisjoint
	}
	if interval.Overlap(r.C, s.P) {
		return DefiniteIntersect
	}
	if interval.Overlap(r.P, s.C) {
		return DefiniteIntersect
	}
	return Inconclusive
}
