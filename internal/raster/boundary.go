package raster

import (
	"math"

	"repro/internal/geom"
)

// Window is an inclusive range of grid cells.
type Window struct {
	ColMin, RowMin, ColMax, RowMax int
}

// Boundary calls mark for every cell the polygon's boundary touches (its
// PARTIAL cells), edge by edge, so a cell can be marked more than once.
// It returns the polygon's window, its MBR expanded by one cell and
// clamped to the grid, which holds every marked cell.
//
// Each edge is walked one row band at a time: within a band (one cell
// tall) the edge spans a contiguous column range, and every cell in it is
// touched. Coordinates that land exactly on cell borders mark both
// neighbouring cells, so cells that merely touch the boundary are
// partial — this is what lets the interval filters detect 'meets' pairs.
// Boundary outside the data space aliases onto the grid's edge cells.
func (g Grid) Boundary(p *geom.Polygon, mark func(col, row int)) Window {
	b := p.Bounds()
	// Expand the window by one cell: a boundary lying exactly on the MBR
	// border also touches the neighbouring cells, which must become
	// partial for the conservative list to cover all touched cells.
	colMin, colMax := g.clamp(g.Col(b.MinX)-1), g.clamp(g.Col(b.MaxX)+1)
	rowMin, rowMax := g.clamp(g.Row(b.MinY)-1), g.clamp(g.Row(b.MaxY)+1)

	// Border tolerance: a coordinate within snap of a cell border marks
	// both sides.
	snapX, snapY := g.cellW*1e-9, g.cellH*1e-9

	markBand := func(row int, xlo, xhi float64) {
		if row < rowMin || row > rowMax {
			return
		}
		clo := g.Col(xlo + snapX)
		if g.Col(xlo-snapX) < clo {
			clo = g.Col(xlo - snapX)
		}
		chi := g.Col(xhi - snapX)
		if g.Col(xhi+snapX) > chi {
			chi = g.Col(xhi + snapX)
		}
		if clo < colMin {
			clo = colMin
		}
		if chi > colMax {
			chi = colMax
		}
		for c := clo; c <= chi; c++ {
			mark(c, row)
		}
	}

	p.Edges(func(a, b2 geom.Point) {
		yLo, yHi := math.Min(a.Y, b2.Y), math.Max(a.Y, b2.Y)
		rLo := g.Row(yLo + snapY)
		if g.Row(yLo-snapY) < rLo {
			rLo = g.Row(yLo - snapY)
		}
		rHi := g.Row(yHi - snapY)
		if g.Row(yHi+snapY) > rHi {
			rHi = g.Row(yHi + snapY)
		}
		for row := rLo; row <= rHi; row++ {
			band := g.CellMBR(colMin, row) // y-range of this band
			x0, x1, ok := clipSegmentToBand(a, b2, band.MinY-snapY, band.MaxY+snapY)
			if ok {
				markBand(row, x0, x1)
			}
		}
	})
	return Window{ColMin: colMin, RowMin: rowMin, ColMax: colMax, RowMax: rowMax}
}

// clipSegmentToBand returns the x-extent of segment (a, b) within the
// horizontal band [yLo, yHi], or ok=false when the segment misses it.
func clipSegmentToBand(a, b geom.Point, yLo, yHi float64) (x0, x1 float64, ok bool) {
	ay, by := a.Y, b.Y
	if ay > by {
		a, b = b, a
		ay, by = by, ay
	}
	if by < yLo || ay > yHi {
		return 0, 0, false
	}
	t0, t1 := 0.0, 1.0
	dy := by - ay
	if dy > 0 {
		if ay < yLo {
			t0 = (yLo - ay) / dy
		}
		if by > yHi {
			t1 = (yHi - ay) / dy
		}
	}
	xa := a.X + t0*(b.X-a.X)
	xb := a.X + t1*(b.X-a.X)
	if xa > xb {
		xa, xb = xb, xa
	}
	return xa, xb, true
}
