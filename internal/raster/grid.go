// Package raster lays the paper's fine-grained global grid over the data
// space and finds the cells a polygon's boundary touches (the PARTIAL
// cells). The APRIL approximation builder classifies every other cell
// from those alone: a region of the grid the boundary does not enter is
// uniformly inside or outside the polygon.
package raster

import (
	"repro/internal/geom"
)

// Grid is a 2^order × 2^order uniform grid laid over a data space, the
// global grid of the paper (Sec. 4.1 uses order 16 per scenario).
type Grid struct {
	space        geom.MBR
	order        uint
	side         uint32
	cellW, cellH float64
}

// NewGrid lays a 2^order × 2^order grid over the given data space.
func NewGrid(space geom.MBR, order uint) Grid {
	if order == 0 || order > 31 {
		panic("raster: order out of range [1, 31]")
	}
	if space.IsEmpty() || space.Width() <= 0 || space.Height() <= 0 {
		panic("raster: empty data space")
	}
	side := uint32(1) << order
	return Grid{
		space: space,
		order: order,
		side:  side,
		cellW: space.Width() / float64(side),
		cellH: space.Height() / float64(side),
	}
}

// Order returns the grid order.
func (g Grid) Order() uint { return g.order }

// Side returns the number of cells per dimension.
func (g Grid) Side() uint32 { return g.side }

// Space returns the data space covered by the grid.
func (g Grid) Space() geom.MBR { return g.space }

// CellSize returns the world-space dimensions of one cell.
func (g Grid) CellSize() (w, h float64) { return g.cellW, g.cellH }

// Col returns the column of world coordinate x, clamped to the grid.
func (g Grid) Col(x float64) int { return g.index((x - g.space.MinX) / g.cellW) }

// Row returns the row of world coordinate y, clamped to the grid.
func (g Grid) Row(y float64) int { return g.index((y - g.space.MinY) / g.cellH) }

// index clamps a fractional cell index to the grid before converting it:
// converting first would overflow for coordinates far outside the space
// (on amd64 int(1e300) is the minimum int, which then clamps to the wrong
// edge). NaN maps to 0.
func (g Grid) index(f float64) int {
	if !(f >= 0) {
		return 0
	}
	if f >= float64(g.side) {
		return int(g.side) - 1
	}
	return int(f)
}

func (g Grid) clamp(v int) int {
	if v < 0 {
		return 0
	}
	if v >= int(g.side) {
		return int(g.side) - 1
	}
	return v
}

// CellMBR returns the world-space rectangle of cell (col, row).
func (g Grid) CellMBR(col, row int) geom.MBR {
	x := g.space.MinX + float64(col)*g.cellW
	y := g.space.MinY + float64(row)*g.cellH
	return geom.MBR{MinX: x, MinY: y, MaxX: x + g.cellW, MaxY: y + g.cellH}
}

// CellCenter returns the world-space center of cell (col, row).
func (g Grid) CellCenter(col, row int) geom.Point {
	return geom.Point{
		X: g.space.MinX + (float64(col)+0.5)*g.cellW,
		Y: g.space.MinY + (float64(row)+0.5)*g.cellH,
	}
}
