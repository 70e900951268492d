// The rasterisation tests read a polygon's cell classes back from the
// APRIL lists built over this package's grid and boundary walk, the
// way the filters see them: a cell is full when P holds it, partial
// when only C does, and empty otherwise.
package raster_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/april"
	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/interval"
	"repro/internal/raster"
)

func unitSpace() geom.MBR { return geom.MBR{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16} }

func TestGridBasics(t *testing.T) {
	g := raster.NewGrid(unitSpace(), 4) // 16x16 grid, cell size 1x1
	if g.Side() != 16 || g.Order() != 4 {
		t.Fatalf("side=%d order=%d", g.Side(), g.Order())
	}
	w, h := g.CellSize()
	if w != 1 || h != 1 {
		t.Fatalf("cell size %v x %v", w, h)
	}
	if g.Col(3.5) != 3 || g.Row(15.99) != 15 {
		t.Errorf("Col/Row wrong: %d %d", g.Col(3.5), g.Row(15.99))
	}
	// Clamping.
	if g.Col(-5) != 0 || g.Col(99) != 15 {
		t.Error("clamping failed")
	}
	cb := g.CellMBR(2, 3)
	if cb != (geom.MBR{MinX: 2, MinY: 3, MaxX: 3, MaxY: 4}) {
		t.Errorf("CellMBR = %v", cb)
	}
	if g.CellCenter(2, 3) != (geom.Point{X: 2.5, Y: 3.5}) {
		t.Errorf("CellCenter = %v", g.CellCenter(2, 3))
	}
	if g.Space() != unitSpace() {
		t.Error("Space accessor wrong")
	}
}

// TestGridHugeCoordinates: coordinates far outside the space clamp to
// the edge on their own side. Converting to int before clamping sent
// 1e300 to column 0.
func TestGridHugeCoordinates(t *testing.T) {
	g := raster.NewGrid(unitSpace(), 4)
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{-0.5, 0},
		{16, 15},
		{1e19, 15}, // beyond the int64 range
		{-1e19, 0},
		{1e300, 15},
		{-1e300, 0},
		{math.Inf(1), 15},
		{math.Inf(-1), 0},
		{math.NaN(), 0},
	} {
		if got := g.Col(tc.v); got != tc.want {
			t.Errorf("Col(%g) = %d, want %d", tc.v, got, tc.want)
		}
		if got := g.Row(tc.v); got != tc.want {
			t.Errorf("Row(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestGridPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { raster.NewGrid(unitSpace(), 0) },
		func() { raster.NewGrid(unitSpace(), 42) },
		func() { raster.NewGrid(geom.EmptyMBR(), 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestWindowTooLarge: the boundary walk over a polygon covering nearly the
// whole order-16 grid marks only cells of its border band, all inside the
// returned window (the MBR expanded by one cell).
func TestWindowTooLarge(t *testing.T) {
	space := geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	g := raster.NewGrid(space, 16)
	p := rect(0.01, 0.01, 0.99, 0.99)
	want := raster.Window{
		ColMin: g.Col(0.01) - 1, RowMin: g.Row(0.01) - 1,
		ColMax: g.Col(0.99) + 1, RowMax: g.Row(0.99) + 1,
	}
	marks, outside := 0, 0
	win := g.Boundary(p, func(col, row int) {
		marks++
		if col < want.ColMin || col > want.ColMax || row < want.RowMin || row > want.RowMax {
			outside++
		}
	})
	if win != want {
		t.Fatalf("window = %+v, want %+v", win, want)
	}
	if outside != 0 {
		t.Errorf("%d marked cells lie outside the window", outside)
	}
	// Four edges of ~64 k cells each, each at most three cells thick.
	if limit := 4 * 3 * int(g.Side()); marks == 0 || marks > limit {
		t.Errorf("marked %d cells, want a border band of at most %d", marks, limit)
	}
}

func rect(x0, y0, x1, y1 float64) *geom.Polygon {
	return geom.NewPolygon(geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}})
}

// cells is a polygon's approximation read back per grid cell.
type cells struct {
	april.Approx
	g     raster.Grid
	curve hilbert.Curve
}

func build(t *testing.T, order uint, p *geom.Polygon) cells {
	t.Helper()
	b := april.NewBuilder(unitSpace(), order)
	ap, err := b.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ap.P.IsValid() || !ap.C.IsValid() || !interval.Inside(ap.P, ap.C) {
		t.Fatalf("lists invalid or P ⊄ C: P=%v C=%v", ap.P, ap.C)
	}
	return cells{Approx: ap, g: b.Grid(), curve: hilbert.New(order)}
}

func (c cells) id(col, row int) uint64 { return c.curve.D(uint32(col), uint32(row)) }

func (c cells) full(col, row int) bool { return c.P.ContainsCell(c.id(col, row)) }

func (c cells) partial(col, row int) bool {
	return c.C.ContainsCell(c.id(col, row)) && !c.full(col, row)
}

func (c cells) empty(col, row int) bool { return !c.C.ContainsCell(c.id(col, row)) }

func (c cells) counts() (full, partial uint64) {
	return c.P.NumCells(), c.C.NumCells() - c.P.NumCells()
}

// TestRasterizeAlignedSquare: a grid-aligned 4x4 square. Interior cells
// are the 2x2 inner block (boundary cells and their outside neighbours are
// partial due to border snapping).
func TestRasterizeAlignedSquare(t *testing.T) {
	c := build(t, 4, rect(4, 4, 8, 8))
	for col := 5; col < 7; col++ {
		for row := 5; row < 7; row++ {
			if !c.full(col, row) {
				t.Errorf("cell (%d,%d) not full", col, row)
			}
		}
	}
	// Cells crossed by the boundary: columns/rows 4 and 7 within the square,
	// plus the exactly-touching outside neighbours 3 and 8.
	for _, col := range []int{3, 4, 7, 8} {
		if !c.partial(col, 4) {
			t.Errorf("boundary cell (%d,4) not partial", col)
		}
	}
	// Far-away cells are empty.
	if !c.empty(0, 0) || !c.empty(12, 12) {
		t.Error("distant cells should be empty")
	}
	full, partial := c.counts()
	if full != 4 {
		t.Errorf("full count = %d, want 4", full)
	}
	// Boundary band: the square's border touches cells 3..8 in each
	// direction minus the full block: (6*6 window) - 4 full = 32 partial.
	if partial != 32 {
		t.Errorf("partial count = %d, want 32", partial)
	}
}

// TestRasterizeMisalignedSquare: a square strictly inside cell borders.
func TestRasterizeMisalignedSquare(t *testing.T) {
	full, partial := build(t, 4, rect(4.5, 4.5, 7.5, 7.5)).counts()
	if full != 4 { // cells (5..6, 5..6)
		t.Errorf("full = %d, want 4", full)
	}
	if partial != 12 { // ring of boundary cells (4..7)^2 minus 4 full
		t.Errorf("partial = %d, want 12", partial)
	}
}

func randBlob(rng *rand.Rand, cx, cy, radius float64, n int) geom.Ring {
	angles := make([]float64, n)
	step := 2 * math.Pi / float64(n)
	for i := range angles {
		angles[i] = float64(i)*step + rng.Float64()*step*0.8
	}
	ring := make(geom.Ring, n)
	for i, a := range angles {
		r := radius * (0.4 + 0.6*rng.Float64())
		ring[i] = geom.Point{X: cx + r*math.Cos(a), Y: cy + r*math.Sin(a)}
	}
	return ring
}

// TestRasterizeConservative is the core soundness property: every full
// cell lies entirely inside the polygon, and every point of the polygon's
// boundary lies in a partial cell.
func TestRasterizeConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		p := geom.NewPolygon(randBlob(rng, 8, 8, 5, 6+rng.Intn(40)))
		c := build(t, 6, p) // 64x64, cell 0.25
		for _, d := range c.P.Cells() {
			x, y := c.curve.XY(d)
			cb := c.g.CellMBR(int(x), int(y))
			for _, pt := range []geom.Point{
				{X: cb.MinX, Y: cb.MinY}, {X: cb.MaxX, Y: cb.MinY},
				{X: cb.MaxX, Y: cb.MaxY}, {X: cb.MinX, Y: cb.MaxY},
				cb.Center(),
			} {
				if geom.LocateInPolygon(pt, p) == geom.Outside {
					t.Fatalf("trial %d: full cell (%d,%d) has outside point %v", trial, x, y, pt)
				}
			}
		}
		// Boundary samples must land in partial cells.
		p.Edges(func(a, b geom.Point) {
			for k := 0; k <= 8; k++ {
				pt := geom.Lerp(a, b, float64(k)/8)
				if !c.partial(c.g.Col(pt.X), c.g.Row(pt.Y)) {
					t.Fatalf("trial %d: boundary point %v not in a partial cell", trial, pt)
				}
			}
		})
		// Interior samples must land in non-empty cells.
		ip := geom.PointOnSurface(p)
		if c.empty(c.g.Col(ip.X), c.g.Row(ip.Y)) {
			t.Fatalf("trial %d: interior point %v in empty cell", trial, ip)
		}
	}
}

// TestRasterizePolygonWithHole checks that hole interiors are not full.
func TestRasterizePolygonWithHole(t *testing.T) {
	p := geom.NewPolygon(
		geom.Ring{{X: 2, Y: 2}, {X: 14, Y: 2}, {X: 14, Y: 14}, {X: 2, Y: 14}},
		geom.Ring{{X: 6, Y: 6}, {X: 10, Y: 6}, {X: 10, Y: 10}, {X: 6, Y: 10}},
	)
	c := build(t, 5, p) // 32x32, cell 0.5
	g := c.g
	// Deep inside the hole: empty.
	if !c.empty(g.Col(8), g.Row(8)) {
		t.Error("hole center not empty")
	}
	// Solid part: full.
	if !c.full(g.Col(4), g.Row(4)) {
		t.Error("solid part not full")
	}
	// Hole ring: partial.
	if !c.partial(g.Col(6), g.Row(8)) {
		t.Error("hole boundary not partial")
	}
}

func TestRasterizeTinyPolygonWithinOneCell(t *testing.T) {
	c := build(t, 4, rect(5.1, 5.1, 5.4, 5.4))
	full, partial := c.counts()
	if full != 0 || partial != 1 {
		t.Errorf("tiny polygon: full=%d partial=%d, want 0, 1", full, partial)
	}
	if !c.partial(5, 5) {
		t.Error("the containing cell must be partial")
	}
}

// TestRasterizeHugeCoordinate: a vertex far outside the space aliases
// onto the grid edge on its own side, so the cells the polygon covers
// inside the space stay full. With 1e300 mapped to column 0, the window
// collapsed to two columns and cell (8,8) came out empty.
func TestRasterizeHugeCoordinate(t *testing.T) {
	tri := geom.NewPolygon(geom.Ring{{X: 1, Y: 1}, {X: 1e300, Y: 8}, {X: 1, Y: 15}})
	if err := geom.ValidatePolygon(tri); err != nil {
		t.Fatalf("fixture must be valid input: %v", err)
	}
	c := build(t, 4, tri)
	if !c.full(8, 8) {
		t.Error("cell (8,8) lies inside the triangle but is not full")
	}
	if !c.partial(15, 8) {
		t.Error("the edge column must carry the boundary beyond the space")
	}
}
