package april_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/april"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/interval"
	"repro/internal/oracle"
	"repro/internal/raster"
)

// referenceBuild is the dense builder Build replaced, kept as the
// differential reference: it classifies every cell of the polygon's
// window and maps each non-empty one through the Hilbert curve. Its cost
// follows the window's area, so use it only on grids small enough to
// enumerate.
func referenceBuild(p *geom.Polygon, g raster.Grid) april.Approx {
	const (
		empty = iota
		partial
		full
	)
	clamp := func(v int) int { return max(0, min(v, int(g.Side())-1)) }
	cellW, cellH := g.CellSize()
	b := p.Bounds()
	colMin, colMax := clamp(g.Col(b.MinX)-1), clamp(g.Col(b.MaxX)+1)
	rowMin, rowMax := clamp(g.Row(b.MinY)-1), clamp(g.Row(b.MaxY)+1)
	w, h := colMax-colMin+1, rowMax-rowMin+1
	states := make([]uint8, w*h)

	// Phase 1: mark every cell a boundary edge touches, one row band at
	// a time.
	snapX, snapY := cellW*1e-9, cellH*1e-9
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
		base := (row - rowMin) * w
		for c := clo; c <= chi; c++ {
			states[base+c-colMin] = partial
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
			band := g.CellMBR(colMin, row)
			x0, x1, ok := clipSegmentToBand(a, b2, band.MinY-snapY, band.MaxY+snapY)
			if ok {
				markBand(row, x0, x1)
			}
		}
	})

	// Phase 2: a maximal run of unmarked cells in a row is uniformly
	// inside or outside, so one point-in-polygon probe classifies it.
	loc := geom.NewPolygonLocator(p)
	for row := rowMin; row <= rowMax; row++ {
		base := (row - rowMin) * w
		for c := colMin; c <= colMax; {
			if states[base+c-colMin] == partial {
				c++
				continue
			}
			start := c
			for c <= colMax && states[base+c-colMin] != partial {
				c++
			}
			if loc.Locate(g.CellCenter(start, row)) == geom.Inside {
				for k := start; k < c; k++ {
					states[base+k-colMin] = full
				}
			}
		}
	}

	curve := hilbert.New(g.Order())
	var fullIDs, allIDs []uint64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s := states[y*w+x]
			if s == empty {
				continue
			}
			d := curve.D(uint32(colMin+x), uint32(rowMin+y))
			allIDs = append(allIDs, d)
			if s == full {
				fullIDs = append(fullIDs, d)
			}
		}
	}
	// Pre-sorting with slices.Sort is only for speed: FromCells sorts
	// already-sorted input in linear time.
	slices.Sort(fullIDs)
	slices.Sort(allIDs)
	return april.Approx{P: interval.FromCells(fullIDs), C: interval.FromCells(allIDs)}
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

// matchReference reports whether b builds p to exactly the reference
// lists, interval for interval.
func matchReference(t *testing.T, b *april.Builder, p *geom.Polygon) bool {
	t.Helper()
	got, err := b.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceBuild(p, b.Grid())
	return interval.Match(got.P, want.P) && interval.Match(got.C, want.C)
}

// TestBuildMatchesReference: Build's lists equal the dense reference's
// on every object of the generated suite and on the oracle's adversarial
// lattice generators.
func TestBuildMatchesReference(t *testing.T) {
	suite := datagen.NewSuite(2026, 0.05)
	for _, order := range []uint{8, datagen.DefaultOrder} {
		b := april.NewBuilder(suite.Space, order)
		for _, name := range datagen.DatasetNames {
			for i, p := range suite.Sets[name] {
				if !matchReference(t, b, p) {
					t.Fatalf("order %d: %s object %d differs from the reference", order, name, i)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 300; i++ {
		pair := oracle.GeneratePair(rng)
		mbr := pair.A.Bounds().Expand(pair.B.Bounds())
		space := geom.MBR{MinX: mbr.MinX - 1, MinY: mbr.MinY - 1, MaxX: mbr.MaxX + 1, MaxY: mbr.MaxY + 1}
		for _, order := range []uint{oracle.GridOrder, 8} {
			b := april.NewBuilder(space, order)
			for _, m := range []*geom.MultiPolygon{pair.A, pair.B} {
				for _, p := range m.Polys {
					if !matchReference(t, b, p) {
						t.Fatalf("pair %d (%s), order %d: polygon %v differs from the reference",
							i, pair.Name, order, p.Shell)
					}
				}
			}
		}
	}
}

// FuzzBuildMatchesReference compares Build with the reference on random
// blobs, rectangles and polygons with holes over small grids, including
// shapes that reach outside the data space.
func FuzzBuildMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	space := geom.MBR{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}
	f.Fuzz(func(t *testing.T, seed int64, order, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		coord := func() float64 { return -8 + rng.Float64()*80 }
		var p *geom.Polygon
		switch shape % 3 {
		case 0:
			p = datagen.Blob(rng, geom.Point{X: coord(), Y: coord()}, 1+rng.Float64()*40, 3+rng.Intn(40))
		case 1:
			x0, y0, x1, y1 := coord(), coord(), coord(), coord()
			p = datagen.Rect(geom.MBR{MinX: min(x0, x1), MinY: min(y0, y1), MaxX: max(x0, x1) + 0.01, MaxY: max(y0, y1) + 0.01})
		default:
			c, r := geom.Point{X: coord(), Y: coord()}, 4+rng.Float64()*36
			p = datagen.Rect(geom.MBR{MinX: c.X - r, MinY: c.Y - r, MaxX: c.X + r, MaxY: c.Y + r})
			for n := rng.Intn(3); n >= 0; n-- {
				hr := r * (0.05 + 0.3*rng.Float64())
				hc := geom.Point{X: c.X + (rng.Float64()*2-1)*(r-hr), Y: c.Y + (rng.Float64()*2-1)*(r-hr)}
				p.Holes = append(p.Holes, datagen.Blob(rng, hc, hr, 3+rng.Intn(12)).Shell)
			}
		}
		b := april.NewBuilder(space, 1+uint(order%8))
		if !matchReference(t, b, p) {
			t.Fatalf("order %d: polygon shell %v holes %v differs from the reference", 1+order%8, p.Shell, p.Holes)
		}
	})
}
