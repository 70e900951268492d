package april

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/interval"
)

func space() geom.MBR { return geom.MBR{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64} }

func rect(x0, y0, x1, y1 float64) *geom.Polygon {
	return geom.NewPolygon(geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}})
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

func TestBuildPSubsetOfC(t *testing.T) {
	b := NewBuilder(space(), 8)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		p := geom.NewPolygon(randBlob(rng, 32, 32, 20, 6+rng.Intn(50)))
		a, err := b.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if !a.P.IsValid() || !a.C.IsValid() {
			t.Fatal("lists must be normalized")
		}
		if !interval.Inside(a.P, a.C) {
			t.Fatalf("trial %d: P not inside C", trial)
		}
		if a.C.NumCells() == 0 {
			t.Fatalf("trial %d: C empty for a real polygon", trial)
		}
		np, nc := a.NumIntervals()
		if np != len(a.P) || nc != len(a.C) {
			t.Error("NumIntervals mismatch")
		}
	}
}

// TestIntervalCountScaling sanity-checks the paper's claim that the number
// of intervals is in the order of the square root of the number of covered
// cells (Hilbert locality keeps runs long).
func TestIntervalCountScaling(t *testing.T) {
	b := NewBuilder(space(), 10)
	p := rect(4, 4, 60, 60)
	a, err := b.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	cells := float64(a.C.NumCells())
	ivs := float64(len(a.C))
	if ivs > 8*math.Sqrt(cells) {
		t.Errorf("C has %v intervals for %v cells; expected O(sqrt)", ivs, cells)
	}
}

// TestBuildSizeIndependent: at the paper's order 16 a whole-space square
// and a full-width diagonal sliver build to valid lists with memory that
// follows their boundaries. A dense raster window would need 4 G cells.
func TestBuildSizeIndependent(t *testing.T) {
	unit := geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	b := NewBuilder(unit, 16)
	curve := hilbert.New(16)
	square := rect(0, 0, 1, 1)
	sliver := geom.NewPolygon(geom.Ring{{X: 0, Y: 0}, {X: 0.002, Y: 0}, {X: 1, Y: 0.998}, {X: 1, Y: 1}})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sq, err := b.Build(square)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := b.Build(sliver)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("building allocated %d MiB, want under 64", alloc>>20)
	}

	for name, a := range map[string]Approx{"square": sq, "sliver": sl} {
		if !a.P.IsValid() || !a.C.IsValid() || !interval.Inside(a.P, a.C) {
			t.Fatalf("%s: lists invalid or P ⊄ C", name)
		}
	}
	// The square covers every cell; only the border ring is partial.
	if got := sq.C.NumCells(); got != curve.NumCells() {
		t.Errorf("square: C covers %d cells, want all %d", got, curve.NumCells())
	}
	if got, want := sq.P.NumCells(), uint64(65534*65534); got != want {
		t.Errorf("square: P covers %d cells, want %d", got, want)
	}
	// The sliver's diagonal edge passes through the centre of the space.
	if !sl.C.ContainsCell(curve.D(32767, 32767)) || sl.P.ContainsCell(curve.D(32767, 32767)) {
		t.Error("sliver: the cell on its diagonal edge must be partial")
	}
	if sl.P.NumCells() == 0 {
		t.Error("sliver: a sliver ~90 cells wide must have full cells")
	}
}

// TestBuildWindowTooLarge: an MBR window of nearly the whole order-16 grid
// builds like any other, with the border ring partial and the rest full.
func TestBuildWindowTooLarge(t *testing.T) {
	b := NewBuilder(space(), 16)
	curve := hilbert.New(16)
	a, err := b.Build(rect(1, 1, 63, 63))
	if err != nil {
		t.Fatalf("a window this large must build: %v", err)
	}
	if !a.P.IsValid() || !a.C.IsValid() || !interval.Inside(a.P, a.C) {
		t.Fatal("lists invalid or P ⊄ C")
	}
	g := b.Grid()
	if !a.P.ContainsCell(curve.D(uint32(g.Col(32)), uint32(g.Row(32)))) {
		t.Error("the centre cell must be full")
	}
	if !a.C.ContainsCell(curve.D(uint32(g.Col(1)), uint32(g.Row(32)))) || a.P.ContainsCell(curve.D(uint32(g.Col(1)), uint32(g.Row(32)))) {
		t.Error("a cell on the left edge must be partial")
	}
	if a.C.ContainsCell(curve.D(0, 0)) {
		t.Error("the corner cell lies outside the square and must be empty")
	}
}

// TestBuildAdaptiveHugeObject: a space-filling object at order 16 builds at
// full order, and a small object nested deep inside it has its
// conservative cells in the huge object's progressive cells.
func TestBuildAdaptiveHugeObject(t *testing.T) {
	unit := geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	b := NewBuilder(unit, 16)
	huge := geom.NewPolygon(geom.Ring{
		{X: 0.01, Y: 0.01}, {X: 0.99, Y: 0.01}, {X: 0.99, Y: 0.99}, {X: 0.01, Y: 0.99},
	})
	ap, err := b.Build(huge)
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.C) == 0 || len(ap.P) == 0 {
		t.Fatal("approximation empty")
	}
	if !ap.P.IsValid() || !ap.C.IsValid() {
		t.Fatal("lists not normalized")
	}
	if !interval.Inside(ap.P, ap.C) {
		t.Fatal("P must stay inside C")
	}
	base := uint64(1) << 32 // 4^16 cells
	if last := ap.C[len(ap.C)-1]; last.End > base {
		t.Fatalf("interval %v exceeds the order-16 id space", last)
	}
	small, err := b.Build(geom.NewPolygon(geom.Ring{
		{X: 0.4, Y: 0.4}, {X: 0.41, Y: 0.4}, {X: 0.41, Y: 0.41}, {X: 0.4, Y: 0.41},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !interval.Overlap(ap.C, small.C) {
		t.Error("conservative lists must overlap for overlapping objects")
	}
	if !interval.Inside(small.C, ap.P) {
		t.Error("nested object's C must sit inside the huge object's P")
	}
}

// TestBuildFilterSoundnessHugeObject: an object spanning most of the
// space, against many small ones, keeps the intersection filter sound
// against exact geometry, and its P holds the cells deep inside it.
func TestBuildFilterSoundnessHugeObject(t *testing.T) {
	unit := geom.MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	b := NewBuilder(unit, 12)
	curve := hilbert.New(12)
	g := b.Grid()
	rng := rand.New(rand.NewSource(5))
	huge := geom.NewPolygon(geom.Ring{
		{X: 0.05, Y: 0.05}, {X: 0.95, Y: 0.05}, {X: 0.95, Y: 0.6}, {X: 0.05, Y: 0.6},
	})
	hugeAp, err := b.Build(huge)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		x := rng.Float64() * 0.9
		y := rng.Float64() * 0.9
		small := rect(x, y, x+0.03, y+0.03)
		smallAp, err := b.Build(small)
		if err != nil {
			t.Fatal(err)
		}
		truth := polygonsIntersect(huge, small)
		switch IntersectionFilter(hugeAp, smallAp) {
		case DefiniteDisjoint:
			if truth {
				t.Fatalf("trial %d: disjoint verdict on intersecting pair", trial)
			}
		case DefiniteIntersect:
			if !truth {
				t.Fatalf("trial %d: intersect verdict on disjoint pair", trial)
			}
		}
		// A small square strictly inside the huge one sits in its P.
		c := small.Bounds().Center()
		inner := x > 0.06 && x+0.03 < 0.94 && y > 0.06 && y+0.03 < 0.59
		if inner && !hugeAp.P.ContainsCell(curve.D(uint32(g.Col(c.X)), uint32(g.Row(c.Y)))) {
			t.Errorf("trial %d: cell of inner square centre %v not in the huge object's P", trial, c)
		}
	}
}

func TestApproxCodec(t *testing.T) {
	b := NewBuilder(space(), 8)
	a, err := b.Build(rect(10, 10, 30, 25))
	if err != nil {
		t.Fatal(err)
	}
	buf := a.AppendEncode(nil)
	if len(buf) != a.Bytes() {
		t.Errorf("Bytes() = %d, encoded %d", a.Bytes(), len(buf))
	}
	got, n, err := DecodeApprox(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if !interval.Match(got.P, a.P) || !interval.Match(got.C, a.C) {
		t.Error("round trip mismatch")
	}
	if _, _, err := DecodeApprox(buf[:1]); err == nil {
		t.Error("truncated decode should fail")
	}
	if _, _, err := DecodeApprox(nil); err == nil {
		t.Error("empty decode should fail")
	}
}

func TestIntersectionFilterDisjoint(t *testing.T) {
	b := NewBuilder(space(), 8)
	a1, err := b.Build(rect(2, 2, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b.Build(rect(40, 40, 60, 60))
	if err != nil {
		t.Fatal(err)
	}
	if v := IntersectionFilter(a1, a2); v != DefiniteDisjoint {
		t.Errorf("far apart: %v", v)
	}
}

func TestIntersectionFilterDefinite(t *testing.T) {
	b := NewBuilder(space(), 8)
	big, err := b.Build(rect(10, 10, 50, 50))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := b.Build(rect(20, 20, 40, 40))
	if err != nil {
		t.Fatal(err)
	}
	if v := IntersectionFilter(big, inner); v != DefiniteIntersect {
		t.Errorf("containment: %v", v)
	}
	if v := IntersectionFilter(inner, big); v != DefiniteIntersect {
		t.Errorf("containment swapped: %v", v)
	}
	overlap, err := b.Build(rect(45, 45, 60, 60))
	if err != nil {
		t.Fatal(err)
	}
	if v := IntersectionFilter(big, overlap); v != DefiniteIntersect {
		t.Errorf("overlap: %v", v)
	}
}

func TestIntersectionFilterTouching(t *testing.T) {
	b := NewBuilder(space(), 8)
	left, err := b.Build(rect(10, 10, 30, 30))
	if err != nil {
		t.Fatal(err)
	}
	right, err := b.Build(rect(30, 10, 50, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Touching objects share boundary cells: C lists overlap, so they can
	// never be reported disjoint; the verdict must be intersect (their
	// shared edge is a real intersection) or inconclusive.
	if v := IntersectionFilter(left, right); v == DefiniteDisjoint {
		t.Errorf("touching pair reported disjoint")
	}
}

// TestIntersectionFilterSoundness: on random pairs the filter must never
// contradict the exact geometry.
func TestIntersectionFilterSoundness(t *testing.T) {
	b := NewBuilder(space(), 8)
	rng := rand.New(rand.NewSource(33))
	var definite, total int
	for trial := 0; trial < 150; trial++ {
		p1 := geom.NewPolygon(randBlob(rng, 16+rng.Float64()*32, 16+rng.Float64()*32, 4+rng.Float64()*12, 8+rng.Intn(30)))
		p2 := geom.NewPolygon(randBlob(rng, 16+rng.Float64()*32, 16+rng.Float64()*32, 4+rng.Float64()*12, 8+rng.Intn(30)))
		a1, err := b.Build(p1)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := b.Build(p2)
		if err != nil {
			t.Fatal(err)
		}
		truth := polygonsIntersect(p1, p2)
		total++
		switch IntersectionFilter(a1, a2) {
		case DefiniteDisjoint:
			definite++
			if truth {
				t.Fatalf("trial %d: filter says disjoint but objects intersect", trial)
			}
		case DefiniteIntersect:
			definite++
			if !truth {
				t.Fatalf("trial %d: filter says intersect but objects are disjoint", trial)
			}
		}
	}
	if definite == 0 {
		t.Error("filter never reached a definite verdict on 150 random pairs")
	}
}

// polygonsIntersect is a brute-force ground truth: boundaries cross, or one
// contains a point of the other.
func polygonsIntersect(p1, p2 *geom.Polygon) bool {
	cross := false
	p1.Edges(func(a, b geom.Point) {
		p2.Edges(func(c, d geom.Point) {
			if geom.SegIntersect(a, b, c, d).Kind != geom.SegNone {
				cross = true
			}
		})
	})
	if cross {
		return true
	}
	if geom.LocateInPolygon(p1.Shell[0], p2) != geom.Outside {
		return true
	}
	return geom.LocateInPolygon(p2.Shell[0], p1) != geom.Outside
}

func TestVerdictString(t *testing.T) {
	if DefiniteDisjoint.String() != "disjoint" ||
		DefiniteIntersect.String() != "intersect" ||
		Inconclusive.String() != "inconclusive" {
		t.Error("verdict names wrong")
	}
}
