package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/de9im"
	"repro/internal/geom"
)

func TestBlobValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		n := 3 + rng.Intn(400)
		b := Blob(rng, geom.Point{X: 100, Y: 100}, 5+rng.Float64()*30, n)
		if err := geom.ValidatePolygon(b); err != nil {
			t.Fatalf("blob %d (n=%d): %v", i, n, err)
		}
		if b.NumVertices() != n {
			t.Errorf("blob %d: %d vertices, want %d", i, b.NumVertices(), n)
		}
		if !b.Shell.IsCCW() {
			t.Error("blob shell must be CCW")
		}
	}
}

func TestBlobMinVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := Blob(rng, geom.Point{}, 5, 1)
	if b.NumVertices() != 3 {
		t.Errorf("clamped vertices = %d, want 3", b.NumVertices())
	}
}

func TestBlobWithHoleValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		b := BlobWithHole(rng, geom.Point{X: 50, Y: 50}, 10+rng.Float64()*20, 12+rng.Intn(200))
		if err := geom.ValidatePolygon(b); err != nil {
			t.Fatalf("blob-with-hole %d: %v", i, err)
		}
		if len(b.Holes) != 1 {
			t.Fatal("expected one hole")
		}
		if b.Area() >= b.Shell.Area() {
			t.Error("hole must reduce area")
		}
	}
}

func TestInsideBlobContained(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		host := Blob(rng, geom.Point{X: 200, Y: 200}, 30+rng.Float64()*20, 24+rng.Intn(100))
		child := InsideBlob(rng, host, 0.2+rng.Float64()*0.4, 8+rng.Intn(60), 0)
		loc := geom.NewPolygonLocator(host)
		for _, v := range child.Shell {
			if loc.Locate(v) != geom.Inside {
				t.Fatalf("trial %d: child vertex %v not inside host", i, v)
			}
		}
	}
}

func TestSplitRectsTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	space := geom.MBR{MinX: 0, MinY: 0, MaxX: 100, MaxY: 80}
	rects := SplitRects(rng, space, 37)
	if len(rects) != 37 {
		t.Fatalf("got %d rects", len(rects))
	}
	var area float64
	for _, r := range rects {
		area += r.Area()
		if !space.ContainsMBR(r) {
			t.Fatalf("rect %v escapes space", r)
		}
	}
	if diff := area - space.Area(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("tiling area %v != space area %v", area, space.Area())
	}
	// Pairwise interiors must be disjoint (tiles may share borders).
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			inter := rects[i].Intersection(rects[j])
			if !inter.IsEmpty() && inter.Area() > 1e-9 {
				t.Fatalf("rects %d and %d overlap with area %v", i, j, inter.Area())
			}
		}
	}
}

func TestDensifiedRect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := geom.MBR{MinX: 1, MinY: 2, MaxX: 11, MaxY: 7}
	p := DensifiedRect(rng, b, 40)
	if err := geom.ValidatePolygon(p); err != nil {
		t.Fatalf("densified rect invalid: %v", err)
	}
	if p.Bounds() != b {
		t.Errorf("bounds changed: %v", p.Bounds())
	}
	if got := p.NumVertices(); got != 40 {
		t.Errorf("vertices = %d, want 40", got)
	}
	if a := p.Area(); a < b.Area()-1e-9 || a > b.Area()+1e-9 {
		t.Errorf("area = %v, want %v", a, b.Area())
	}
	// Minimum clamps to a plain rectangle.
	if got := DensifiedRect(rng, b, 2).NumVertices(); got != 4 {
		t.Errorf("clamped vertices = %d, want 4", got)
	}
}

func TestSuiteDeterminism(t *testing.T) {
	a := NewSuite(42, 0.05)
	b := NewSuite(42, 0.05)
	if len(a.Sets) != 10 || len(b.Sets) != 10 {
		t.Fatalf("expected 10 datasets, got %d and %d", len(a.Sets), len(b.Sets))
	}
	for name, pa := range a.Sets {
		pb := b.Sets[name]
		if len(pa) != len(pb) {
			t.Fatalf("%s: %d vs %d polygons", name, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].NumVertices() != pb[i].NumVertices() {
				t.Fatalf("%s object %d: vertex counts differ", name, i)
			}
			if !pa[i].Shell[0].Eq(pb[i].Shell[0]) {
				t.Fatalf("%s object %d: first vertex differs", name, i)
			}
		}
	}
	// Different seeds produce different data.
	c := NewSuite(43, 0.05)
	if c.Sets["TL"][0].Shell[0].Eq(a.Sets["TL"][0].Shell[0]) {
		t.Error("different seeds should differ")
	}
}

func TestSuiteAllValidAndInSpace(t *testing.T) {
	s := NewSuite(7, 0.05)
	for name, polys := range s.Sets {
		if len(polys) == 0 {
			t.Fatalf("%s is empty", name)
		}
		for i, p := range polys {
			if err := geom.ValidatePolygon(p); err != nil {
				t.Fatalf("%s object %d invalid: %v", name, i, err)
			}
			if !s.Space.ContainsMBR(p.Bounds()) {
				t.Fatalf("%s object %d escapes the data space: %v", name, i, p.Bounds())
			}
		}
	}
}

func TestSuiteRelativeSizes(t *testing.T) {
	s := NewSuite(1, 0.1)
	// Table 2 ordering: buildings are the largest sets, counties smallest.
	if len(s.Sets["OBE"]) <= len(s.Sets["OLE"]) {
		t.Error("OBE must outnumber OLE")
	}
	if len(s.Sets["TC"]) >= len(s.Sets["TZ"]) {
		t.Error("TC must be smaller than TZ")
	}
	if len(s.Sets["TW"]) <= len(s.Sets["TL"]) {
		t.Error("TW must outnumber TL")
	}
}

func TestSortedNamesAndCombos(t *testing.T) {
	s := NewSuite(1, 0.02)
	names := s.SortedNames()
	if len(names) != 10 || names[0] != "TL" || names[9] != "OPN" {
		t.Errorf("SortedNames = %v", names)
	}
	if len(Combos) != 7 {
		t.Errorf("Combos = %d, want 7 (Table 3)", len(Combos))
	}
	if ComboName(Combos[0]) != "TL-TW" {
		t.Errorf("ComboName = %q", ComboName(Combos[0]))
	}
	for _, c := range Combos {
		if _, ok := s.Sets[c[0]]; !ok {
			t.Errorf("combo %v references missing dataset", c)
		}
		if _, ok := s.Sets[c[1]]; !ok {
			t.Errorf("combo %v references missing dataset", c)
		}
	}
}

func TestNearMissBlobDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 30; i++ {
		host := Blob(rng, geom.Point{X: 200, Y: 200}, 25+rng.Float64()*15, 24+rng.Intn(80))
		nm := NearMissBlob(rng, host, 3+rng.Float64()*3, 8+rng.Intn(30), 1.5)
		if err := geom.ValidatePolygon(nm); err != nil {
			t.Fatalf("trial %d: invalid near-miss: %v", i, err)
		}
		// Must be truly disjoint from the host (not even meeting it)...
		if rel := de9im.FindRelation(geom.NewMultiPolygon(nm), geom.NewMultiPolygon(host)); rel != de9im.Disjoint {
			t.Fatalf("trial %d: near-miss is %v the host, want disjoint", i, rel)
		}
		// ...while (normally) overlapping the host's MBR so it survives
		// the MBR filter. The corner fallback can rarely miss; just check
		// the typical case holds over the batch.
	}
	// Aggregate: most near-misses overlap the host MBR.
	host := Blob(rng, geom.Point{X: 200, Y: 200}, 30, 64)
	overlapping := 0
	for i := 0; i < 40; i++ {
		nm := NearMissBlob(rng, host, 4, 12, 1.5)
		if nm.Bounds().Intersects(host.Bounds()) {
			overlapping++
		}
	}
	if overlapping < 30 {
		t.Errorf("only %d of 40 near-misses overlap the host MBR", overlapping)
	}
}
