package spatialtopo

import (
	"context"
	"testing"
)

func space() MBR { return MBR{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100} }

func sqPoly(x0, y0, x1, y1 float64) *Polygon {
	return NewPolygon(Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}})
}

func TestQuickstartFlow(t *testing.T) {
	b := NewBuilder(space(), 10)
	lake, err := NewObject(0, sqPoly(30, 30, 50, 50), b)
	if err != nil {
		t.Fatal(err)
	}
	park, err := NewObject(1, sqPoly(10, 10, 90, 90), b)
	if err != nil {
		t.Fatal(err)
	}
	res := FindRelation(PC, lake, park)
	if res.Relation != Inside {
		t.Fatalf("relation = %v, want inside", res.Relation)
	}
	if res.Refined {
		t.Error("nested pair should be settled by the intermediate filter")
	}
	rr := RelatePred(PC, lake, park, CoveredBy)
	if !rr.Holds {
		t.Error("inside implies covered_by")
	}
	if !Implies(Inside, Intersects) || Implies(Disjoint, Intersects) {
		t.Error("Implies wrong")
	}
}

func TestWKTFacade(t *testing.T) {
	p, err := ParsePolygon("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePolygon(p); err != nil {
		t.Fatal(err)
	}
	round, err := ParsePolygon(MarshalPolygon(p))
	if err != nil {
		t.Fatal(err)
	}
	if round.NumVertices() != 4 {
		t.Error("WKT round trip lost vertices")
	}
}

func TestDE9IMFacade(t *testing.T) {
	got := DE9IM(sqPoly(0, 0, 2, 2), sqPoly(5, 5, 7, 7))
	if got != "FF2FF1212" {
		t.Errorf("DE9IM = %q", got)
	}
}

func TestCandidatePairsFacade(t *testing.T) {
	b := NewBuilder(space(), 10)
	mk := func(id int, x0, y0, x1, y1 float64) *Object {
		o, err := NewObject(id, sqPoly(x0, y0, x1, y1), b)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	left := []*Object{mk(0, 0, 0, 10, 10), mk(1, 50, 50, 60, 60)}
	right := []*Object{mk(0, 5, 5, 15, 15), mk(1, 90, 90, 99, 99)}
	pairs := CandidatePairs(left, right)
	if len(pairs) != 1 || pairs[0] != [2]int32{0, 0} {
		t.Fatalf("pairs = %v", pairs)
	}
	// All methods agree on each candidate pair.
	for _, pr := range pairs {
		want := FindRelation(ST2, left[pr[0]], right[pr[1]]).Relation
		for _, m := range []Method{OP2, APRIL, PC} {
			if got := FindRelation(m, left[pr[0]], right[pr[1]]).Relation; got != want {
				t.Errorf("method %v: %v, want %v", m, got, want)
			}
		}
	}
}

func TestCandidatePairsContextFacade(t *testing.T) {
	b := NewBuilder(space(), 10)
	mk := func(id int, x0, y0, x1, y1 float64) *Object {
		o, err := NewObject(id, sqPoly(x0, y0, x1, y1), b)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	left := []*Object{mk(0, 0, 0, 10, 10), mk(1, 50, 50, 60, 60)}
	right := []*Object{mk(0, 5, 5, 15, 15), mk(1, 90, 90, 99, 99)}

	pairs, err := CandidatePairsContext(context.Background(), left, right)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] != [2]int32{0, 0} {
		t.Fatalf("pairs = %v", pairs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CandidatePairsContext(ctx, left, right); err == nil {
		t.Fatal("cancelled context must surface an error")
	}
}

func TestOverlayFacade(t *testing.T) {
	a := NewMultiPolygon(sqPoly(0, 0, 2, 2))
	b := NewMultiPolygon(sqPoly(1, 0, 3, 2))
	r := Overlay(a, b)
	if r.Intersection != 2 || r.Union != 6 {
		t.Errorf("overlay: %+v", r)
	}
	if j := JaccardSimilarity(a, b); j < 0.33 || j > 0.34 {
		t.Errorf("jaccard = %v", j)
	}
	if v := IntersectionArea(sqPoly(0, 0, 2, 2), sqPoly(1, 0, 3, 2)); v != 2 {
		t.Errorf("intersection area = %v", v)
	}
}

func TestDistanceFacade(t *testing.T) {
	if d := PolygonDistance(sqPoly(0, 0, 2, 2), sqPoly(5, 0, 7, 2)); d != 3 {
		t.Errorf("distance = %v", d)
	}
}

func TestGeoJSONFacade(t *testing.T) {
	ms, err := ParseGeoJSON([]byte(`{"type":"Polygon","coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]]]}`))
	if err != nil || len(ms) != 1 {
		t.Fatalf("parse: %v", err)
	}
	if ms[0].Area() != 16 {
		t.Errorf("area = %v", ms[0].Area())
	}
	data, err := MarshalGeoJSON(ms[0])
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseGeoJSON(data)
	if err != nil || len(back) != 1 || back[0].Area() != 16 {
		t.Fatalf("round trip: %v", err)
	}
}

func TestLinkFacade(t *testing.T) {
	b := NewBuilder(space(), 10)
	mk := func(id int, x0, y0, x1, y1 float64) *Object {
		o, err := NewObject(id, sqPoly(x0, y0, x1, y1), b)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	left := []*Object{mk(0, 10, 10, 20, 20)}
	right := []*Object{mk(0, 5, 5, 40, 40)}
	set := DiscoverLinks(left, right, PC)
	if len(set.Links) != 1 || set.Links[0].Relation != Inside {
		t.Fatalf("links: %+v", set.Links)
	}
}

// TestNewObjectHugeFacade: at the paper's order 16 an object spanning
// nearly the whole space builds through the facade, and the filters
// settle a small object inside it.
func TestNewObjectHugeFacade(t *testing.T) {
	b := NewBuilder(MBR{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 16)
	huge, err := NewObject(0, sqPoly(0.01, 0.01, 0.99, 0.99), b)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewObject(1, sqPoly(0.4, 0.4, 0.42, 0.42), b)
	if err != nil {
		t.Fatal(err)
	}
	res := FindRelation(PC, small, huge)
	if res.Relation != Inside || res.Refined {
		t.Errorf("relation = %v (refined %v), want inside from the filters alone", res.Relation, res.Refined)
	}
}
