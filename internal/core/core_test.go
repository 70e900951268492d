package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/april"
	"repro/internal/de9im"
	"repro/internal/geom"
)

func testSpace() geom.MBR { return geom.MBR{MinX: 0, MinY: 0, MaxX: 128, MaxY: 128} }

func testBuilder(t *testing.T) *april.Builder {
	t.Helper()
	return april.NewBuilder(testSpace(), 10)
}

func rect(x0, y0, x1, y1 float64) *geom.Polygon {
	return geom.NewPolygon(geom.Ring{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}})
}

func randBlob(rng *rand.Rand, cx, cy, radius float64, n int) *geom.Polygon {
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
	return geom.NewPolygon(ring)
}

func obj(t *testing.T, b *april.Builder, id int, p *geom.Polygon) *Object {
	t.Helper()
	o, err := NewObject(id, p, b)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// testPairs builds a workload covering every relation: scattered blobs,
// engineered nests, duplicates, shared-edge tiles and shared-edge
// containment.
func testPairs(t *testing.T, b *april.Builder, rng *rand.Rand) [][2]*Object {
	t.Helper()
	var pairs [][2]*Object
	id := 0
	add := func(p, q *geom.Polygon) {
		pairs = append(pairs, [2]*Object{obj(t, b, id, p), obj(t, b, id+1, q)})
		id += 2
	}
	// Random blob pairs: mixture of disjoint/overlap.
	for i := 0; i < 40; i++ {
		add(
			randBlob(rng, 20+rng.Float64()*88, 20+rng.Float64()*88, 3+rng.Float64()*14, 8+rng.Intn(40)),
			randBlob(rng, 20+rng.Float64()*88, 20+rng.Float64()*88, 3+rng.Float64()*14, 8+rng.Intn(40)),
		)
	}
	// Nested pairs: child strictly inside parent.
	for i := 0; i < 12; i++ {
		parent := randBlob(rng, 40+rng.Float64()*48, 40+rng.Float64()*48, 14+rng.Float64()*10, 16+rng.Intn(40))
		ip := geom.PointOnSurface(parent)
		child := parent.ScaleAbout(ip, 0.12+rng.Float64()*0.1)
		add(child, parent)
		add(parent, child)
	}
	// Duplicates.
	for i := 0; i < 6; i++ {
		p := randBlob(rng, 30+rng.Float64()*60, 30+rng.Float64()*60, 5+rng.Float64()*10, 10+rng.Intn(30))
		add(p, p.Clone())
	}
	// Shared-edge tiles (meets).
	for i := 0; i < 8; i++ {
		x := 8 + rng.Float64()*80
		y := 8 + rng.Float64()*80
		w := 4 + rng.Float64()*10
		h := 4 + rng.Float64()*10
		add(rect(x, y, x+w, y+h), rect(x+w, y, x+w+3+rng.Float64()*8, y+h*rng.Float64()+1))
	}
	// Covered-by: child sharing part of the parent's left edge.
	for i := 0; i < 6; i++ {
		x := 10 + rng.Float64()*60
		y := 10 + rng.Float64()*60
		add(rect(x, y+4, x+8, y+12), rect(x, y, x+20, y+20))
	}
	return pairs
}

// TestPipelinesAgree is the central soundness test of the reproduction:
// every pipeline must report the same most specific relation for every
// pair (Invariant 4 in DESIGN.md), and a pipeline with stronger filters
// must never refine a pair that a weaker one settled.
func TestPipelinesAgree(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(2026))
	pairs := testPairs(t, b, rng)
	seen := make(map[de9im.Relation]int)
	for i, pr := range pairs {
		ref := FindRelation(ST2, pr[0], pr[1])
		seen[ref.Relation]++
		for _, m := range []Method{OP2, APRIL, PC} {
			got := FindRelation(m, pr[0], pr[1])
			if got.Relation != ref.Relation {
				t.Fatalf("pair %d: %v says %v, ST2 says %v (case %v)",
					i, m, got.Relation, ref.Relation, got.Case)
			}
		}
		pc := FindRelation(PC, pr[0], pr[1])
		ap := FindRelation(APRIL, pr[0], pr[1])
		if pc.Refined && !ap.Refined {
			t.Fatalf("pair %d: P+C refined but APRIL settled (relation %v)", i, ref.Relation)
		}
	}
	// The workload must actually exercise the interesting relations.
	for _, rel := range []de9im.Relation{de9im.Disjoint, de9im.Intersects, de9im.Inside, de9im.Contains, de9im.Equals, de9im.Meets, de9im.CoveredBy} {
		if seen[rel] == 0 {
			t.Errorf("workload never produced relation %v", rel)
		}
	}
}

// TestPipelinesAgreeHugeCoordinate: a valid triangle with one vertex at
// x = 1e300, far outside the 16×16 space, contains the square
// [7.2, 8.8]². With 1e300 mapped to grid column 0, P+C and APRIL
// answered disjoint while ST2 and OP2 answered contains.
func TestPipelinesAgreeHugeCoordinate(t *testing.T) {
	b := april.NewBuilder(geom.MBR{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16}, 4)
	tri := geom.NewPolygon(geom.Ring{{X: 1, Y: 1}, {X: 1e300, Y: 8}, {X: 1, Y: 15}})
	if err := geom.ValidatePolygon(tri); err != nil {
		t.Fatalf("fixture must be valid input: %v", err)
	}
	r, s := obj(t, b, 0, tri), obj(t, b, 1, rect(7.2, 7.2, 8.8, 8.8))
	for _, m := range Methods {
		if got := FindRelation(m, r, s).Relation; got != de9im.Contains {
			t.Errorf("%v: %v, want contains", m, got)
		}
	}
}

// TestPCFilterEffectiveness: the P+C pipeline must settle strictly more
// pairs than APRIL on a containment-heavy workload (the paper's headline
// mechanism).
func TestPCFilterEffectiveness(t *testing.T) {
	b := testBuilder(t)
	rng := rand.New(rand.NewSource(7))
	pairs := testPairs(t, b, rng)
	var refAPRIL, refPC int
	for _, pr := range pairs {
		if FindRelation(APRIL, pr[0], pr[1]).Refined {
			refAPRIL++
		}
		if FindRelation(PC, pr[0], pr[1]).Refined {
			refPC++
		}
	}
	if refPC >= refAPRIL {
		t.Errorf("P+C refined %d pairs, APRIL %d: expected strictly fewer", refPC, refAPRIL)
	}
}

func TestFindRelationDisjointMBRs(t *testing.T) {
	b := testBuilder(t)
	r := obj(t, b, 0, rect(1, 1, 4, 4))
	s := obj(t, b, 1, rect(50, 50, 60, 60))
	for _, m := range Methods {
		res := FindRelation(m, r, s)
		if res.Relation != de9im.Disjoint || res.Refined {
			t.Errorf("%v: disjoint MBRs must shortcut: %+v", m, res)
		}
	}
}

func TestFindRelationCrossShortcut(t *testing.T) {
	b := testBuilder(t)
	// A wide bar and a tall bar crossing: every method except ST2 may use
	// the MBR cross shortcut; all must answer intersects.
	wide := obj(t, b, 0, rect(10, 50, 110, 60))
	tall := obj(t, b, 1, rect(50, 10, 60, 110))
	for _, m := range Methods {
		res := FindRelation(m, wide, tall)
		if res.Relation != de9im.Intersects {
			t.Errorf("%v: cross = %v", m, res.Relation)
		}
		if m != ST2 && res.Refined {
			t.Errorf("%v: cross case must not refine", m)
		}
	}
}

// TestDefiniteInsideNoRefinement: a deeply nested pair must be settled by
// the P+C intermediate filter without refinement (the Fig. 9 scenario).
func TestDefiniteInsideNoRefinement(t *testing.T) {
	b := testBuilder(t)
	lake := obj(t, b, 0, rect(40, 40, 70, 70))
	park := obj(t, b, 1, rect(10, 10, 120, 120))
	res := FindRelation(PC, lake, park)
	if res.Relation != de9im.Inside || res.Refined {
		t.Fatalf("lake-in-park: %+v, want definite inside", res)
	}
	res = FindRelation(PC, park, lake)
	if res.Relation != de9im.Contains || res.Refined {
		t.Fatalf("park-contains-lake: %+v, want definite contains", res)
	}
	// APRIL settles neither: it must refine both.
	if !FindRelation(APRIL, lake, park).Refined {
		t.Error("APRIL should refine the nested pair")
	}
}

func TestMethodString(t *testing.T) {
	names := map[Method]string{ST2: "ST2", OP2: "OP2", APRIL: "APRIL", PC: "P+C"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
	if Method(99).String() != "unknown" {
		t.Error("unknown method name")
	}
	if len(Methods) != NumMethods {
		t.Error("Methods list incomplete")
	}
}

func TestTriStateString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Error("tristate names wrong")
	}
}
