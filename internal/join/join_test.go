package join

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randBoxes(rng *rand.Rand, n int, space, maxSide float64) []Entry {
	out := make([]Entry, n)
	for i := range out {
		x := rng.Float64() * space
		y := rng.Float64() * space
		w := rng.Float64() * maxSide
		h := rng.Float64() * maxSide
		out[i] = Entry{Box: geom.MBR{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, ID: int32(i)}
	}
	return out
}

func bruteJoin(as, bs []Entry) map[[2]int32]bool {
	out := make(map[[2]int32]bool)
	for _, a := range as {
		for _, b := range bs {
			if a.Box.Intersects(b.Box) {
				out[[2]int32{a.ID, b.ID}] = true
			}
		}
	}
	return out
}

// collect runs the tree join of as and bs and counts every reported
// pair.
func collect(t *testing.T, as, bs []Entry) map[[2]int32]int {
	t.Helper()
	out := make(map[[2]int32]int)
	if err := BuildRTree(as).JoinContext(context.Background(), BuildRTree(bs), func(a, b Entry) {
		out[[2]int32{a.ID, b.ID}]++
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRTreeQueryMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	es := randBoxes(rng, 500, 100, 8)
	tree := BuildRTree(es)
	if tree.Len() != 500 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for trial := 0; trial < 100; trial++ {
		q := randBoxes(rng, 1, 100, 20)[0].Box
		want := make(map[int32]bool)
		for _, e := range es {
			if e.Box.Intersects(q) {
				want[e.ID] = true
			}
		}
		got := make(map[int32]bool)
		if err := tree.QueryContext(context.Background(), q, func(e Entry) { got[e.ID] = true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing %d", trial, id)
			}
		}
	}
}

func TestRTreeJoinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		as := randBoxes(rng, 100+rng.Intn(400), 100, 6)
		bs := randBoxes(rng, 100+rng.Intn(400), 100, 6)
		want := bruteJoin(as, bs)
		got := collect(t, as, bs)
		checkJoin(t, got, want)
	}
}

// checkJoin verifies exact match and no duplicates.
func checkJoin(t *testing.T, got map[[2]int32]int, want map[[2]int32]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for pair, n := range got {
		if !want[pair] {
			t.Fatalf("spurious pair %v", pair)
		}
		if n != 1 {
			t.Fatalf("pair %v reported %d times", pair, n)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	if BuildRTree(nil).Len() != 0 {
		t.Error("empty tree size")
	}
	some := randBoxes(rand.New(rand.NewSource(4)), 10, 10, 2)
	if n := len(collect(t, nil, some)) + len(collect(t, some, nil)); n != 0 {
		t.Error("join with empty tree must be empty")
	}
}

func TestPairsHelper(t *testing.T) {
	as := []geom.MBR{{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}, {MinX: 10, MinY: 10, MaxX: 12, MaxY: 12}}
	bs := []geom.MBR{{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}, {MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}}
	got := Pairs(as, bs)
	if len(got) != 1 || got[0] != [2]int32{0, 0} {
		t.Fatalf("Pairs = %v", got)
	}
}

func TestRTreeDegenerateDistributions(t *testing.T) {
	// All boxes identical: every pair joins.
	same := make([]Entry, 40)
	for i := range same {
		same[i] = Entry{Box: geom.MBR{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}, ID: int32(i)}
	}
	got := collect(t, same, same)
	if len(got) != 40*40 {
		t.Fatalf("identical boxes: %d pairs, want 1600", len(got))
	}
	// Collinear points (zero-extent boxes).
	pts := make([]Entry, 30)
	for i := range pts {
		x := float64(i)
		pts[i] = Entry{Box: geom.MBR{MinX: x, MinY: 0, MaxX: x, MaxY: 0}, ID: int32(i)}
	}
	got = collect(t, pts, pts)
	if len(got) != 30 { // only self pairs
		t.Fatalf("point boxes: %d pairs, want 30", len(got))
	}
	ids := make([]int32, 0, 30)
	for p := range got {
		if p[0] != p[1] {
			t.Fatalf("non-self pair %v", p)
		}
		ids = append(ids, p[0])
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		if id != int32(i) {
			t.Fatal("missing self pair")
		}
	}
}
