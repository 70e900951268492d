package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

var testSpace = geom.MBR{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

func TestParseKeyRange(t *testing.T) {
	r, err := ParseKeyRange("10:42")
	if err != nil {
		t.Fatal(err)
	}
	if r != (KeyRange{Lo: 10, Hi: 42}) {
		t.Fatalf("got %+v", r)
	}
	if r.String() != "10:42" {
		t.Fatalf("String: got %q", r.String())
	}
	if rt, err := ParseKeyRange(r.String()); err != nil || rt != r {
		t.Fatalf("roundtrip: %+v %v", rt, err)
	}
	for _, bad := range []string{"", "10", "10:", ":42", "42:10", "5:5", "a:b", "-1:4"} {
		if _, err := ParseKeyRange(bad); err == nil {
			t.Errorf("ParseKeyRange(%q): want error", bad)
		}
	}
}

func TestNewPlanCoversKeyspace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		p, err := NewPlan(testSpace, 4, n)
		if err != nil {
			t.Fatal(err)
		}
		rs := p.Ranges()
		if len(rs) != n || p.NumShards() != n {
			t.Fatalf("n=%d: got %d ranges", n, len(rs))
		}
		if rs[0].Lo != 0 {
			t.Fatalf("n=%d: first range starts at %d", n, rs[0].Lo)
		}
		total := uint64(1) << (2 * 4)
		if rs[n-1].Hi != total {
			t.Fatalf("n=%d: last range ends at %d, want %d", n, rs[n-1].Hi, total)
		}
		for i := 1; i < n; i++ {
			if rs[i].Lo != rs[i-1].Hi {
				t.Fatalf("n=%d: gap between ranges %d and %d", n, i-1, i)
			}
			if rs[i].Empty() {
				t.Fatalf("n=%d: range %d empty", n, i)
			}
		}
	}
}

func TestNewPlanRejects(t *testing.T) {
	if _, err := NewPlan(testSpace, 4, 0); err == nil {
		t.Error("0 shards: want error")
	}
	if _, err := NewPlan(testSpace, 1, 5); err == nil {
		t.Error("more shards than cells: want error")
	}
	if _, err := NewPlan(geom.MBR{MinX: 1, MinY: 1, MaxX: 1, MaxY: 5}, 4, 2); err == nil {
		t.Error("degenerate space: want error")
	}
	if _, err := NewPlan(testSpace, 0, 1); err == nil {
		t.Error("order 0: want error")
	}
}

func randBox(rng *rand.Rand) geom.MBR {
	x := rng.Float64() * 90
	y := rng.Float64() * 90
	return geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20}
}

// TestShardsForBrute checks ShardsFor against a brute-force sweep of
// every routing cell.
func TestShardsForBrute(t *testing.T) {
	p, err := NewPlan(testSpace, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	side := uint32(1) << 3
	cw, ch := p.g.cells.CellSize()
	for trial := 0; trial < 200; trial++ {
		box := randBox(rng)
		want := make(map[int]bool)
		for cy := uint32(0); cy < side; cy++ {
			for cx := uint32(0); cx < side; cx++ {
				cellBox := geom.MBR{
					MinX: testSpace.MinX + float64(cx)*cw,
					MinY: testSpace.MinY + float64(cy)*ch,
					MaxX: testSpace.MinX + float64(cx+1)*cw,
					MaxY: testSpace.MinY + float64(cy+1)*ch,
				}
				// Half-open cells: a box touching only the max edge of a
				// cell belongs to the next cell (cellOf truncation), so
				// compare with strict inequality on the cell's max side.
				if box.MinX < cellBox.MaxX && box.MaxX >= cellBox.MinX &&
					box.MinY < cellBox.MaxY && box.MaxY >= cellBox.MinY {
					want[p.shardOf(p.g.curve.D(cx, cy))] = true
				}
			}
		}
		got := p.ShardsFor(box)
		if len(got) != len(want) {
			t.Fatalf("box %+v: got %v, want %v", box, got, want)
		}
		for _, i := range got {
			if !want[i] {
				t.Fatalf("box %+v: got %v, want %v", box, got, want)
			}
		}
	}
}

// TestOwnsExactlyOne is the deduplication invariant: every intersecting
// box pair is owned by exactly one shard, and the owner overlaps both
// boxes (so it holds replicas of both objects).
func TestOwnsExactlyOne(t *testing.T) {
	p, err := NewPlan(testSpace, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	as := make([]*Assignment, p.NumShards())
	for i := range as {
		as[i] = p.Assignment(i)
	}
	rng := rand.New(rand.NewSource(23))
	pairs := 0
	for trial := 0; trial < 8000; trial++ {
		b1, b2 := randBox(rng), randBox(rng)
		if !b1.Intersects(b2) {
			continue
		}
		pairs++
		owners := 0
		for _, a := range as {
			if !a.Owns(b1, b2) {
				continue
			}
			owners++
			if !a.Overlaps(b1) || !a.Overlaps(b2) {
				t.Fatalf("shard %d owns pair but lacks a replica: %+v %+v", a.Index(), b1, b2)
			}
		}
		if owners != 1 {
			t.Fatalf("pair %+v %+v owned by %d shards", b1, b2, owners)
		}
	}
	if pairs < 100 {
		t.Fatalf("only %d intersecting pairs generated", pairs)
	}
}

// TestOverlapsPartitionsObjects: every box lands on at least one shard,
// and the scatter set ShardsFor agrees with per-shard Overlaps.
func TestOverlapsPartitionsObjects(t *testing.T) {
	p, err := NewPlan(testSpace, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		box := randBox(rng)
		set := p.ShardsFor(box)
		if len(set) == 0 {
			t.Fatalf("box %+v: empty scatter set", box)
		}
		inSet := make(map[int]bool, len(set))
		for _, i := range set {
			inSet[i] = true
		}
		for i := 0; i < p.NumShards(); i++ {
			if got := p.Assignment(i).Overlaps(box); got != inSet[i] {
				t.Fatalf("box %+v shard %d: Overlaps=%v, ShardsFor=%v", box, i, got, inSet[i])
			}
		}
	}
}

// TestAssignmentStandalone: NewAssignment from (space, order, range)
// behaves identically to the plan's slice — the contract between
// topojoind -keyrange and the router's plan.
func TestAssignmentStandalone(t *testing.T) {
	p, err := NewPlan(testSpace, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < p.NumShards(); i++ {
		fromPlan := p.Assignment(i)
		standalone, err := NewAssignment(testSpace, 4, i, fromPlan.Range())
		if err != nil {
			t.Fatal(err)
		}
		if standalone.Index() != i || standalone.Range() != fromPlan.Range() {
			t.Fatalf("shard %d: identity mismatch", i)
		}
		for trial := 0; trial < 200; trial++ {
			b1, b2 := randBox(rng), randBox(rng)
			if fromPlan.Overlaps(b1) != standalone.Overlaps(b1) {
				t.Fatalf("shard %d: Overlaps disagrees on %+v", i, b1)
			}
			if fromPlan.Owns(b1, b2) != standalone.Owns(b1, b2) {
				t.Fatalf("shard %d: Owns disagrees on %+v %+v", i, b1, b2)
			}
		}
	}
	if _, err := NewAssignment(testSpace, 4, 0, KeyRange{Lo: 0, Hi: 1 << 30}); err == nil {
		t.Error("range beyond keyspace: want error")
	}
	if _, err := NewAssignment(testSpace, 4, -1, KeyRange{Lo: 0, Hi: 4}); err == nil {
		t.Error("negative index: want error")
	}
}

// TestClampOutsideSpace: boxes (partially) outside the routing space
// clamp to border cells instead of panicking or vanishing.
func TestClampOutsideSpace(t *testing.T) {
	p, err := NewPlan(testSpace, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, box := range []geom.MBR{
		{MinX: -50, MinY: -50, MaxX: -10, MaxY: -10},
		{MinX: 90, MinY: 90, MaxX: 150, MaxY: 150},
		{MinX: -10, MinY: 40, MaxX: 110, MaxY: 60},
	} {
		if got := p.ShardsFor(box); len(got) == 0 {
			t.Errorf("box %+v: empty scatter set", box)
		}
	}
}

// TestHugeCoordinatesClampToSpaceEdge: a box reaching ±1e300 routes,
// stores and owns exactly like the same box clipped to the space edge.
// A cell index converted to an integer before clamping overflows (on
// amd64 int64(1e300) is the minimum int64) and lands on column 0, so the
// router would skip the shards covering the far side of the space.
func TestHugeCoordinatesClampToSpaceEdge(t *testing.T) {
	space := geom.MBR{MinX: 0, MinY: 0, MaxX: 1024, MaxY: 1024}
	p, err := NewPlan(space, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ huge, clipped geom.MBR }{
		{geom.MBR{MinX: 10, MinY: 10, MaxX: 1e300, MaxY: 20}, geom.MBR{MinX: 10, MinY: 10, MaxX: 1024, MaxY: 20}},
		{geom.MBR{MinX: 10, MinY: 10, MaxX: 20, MaxY: 1e300}, geom.MBR{MinX: 10, MinY: 10, MaxX: 20, MaxY: 1024}},
		{geom.MBR{MinX: -1e300, MinY: 500, MaxX: 20, MaxY: 520}, geom.MBR{MinX: 0, MinY: 500, MaxX: 20, MaxY: 520}},
		{geom.MBR{MinX: -1e300, MinY: -1e300, MaxX: 1e300, MaxY: 1e300}, space},
		{geom.MBR{MinX: 1e300, MinY: 10, MaxX: 1e300, MaxY: 20}, geom.MBR{MinX: 1024, MinY: 10, MaxX: 1024, MaxY: 20}},
		{geom.MBR{MinX: 1000, MinY: 1e300, MaxX: 1e300, MaxY: 1e300}, geom.MBR{MinX: 1000, MinY: 1024, MaxX: 1024, MaxY: 1024}},
	} {
		if got, want := p.ShardsFor(tc.huge), p.ShardsFor(tc.clipped); !reflect.DeepEqual(got, want) {
			t.Errorf("ShardsFor(%+v) = %v, clipped box gives %v", tc.huge, got, want)
		}
		for i := 0; i < p.NumShards(); i++ {
			a := p.Assignment(i)
			if got, want := a.Overlaps(tc.huge), a.Overlaps(tc.clipped); got != want {
				t.Errorf("shard %d: Overlaps(%+v) = %v, clipped box gives %v", i, tc.huge, got, want)
			}
			if got, want := a.Owns(tc.huge, tc.huge), a.Owns(tc.clipped, tc.clipped); got != want {
				t.Errorf("shard %d: Owns(%+v) = %v, clipped box gives %v", i, tc.huge, got, want)
			}
		}
	}
}
