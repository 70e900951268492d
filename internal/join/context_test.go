package join

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randomEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	es := make([]Entry, n)
	for i := range es {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		es[i] = Entry{
			Box: geom.MBR{MinX: x, MinY: y, MaxX: x + 5 + rng.Float64()*10, MaxY: y + 5 + rng.Float64()*10},
			ID:  int32(i),
		}
	}
	return es
}

// TestJoinContextMatchesJoin: the tree join and its slice form Pairs
// must both equal the brute-force join.
func TestJoinContextMatchesJoin(t *testing.T) {
	as, bs := randomEntries(600, 1), randomEntries(700, 2)
	want := bruteJoin(as, bs)
	checkJoin(t, collect(t, as, bs), want)

	boxes := func(es []Entry) []geom.MBR {
		out := make([]geom.MBR, len(es))
		for i, e := range es {
			out[i] = e.Box
		}
		return out
	}
	got := make(map[[2]int32]int)
	for _, p := range Pairs(boxes(as), boxes(bs)) {
		got[p]++
	}
	checkJoin(t, got, want)
}

func TestJoinContextCancelled(t *testing.T) {
	as, bs := randomEntries(3000, 3), randomEntries(3000, 4)
	ta, tb := BuildRTree(as), BuildRTree(bs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if err := ta.JoinContext(ctx, tb, func(a, b Entry) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RTree.JoinContext err = %v, want Canceled", err)
	}
	if err := ta.QueryContext(ctx, geom.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, func(Entry) {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext err = %v, want Canceled", err)
	}
	if _, err := PairsContext(ctx, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("PairsContext err = %v, want Canceled", err)
	}
}

// Cancelling mid-traversal must stop the join early: report a few pairs,
// then cancel from inside the callback and check the traversal abandons
// the remaining work.
func TestJoinContextCancelMidway(t *testing.T) {
	as, bs := randomEntries(2000, 5), randomEntries(2000, 6)
	ta, tb := BuildRTree(as), BuildRTree(bs)

	total := len(collect(t, as, bs))
	if total < 100 {
		t.Fatalf("workload too small: %d pairs", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := ta.JoinContext(ctx, tb, func(a, b Entry) {
		seen++
		if seen == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if seen >= total {
		t.Fatalf("join ran to completion (%d pairs) despite cancellation", seen)
	}
}

// TestQueryContextMatchesQuery: a window query must report exactly the
// entries a brute-force scan finds, each once.
func TestQueryContextMatchesQuery(t *testing.T) {
	as := randomEntries(500, 7)
	q := geom.MBR{MinX: 100, MinY: 100, MaxX: 400, MaxY: 400}
	want := 0
	for _, e := range as {
		if e.Box.Intersects(q) {
			want++
		}
	}
	got := make(map[int32]int)
	if err := BuildRTree(as).QueryContext(context.Background(), q, func(e Entry) { got[e.ID]++ }); err != nil {
		t.Fatal(err)
	}
	if want == 0 || len(got) != want {
		t.Fatalf("QueryContext found %d entries, brute force %d", len(got), want)
	}
	for id, n := range got {
		if n != 1 || !as[id].Box.Intersects(q) {
			t.Fatalf("entry %d reported %d times (intersects: %t)", id, n, as[id].Box.Intersects(q))
		}
	}
}
