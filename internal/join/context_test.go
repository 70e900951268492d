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

func TestJoinContextMatchesJoin(t *testing.T) {
	as, bs := randomEntries(600, 1), randomEntries(700, 2)
	ta, tb := BuildRTree(as), BuildRTree(bs)

	var plain, ctxed int
	ta.Join(tb, func(a, b Entry) { plain++ })
	if err := ta.JoinContext(context.Background(), tb, func(a, b Entry) { ctxed++ }); err != nil {
		t.Fatal(err)
	}
	if plain != ctxed {
		t.Fatalf("JoinContext reported %d pairs, Join %d", ctxed, plain)
	}
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

	total := 0
	ta.Join(tb, func(a, b Entry) { total++ })
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

func TestQueryContextMatchesQuery(t *testing.T) {
	as := randomEntries(500, 7)
	ta := BuildRTree(as)
	q := geom.MBR{MinX: 100, MinY: 100, MaxX: 400, MaxY: 400}
	var plain, ctxed int
	ta.Query(q, func(Entry) { plain++ })
	if err := ta.QueryContext(context.Background(), q, func(Entry) { ctxed++ }); err != nil {
		t.Fatal(err)
	}
	if plain == 0 || plain != ctxed {
		t.Fatalf("QueryContext found %d, Query %d", ctxed, plain)
	}
}
