package join

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// TestJoinObservedCounts: the counted join must report the same pairs
// as the plain join, with a pair counter that matches exactly and work
// counters bounded below by the output size.
func TestJoinObservedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	as := randBoxes(rng, 300, 100, 6)
	bs := randBoxes(rng, 250, 100, 6)

	plain := 0
	BuildRTree(as).Join(BuildRTree(bs), func(a, b Entry) { plain++ })

	counted := 0
	st := BuildRTree(as).JoinObserved(BuildRTree(bs), func(a, b Entry) { counted++ })
	if counted != plain {
		t.Fatalf("observed join reported %d pairs, plain %d", counted, plain)
	}
	if st.Pairs != int64(plain) {
		t.Errorf("Pairs counter = %d, want %d", st.Pairs, plain)
	}
	if st.NodeVisits <= 0 {
		t.Errorf("NodeVisits = %d", st.NodeVisits)
	}
	if st.Compares < st.Pairs {
		t.Errorf("Compares (%d) < Pairs (%d)", st.Compares, st.Pairs)
	}
}

func TestPairsObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	es := randBoxes(rng, 200, 100, 7)
	boxes := make([]geom.MBR, len(es))
	for i, e := range es {
		boxes[i] = e.Box
	}
	plain := Pairs(boxes, boxes)
	got, st := PairsObserved(boxes, boxes)
	if len(got) != len(plain) {
		t.Fatalf("PairsObserved returned %d pairs, Pairs %d", len(got), len(plain))
	}
	if st.Pairs != int64(len(plain)) {
		t.Errorf("stats.Pairs = %d, want %d", st.Pairs, len(plain))
	}

	reg := obs.NewRegistry()
	st.Publish(reg, "join")
	if reg.Counter("join_pairs_total").Value() != st.Pairs {
		t.Error("Publish did not export the pair counter")
	}
	if reg.Counter("join_node_visits_total").Value() != st.NodeVisits {
		t.Error("Publish did not export the node-visit counter")
	}
	st.Publish(reg, "join") // publishing again accumulates
	if reg.Counter("join_compares_total").Value() != 2*st.Compares {
		t.Error("Publish should accumulate into existing counters")
	}

	var sum JoinStats
	sum.Add(st)
	sum.Add(st)
	if sum.Pairs != 2*st.Pairs || sum.Compares != 2*st.Compares || sum.NodeVisits != 2*st.NodeVisits {
		t.Errorf("Add mis-accumulates: %+v", sum)
	}
}
