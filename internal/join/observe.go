package join

import (
	"repro/internal/geom"
	"repro/internal/obs"
)

// JoinStats counts the work of one MBR-join execution — the filter step
// the paper treats as an external producer. Tracking it anyway lets the
// pipeline metrics normalize every downstream counter against the
// candidate-pair total.
type JoinStats struct {
	// Pairs is the number of candidate pairs reported to the caller.
	Pairs int64
	// NodeVisits is the number of R-tree node pairs visited.
	NodeVisits int64
	// Compares is the number of box-box intersection tests performed on
	// entries.
	Compares int64
}

// Add accumulates o into s.
func (s *JoinStats) Add(o JoinStats) {
	s.Pairs += o.Pairs
	s.NodeVisits += o.NodeVisits
	s.Compares += o.Compares
}

// Publish adds the stats to counters registered under prefix
// (e.g. "join" -> join_pairs_total, join_node_visits_total,
// join_compares_total).
func (s JoinStats) Publish(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "_pairs_total").Add(s.Pairs)
	reg.Counter(prefix + "_node_visits_total").Add(s.NodeVisits)
	reg.Counter(prefix + "_compares_total").Add(s.Compares)
}

// PairsObserved is Pairs with work counters for the R-tree build-and-join
// it performs.
func PairsObserved(as, bs []geom.MBR) ([][2]int32, JoinStats) {
	ea := make([]Entry, len(as))
	for i, b := range as {
		ea[i] = Entry{Box: b, ID: int32(i)}
	}
	eb := make([]Entry, len(bs))
	for i, b := range bs {
		eb[i] = Entry{Box: b, ID: int32(i)}
	}
	ta, tb := BuildRTree(ea), BuildRTree(eb)
	var out [][2]int32
	st := ta.JoinObserved(tb, func(a, b Entry) { out = append(out, [2]int32{a.ID, b.ID}) })
	return out, st
}
