// Package join implements the filter step of the spatial join: producing
// the pairs of objects whose MBRs intersect. The paper treats this step as
// an external producer (its cost is excluded from all measurements); it
// is an STR bulk-loaded R-tree with a synchronized-traversal tree join,
// plus the epoch View that merges a base tree, tombstones and a delta
// tree for the service.
package join

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Entry is one indexed rectangle with its caller-assigned identifier.
type Entry struct {
	Box geom.MBR
	ID  int32
}

// node capacity of the STR R-tree.
const nodeCap = 16

type node struct {
	box      geom.MBR
	children []*node // nil for leaves
	entries  []Entry // nil for internal nodes
}

// RTree is a static, STR bulk-loaded R-tree over MBRs.
type RTree struct {
	root *node
	size int
}

// BuildRTree bulk-loads entries with the Sort-Tile-Recursive method:
// entries are sorted by center x, cut into vertical slices, each slice
// sorted by center y and packed into leaves.
func BuildRTree(entries []Entry) *RTree {
	t := &RTree{size: len(entries)}
	if len(entries) == 0 {
		t.root = &node{box: geom.EmptyMBR()}
		return t
	}
	es := make([]Entry, len(entries))
	copy(es, entries)

	leaves := packLeaves(es)
	level := make([]*node, len(leaves))
	copy(level, leaves)
	for len(level) > 1 {
		level = packNodes(level)
	}
	t.root = level[0]
	return t
}

func packLeaves(es []Entry) []*node {
	nLeaves := (len(es) + nodeCap - 1) / nodeCap
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * nodeCap

	sort.Slice(es, func(i, j int) bool {
		return es[i].Box.Center().X < es[j].Box.Center().X
	})
	var leaves []*node
	for s := 0; s < len(es); s += sliceSize {
		e := s + sliceSize
		if e > len(es) {
			e = len(es)
		}
		slice := es[s:e]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Box.Center().Y < slice[j].Box.Center().Y
		})
		for i := 0; i < len(slice); i += nodeCap {
			j := i + nodeCap
			if j > len(slice) {
				j = len(slice)
			}
			leaf := &node{entries: slice[i:j:j], box: geom.EmptyMBR()}
			for _, en := range leaf.entries {
				leaf.box = leaf.box.Expand(en.Box)
			}
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packNodes(level []*node) []*node {
	sort.Slice(level, func(i, j int) bool {
		return level[i].box.Center().X < level[j].box.Center().X
	})
	var out []*node
	for i := 0; i < len(level); i += nodeCap {
		j := i + nodeCap
		if j > len(level) {
			j = len(level)
		}
		n := &node{children: level[i:j:j], box: geom.EmptyMBR()}
		for _, c := range n.children {
			n.box = n.box.Expand(c.box)
		}
		out = append(out, n)
	}
	return out
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.size }

// Bounds returns the MBR of all indexed entries.
func (t *RTree) Bounds() geom.MBR { return t.root.box }

// Query calls fn for every entry whose box intersects q.
func (t *RTree) Query(q geom.MBR, fn func(Entry)) {
	t.query(t.root, q, fn)
}

func (t *RTree) query(n *node, q geom.MBR, fn func(Entry)) {
	if !n.box.Intersects(q) {
		return
	}
	for _, e := range n.entries {
		if e.Box.Intersects(q) {
			fn(e)
		}
	}
	for _, c := range n.children {
		t.query(c, q, fn)
	}
}

// Join reports every pair (a ∈ t, b ∈ o) with intersecting boxes via a
// synchronized depth-first traversal of both trees.
func (t *RTree) Join(o *RTree, fn func(a, b Entry)) {
	joinNodesCtx(t.root, o.root, fn, nil, nil)
}

// JoinObserved is Join with work counters: node-pair visits, box
// comparisons, and reported pairs (the candidate-pair count every
// downstream pipeline metric is normalized against).
func (t *RTree) JoinObserved(o *RTree, fn func(a, b Entry)) JoinStats {
	var st JoinStats
	joinNodesCtx(t.root, o.root, fn, &st, nil)
	return st
}

// Pairs collects the join result of two MBR slices using the R-tree join;
// it is the convenience entry point used by the harness to produce
// candidate pairs.
func Pairs(as, bs []geom.MBR) [][2]int32 {
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
	ta.Join(tb, func(a, b Entry) { out = append(out, [2]int32{a.ID, b.ID}) })
	return out
}

func joinNodesCtx(a, b *node, fn func(x, y Entry), st *JoinStats, tk *ticker) error {
	if err := tk.err(); err != nil {
		return err
	}
	if st != nil {
		st.NodeVisits++
	}
	if !a.box.Intersects(b.box) {
		return nil
	}
	switch {
	case a.entries != nil && b.entries != nil:
		if st != nil {
			st.Compares += int64(len(a.entries)) * int64(len(b.entries))
		}
		for _, ea := range a.entries {
			for _, eb := range b.entries {
				if ea.Box.Intersects(eb.Box) {
					if st != nil {
						st.Pairs++
					}
					fn(ea, eb)
				}
			}
		}
	case a.entries != nil:
		for _, cb := range b.children {
			if err := joinNodesCtx(a, cb, fn, st, tk); err != nil {
				return err
			}
		}
	case b.entries != nil:
		for _, ca := range a.children {
			if err := joinNodesCtx(ca, b, fn, st, tk); err != nil {
				return err
			}
		}
	default:
		for _, ca := range a.children {
			if !ca.box.Intersects(b.box) {
				continue
			}
			for _, cb := range b.children {
				if err := joinNodesCtx(ca, cb, fn, st, tk); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
