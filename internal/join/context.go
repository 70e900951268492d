package join

import (
	"context"

	"repro/internal/geom"
)

// ticker amortizes context checks over a traversal: err polls ctx.Err()
// only every stride calls, so cancellation support costs one counter
// increment per node visit on the hot path.
type ticker struct {
	ctx context.Context
	n   uint
}

// tickStride is how many traversal steps pass between context polls:
// coarse enough to stay off the profile, fine enough that a cancelled
// join stops within microseconds.
const tickStride = 1024

func newTicker(ctx context.Context) *ticker { return &ticker{ctx: ctx} }

func (t *ticker) err() error {
	t.n++
	if t.n%tickStride != 0 {
		return nil
	}
	return t.ctx.Err()
}

// QueryContext calls fn for every entry whose box intersects q, polling
// ctx periodically and returning its error if the deadline expires or
// the caller cancels mid-traversal.
func (t *RTree) QueryContext(ctx context.Context, q geom.MBR, fn func(Entry)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.queryCtx(t.root, q, fn, newTicker(ctx))
}

func (t *RTree) queryCtx(n *node, q geom.MBR, fn func(Entry), tk *ticker) error {
	if err := tk.err(); err != nil {
		return err
	}
	if !n.box.Intersects(q) {
		return nil
	}
	for _, e := range n.entries {
		if e.Box.Intersects(q) {
			fn(e)
		}
	}
	for _, c := range n.children {
		if err := t.queryCtx(c, q, fn, tk); err != nil {
			return err
		}
	}
	return nil
}

// JoinContext reports every pair (a ∈ t, b ∈ o) with intersecting boxes
// via a synchronized depth-first traversal of both trees. It polls ctx
// every tickStride node pairs and abandons the join with the context's
// error once it is done. Pairs already reported stay reported; the
// result is a prefix of the full join.
func (t *RTree) JoinContext(ctx context.Context, o *RTree, fn func(a, b Entry)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return joinNodesCtx(t.root, o.root, fn, newTicker(ctx))
}

// PairsContext collects the join result of two MBR slices (index pairs
// into as and bs) with cancellation, for callers serving deadline-bound
// requests. On cancellation the partial result is discarded and the
// context's error returned.
func PairsContext(ctx context.Context, as, bs []geom.MBR) ([][2]int32, error) {
	var out [][2]int32
	if err := indexTree(as).JoinContext(ctx, indexTree(bs), func(a, b Entry) {
		out = append(out, [2]int32{a.ID, b.ID})
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// indexTree bulk-loads the boxes, each with its slice index as its ID.
func indexTree(ms []geom.MBR) *RTree {
	es := make([]Entry, len(ms))
	for i, b := range ms {
		es[i] = Entry{Box: b, ID: int32(i)}
	}
	return BuildRTree(es)
}
