package join

import (
	"context"

	"repro/internal/geom"
)

// ticker amortizes context checks over a traversal: Err polls ctx.Err()
// only every stride calls, so cancellation support costs one counter
// increment per node visit on the hot path. A nil *ticker never checks
// (the context-free entry points pass nil and keep their old cost).
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
	if t == nil {
		return nil
	}
	t.n++
	if t.n%tickStride != 0 {
		return nil
	}
	return t.ctx.Err()
}

// QueryContext is Query with cancellation: it calls fn for every entry
// whose box intersects q, polling ctx periodically and returning its
// error if the deadline expires or the caller cancels mid-traversal.
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

// JoinContext is Join with cancellation: the synchronized traversal
// polls ctx every tickStride node pairs and abandons the join with the
// context's error once it is done. Pairs already reported stay reported;
// the result is a prefix of the full join.
func (t *RTree) JoinContext(ctx context.Context, o *RTree, fn func(a, b Entry)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return joinNodesCtx(t.root, o.root, fn, nil, newTicker(ctx))
}

// PairsContext is Pairs with cancellation, for callers serving
// deadline-bound requests. On cancellation the partial result is
// discarded and the context's error returned.
func PairsContext(ctx context.Context, as, bs []geom.MBR) ([][2]int32, error) {
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
	if err := ta.JoinContext(ctx, tb, func(a, b Entry) {
		out = append(out, [2]int32{a.ID, b.ID})
	}); err != nil {
		return nil, err
	}
	return out, nil
}
