// Package shard partitions the topology-join keyspace across
// processes. The data space is covered by a coarse routing grid whose
// cells are enumerated along a Hilbert curve (reusing internal/hilbert,
// the same curve family that orders the fine APRIL grid), and each
// shard owns one contiguous range of Hilbert cell ids. An object is
// assigned to every shard whose key range contains at least one cell
// its MBR overlaps — objects straddling a range boundary are
// replicated, exactly as PBSM replicates rectangles into every grid
// partition they touch.
//
// Replication makes shard-local joins complete but would duplicate
// boundary pairs, so results are deduplicated with the reference-point
// technique: a candidate pair is owned by exactly the shard whose key
// range contains the cell of the min corner of the two MBRs'
// intersection. That point lies inside both MBRs, so the owning shard
// is guaranteed to hold replicas of both objects; every other shard
// holding the pair discards it before evaluation. Summing per-shard
// results therefore reproduces the single-node answer exactly — the
// same argument Beast's distributed PBSM uses on Spark, here as the
// contract between topojoind's shard mode and the scatter-gather
// router (internal/shard/router).
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/raster"
)

// DefaultRouteOrder is the default routing-grid order: a 2^6 × 2^6
// grid (4096 cells) is coarse enough that routing a box costs at most
// a few thousand cell lookups and fine enough to split load across
// dozens of shards.
const DefaultRouteOrder = 6

// KeyRange is a half-open range [Lo, Hi) of Hilbert cell ids on the
// routing grid.
type KeyRange struct {
	Lo, Hi uint64
}

// Contains reports whether cell id d falls in the range.
func (r KeyRange) Contains(d uint64) bool { return d >= r.Lo && d < r.Hi }

// Empty reports whether the range holds no cells.
func (r KeyRange) Empty() bool { return r.Hi <= r.Lo }

// String renders the range in the "lo:hi" form ParseKeyRange accepts
// (and the -keyrange flag of topojoind takes).
func (r KeyRange) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// ParseKeyRange parses a "lo:hi" half-open cell-id range.
func ParseKeyRange(s string) (KeyRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return KeyRange{}, fmt.Errorf("shard: keyrange %q: want lo:hi", s)
	}
	l, err := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return KeyRange{}, fmt.Errorf("shard: keyrange %q: %w", s, err)
	}
	h, err := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
	if err != nil {
		return KeyRange{}, fmt.Errorf("shard: keyrange %q: %w", s, err)
	}
	if h <= l {
		return KeyRange{}, fmt.Errorf("shard: keyrange %q: empty (hi <= lo)", s)
	}
	return KeyRange{Lo: l, Hi: h}, nil
}

// grid maps data-space coordinates to routing-grid cells and their
// Hilbert ids. Coordinates outside the space clamp to the border cells,
// the usual convention of a PBSM grid partitioning; raster.Grid clamps
// before converting, so even ±1e300 lands on the right border.
type grid struct {
	cells raster.Grid
	curve hilbert.Curve
}

func newGrid(space geom.MBR, order uint) (grid, error) {
	if space.IsEmpty() || space.Width() <= 0 || space.Height() <= 0 {
		return grid{}, fmt.Errorf("shard: routing space must have positive extent, got %+v", space)
	}
	if order == 0 || order > hilbert.MaxOrder {
		return grid{}, fmt.Errorf("shard: routing order %d out of range [1, %d]", order, hilbert.MaxOrder)
	}
	return grid{cells: raster.NewGrid(space, order), curve: hilbert.New(order)}, nil
}

// cellOf returns the (clamped) grid cell containing point (x, y).
func (g grid) cellOf(x, y float64) (uint32, uint32) {
	return uint32(g.cells.Col(x)), uint32(g.cells.Row(y))
}

// span returns the inclusive cell rectangle covered by box.
func (g grid) span(box geom.MBR) (x0, y0, x1, y1 uint32) {
	x0, y0 = g.cellOf(box.MinX, box.MinY)
	x1, y1 = g.cellOf(box.MaxX, box.MaxY)
	return x0, y0, x1, y1
}

// Plan is the full partitioning of the routing keyspace: the grid plus
// one contiguous key range per shard, together covering every cell.
// The router holds the plan; each shard holds only its Assignment.
type Plan struct {
	g      grid
	ranges []KeyRange
}

// NewPlan splits the keyspace of a routeOrder Hilbert grid over space
// into shards contiguous, near-equal key ranges. Shards and the router
// must be built from the same space, order and shard count (or the
// ranges the plan prints) or partitioning is undefined.
func NewPlan(space geom.MBR, routeOrder uint, shards int) (*Plan, error) {
	g, err := newGrid(space, routeOrder)
	if err != nil {
		return nil, err
	}
	total := g.curve.NumCells()
	if shards < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", shards)
	}
	if uint64(shards) > total {
		return nil, fmt.Errorf("shard: %d shards exceed the %d routing cells", shards, total)
	}
	size, rem := total/uint64(shards), total%uint64(shards)
	ranges := make([]KeyRange, shards)
	var lo uint64
	for i := range ranges {
		hi := lo + size
		if uint64(i) < rem {
			hi++
		}
		ranges[i] = KeyRange{Lo: lo, Hi: hi}
		lo = hi
	}
	return &Plan{g: g, ranges: ranges}, nil
}

// NumShards returns the number of shards in the plan.
func (p *Plan) NumShards() int { return len(p.ranges) }

// Ranges returns a copy of the per-shard key ranges, in shard order.
func (p *Plan) Ranges() []KeyRange {
	out := make([]KeyRange, len(p.ranges))
	copy(out, p.ranges)
	return out
}

// Space returns the routing data space.
func (p *Plan) Space() geom.MBR { return p.g.cells.Space() }

// RouteOrder returns the routing-grid order.
func (p *Plan) RouteOrder() uint { return p.g.curve.Order() }

// Assignment returns shard i's slice of the plan.
func (p *Plan) Assignment(i int) *Assignment {
	if i < 0 || i >= len(p.ranges) {
		panic(fmt.Sprintf("shard: assignment index %d out of range [0, %d)", i, len(p.ranges)))
	}
	return &Assignment{g: p.g, index: i, rng: p.ranges[i]}
}

// shardOf returns the index of the shard owning cell id d. Ranges are
// contiguous and ascending, so this is a binary search.
func (p *Plan) shardOf(d uint64) int {
	return sort.Search(len(p.ranges), func(i int) bool { return d < p.ranges[i].Hi })
}

// ShardsFor returns the sorted indexes of every shard whose key range
// contains at least one routing cell overlapped by box — the scatter
// set for a probe with that MBR. Never empty: coordinates clamp onto
// the grid.
func (p *Plan) ShardsFor(box geom.MBR) []int {
	x0, y0, x1, y1 := p.g.span(box)
	seen := make([]bool, len(p.ranges))
	n := 0
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			if i := p.shardOf(p.g.curve.D(cx, cy)); !seen[i] {
				seen[i] = true
				if n++; n == len(p.ranges) {
					goto done
				}
			}
		}
	}
done:
	out := make([]int, 0, n)
	for i, s := range seen {
		if s {
			out = append(out, i)
		}
	}
	return out
}

// Assignment is one shard's view of the partitioning: the routing grid
// plus the shard's own key range. It answers the two questions a shard
// process needs — "is this object mine?" (Overlaps, used to filter the
// dataset at registration) and "is this candidate pair mine?" (Owns,
// the reference-point deduplication applied before evaluation).
type Assignment struct {
	g     grid
	index int
	rng   KeyRange
}

// NewAssignment builds a standalone assignment for shard index owning
// rng on the routeOrder routing grid over space — how topojoind's
// -shard-id/-keyrange flags construct the shard's view without knowing
// the full plan.
func NewAssignment(space geom.MBR, routeOrder uint, index int, rng KeyRange) (*Assignment, error) {
	g, err := newGrid(space, routeOrder)
	if err != nil {
		return nil, err
	}
	if index < 0 {
		return nil, fmt.Errorf("shard: negative shard index %d", index)
	}
	if rng.Empty() || rng.Hi > g.curve.NumCells() {
		return nil, fmt.Errorf("shard: keyrange %s outside the %d-cell keyspace", rng, g.curve.NumCells())
	}
	return &Assignment{g: g, index: index, rng: rng}, nil
}

// Index returns the shard's index.
func (a *Assignment) Index() int { return a.index }

// Range returns the shard's key range.
func (a *Assignment) Range() KeyRange { return a.rng }

// RouteOrder returns the routing-grid order.
func (a *Assignment) RouteOrder() uint { return a.g.curve.Order() }

// Space returns the routing data space.
func (a *Assignment) Space() geom.MBR { return a.g.cells.Space() }

// Overlaps reports whether any routing cell covered by box belongs to
// the shard — whether an object with that MBR must be stored here.
func (a *Assignment) Overlaps(box geom.MBR) bool {
	x0, y0, x1, y1 := a.g.span(box)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			if a.rng.Contains(a.g.curve.D(cx, cy)) {
				return true
			}
		}
	}
	return false
}

// Owns reports whether the shard owns the candidate pair with MBRs
// (b1, b2) under the reference-point rule: the pair belongs to the
// shard whose range contains the cell of the intersection's min corner.
// For intersecting MBRs that point lies inside both, so the owning
// shard holds replicas of both objects and exactly one shard in a plan
// reports each pair.
func (a *Assignment) Owns(b1, b2 geom.MBR) bool {
	rx := b1.MinX
	if b2.MinX > rx {
		rx = b2.MinX
	}
	ry := b1.MinY
	if b2.MinY > ry {
		ry = b2.MinY
	}
	cx, cy := a.g.cellOf(rx, ry)
	return a.rng.Contains(a.g.curve.D(cx, cy))
}
