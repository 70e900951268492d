package de9im

import (
	"math/bits"
	"testing"

	"repro/internal/geom"
)

// refClassifySide is the per-sub-segment walk that the run walk replaced,
// kept as its reference: it locates the midpoint of every noded
// sub-segment of the whole boundary. It reads the cuts alone, as it did
// when the noder dropped contacts at edge endpoints.
func refClassifySide(edges []prepEdge, cuts []cut, loc *geom.Locator, sc *Scratch, in, on, out *bool) {
	classify := func(mid geom.Point) {
		switch sc.locate(loc, mid) {
		case geom.Inside:
			*in = true
		case geom.OnBoundary:
			*on = true
		default:
			*out = true
		}
	}
	sub := func(e *prepEdge, t0, t1 float64) {
		if t1-t0 > 1e-12 {
			classify(geom.Midpoint(geom.Lerp(e.a, e.b, t0), geom.Lerp(e.a, e.b, t1)))
		}
	}
	c := 0
	for i := range edges {
		if *in && *on && *out {
			return
		}
		lo := c
		for c < len(cuts) && cuts[c].edge == int32(i) {
			c++
		}
		run := cuts[lo:c]
		e := &edges[i]
		if len(run) == 0 {
			classify(geom.Midpoint(e.a, e.b))
			continue
		}
		prev := 0.0
		for _, ct := range run {
			if ct.t-prev > 1e-12 {
				sub(e, prev, ct.t)
				prev = ct.t
			}
		}
		sub(e, prev, 1)
	}
}

// Locates reports how many point locations sc has made.
func (sc *Scratch) Locates() int { return sc.locates }

// Events reports the contacts, both sides, of the last pair sc noded:
// cuts, and vertices with a contact.
func (sc *Scratch) Events() int {
	n := len(sc.r.cuts) + len(sc.s.cuts)
	for _, c := range []*contacts{&sc.r, &sc.s} {
		for _, w := range c.verts {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Rings reports the number of rings of p.
func (p *Prepared) Rings() int { return len(p.ringEnd) }

// SideFlags nodes r against s on sc and returns the boundary flags
// {rIn, rOn, rOut, sIn, sOn, sOut} of the run walk, or of the reference
// walk when ref is set.
func SideFlags(r, s *Prepared, sc *Scratch, ref bool) (f [6]bool) {
	sc.node(r, s)
	if ref {
		refClassifySide(r.edges, sc.r.cuts, s.locator, sc, &f[0], &f[1], &f[2])
		refClassifySide(s.edges, sc.s.cuts, r.locator, sc, &f[3], &f[4], &f[5])
	} else {
		sc.classifySide(r, &sc.r, s.locator, &f[0], &f[1], &f[2])
		sc.classifySide(s, &sc.s, r.locator, &f[3], &f[4], &f[5])
	}
	return f
}

// TestLocatesByContact pins the run walk's cost on small cases: a ring
// without contact costs one Locate and each run between contacts one
// more, where the reference walk pays one per noded sub-segment.
// RelateScratch adds the interior-point probes the area entries need.
func TestLocatesByContact(t *testing.T) {
	for _, c := range []struct {
		name            string
		r, s            *geom.Polygon
		run, ref, total int
	}{
		// Nested without contact; EI needs B's interior point probed.
		{"nested", sq(0, 0, 4), sq(1, 1, 1), 2, 8, 3},
		// Disjoint; II needs both interior points probed.
		{"disjoint", sq(0, 0, 1), sq(3, 0, 1), 2, 8, 4},
		// A shared edge: two runs per ring, the edge and the rest. A's
		// ring starts off the contact, so its second run takes a second
		// Locate when the walk wraps; B's starts on it. II needs both
		// interior points probed.
		{"shared-edge", sq(0, 0, 2), sq(2, 0, 2), 5, 8, 7},
	} {
		r, s := Prepare(mp(c.r)), Prepare(mp(c.s))
		var run, ref, total Scratch
		SideFlags(r, s, &run, false)
		SideFlags(r, s, &ref, true)
		RelateScratch(r, s, &total)
		if got := [3]int{run.Locates(), ref.Locates(), total.Locates()}; got != [3]int{c.run, c.ref, c.total} {
			t.Errorf("%s: {run, reference, RelateScratch} locates %v, want %v", c.name, got, [3]int{c.run, c.ref, c.total})
		}
	}
}
