package geom

import "math"

// Locator answers repeated point-location queries against a fixed
// multipolygon in roughly O(E / slabs) per query by binning boundary edges
// into horizontal slabs. It is used by the DE-9IM engine, which classifies
// many noded-segment midpoints against the same geometry.
type Locator struct {
	edges  []edge
	slabs  [][]int32 // edge indices per slab
	minY   float64
	invH   float64 // 1 / slab height
	nSlabs int
	bounds MBR
}

type edge struct {
	a, b Point
}

// NewLocator builds a Locator over all boundary edges of m.
func NewLocator(m *MultiPolygon) *Locator {
	l := &Locator{bounds: m.Bounds(), edges: make([]edge, 0, m.NumVertices())}
	m.Edges(func(a, b Point) { l.edges = append(l.edges, edge{a, b}) })

	n := len(l.edges)
	l.nSlabs = int(math.Sqrt(float64(n))) + 1
	height := l.bounds.Height()
	if height <= 0 {
		height = 1
	}
	l.minY = l.bounds.MinY
	l.invH = float64(l.nSlabs) / height
	l.slabs = make([][]int32, l.nSlabs)
	for i, e := range l.edges {
		lo := l.slabIndex(math.Min(e.a.Y, e.b.Y))
		hi := l.slabIndex(math.Max(e.a.Y, e.b.Y))
		for s := lo; s <= hi; s++ {
			l.slabs[s] = append(l.slabs[s], int32(i))
		}
	}
	return l
}

// NewPolygonLocator builds a Locator for a single polygon.
func NewPolygonLocator(p *Polygon) *Locator {
	return NewLocator(NewMultiPolygon(p))
}

func (l *Locator) slabIndex(y float64) int {
	s := int((y - l.minY) * l.invH)
	if s < 0 {
		return 0
	}
	if s >= l.nSlabs {
		return l.nSlabs - 1
	}
	return s
}

// Locate classifies p against the locator's region.
func (l *Locator) Locate(p Point) Location {
	if !l.bounds.ContainsPoint(p) {
		return Outside
	}
	odd := false
	for _, i := range l.slabs[l.slabIndex(p.Y)] {
		e := l.edges[i]
		if OnSegment(p, e.a, e.b) {
			return OnBoundary
		}
		if (e.a.Y > p.Y) != (e.b.Y > p.Y) {
			xint := e.a.X + (p.Y-e.a.Y)*(e.b.X-e.a.X)/(e.b.Y-e.a.Y)
			if xint > p.X {
				odd = !odd
			}
		}
	}
	if odd {
		return Inside
	}
	return Outside
}

// NumEdges returns the number of indexed boundary edges.
func (l *Locator) NumEdges() int { return len(l.edges) }
