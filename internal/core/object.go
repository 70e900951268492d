// Package core implements the paper's contribution: fast detection of
// topological relations between polygon pairs whose MBRs intersect
// (Sec. 3). It provides
//
//   - the specialized intermediate filters IFEquals, IFInside, IFContains
//     and IFIntersects (Fig. 5), which run merge-join relations on the
//     objects' APRIL interval lists to decide the most specific relation
//     — or shrink the candidate set — without touching exact geometry;
//   - Algorithm 1 (FindRelation) dispatching on the MBR intersection case;
//   - the relate_p predicate filters of Fig. 6;
//   - the four evaluated pipelines ST2, OP2, APRIL and P+C behind a
//     single Method switch, sharing the DE-9IM engine for refinement.
package core

import (
	"fmt"
	"sync"

	"repro/internal/april"
	"repro/internal/de9im"
	"repro/internal/geom"
)

// Object is one spatial object of a dataset: its exact geometry, its MBR,
// and its precomputed APRIL approximation. The MBR and approximation are
// built once during preprocessing; the filters only touch those, loading
// the exact geometry solely for refinement.
type Object struct {
	ID     int
	Poly   *geom.Polygon
	MBR    geom.MBR
	Approx april.Approx

	prepOnce sync.Once
	prep     *de9im.Prepared
}

// NewObject precomputes the MBR and APRIL approximation of a polygon.
func NewObject(id int, p *geom.Polygon, b *april.Builder) (*Object, error) {
	ap, err := b.Build(p)
	if err != nil {
		return nil, fmt.Errorf("core: object %d: %w", id, err)
	}
	return &Object{ID: id, Poly: p, MBR: p.Bounds(), Approx: ap}, nil
}

// multi returns the object's geometry as a multipolygon for the DE-9IM
// engine.
func (o *Object) multi() *geom.MultiPolygon { return geom.NewMultiPolygon(o.Poly) }

// Prepared returns the object's DE-9IM acceleration structures (locator,
// edge tables, sweep index), built on first use and cached for the
// object's lifetime. An object typically survives MBR-filtering against
// many partners; caching makes the per-pair refinement cost independent
// of geometry size for everything except the sweep itself. Safe for
// concurrent callers.
func (o *Object) Prepared() *de9im.Prepared {
	o.prepOnce.Do(func() { o.prep = de9im.Prepare(o.multi()) })
	return o.prep
}

// refineScratch pools noding scratches for the default Refine entry
// point, which has no caller-owned state to hang one off.
var refineScratch = sync.Pool{New: func() any { return new(de9im.Scratch) }}

// Refine computes the DE-9IM matrix of the pair's exact geometries: the
// refinement step of every pipeline. It reuses the objects' cached
// Prepared structures and a pooled scratch; loop-heavy callers that want
// a private scratch use a Sweeper instead.
func Refine(r, s *Object) de9im.Matrix {
	sc := refineScratch.Get().(*de9im.Scratch)
	m := de9im.RelateScratch(r.Prepared(), s.Prepared(), sc)
	refineScratch.Put(sc)
	return m
}
