// Package spatialtopo is a scalable spatial topology join library: it
// determines the topological relation (equals, inside, contains, covered
// by, covers, meets, intersects, disjoint) of polygon pairs at high
// throughput by inserting an interval-list intermediate filter between
// the classic MBR filter and DE-9IM refinement, reproducing "Scalable
// Spatial Topology Joins" (Georgiadis & Mamoulis, EDBT 2026).
//
// Typical use:
//
//	b := spatialtopo.NewBuilder(space, 16)       // one global grid
//	r, _ := spatialtopo.NewObject(0, polyR, b)   // preprocess once
//	s, _ := spatialtopo.NewObject(1, polyS, b)
//	res := spatialtopo.FindRelation(spatialtopo.PC, r, s)
//
// For joins over whole datasets, CandidatePairs produces the
// MBR-intersecting pairs and FindRelation or RelatePred evaluates each.
package spatialtopo

import (
	"context"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/de9im"
	"repro/internal/geojson"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/wkt"
)

// Geometry types.
type (
	// Point is a planar location.
	Point = geom.Point
	// Ring is a closed vertex sequence (closing edge implicit).
	Ring = geom.Ring
	// Polygon is a simple polygon with optional holes.
	Polygon = geom.Polygon
	// MultiPolygon is a collection of polygons.
	MultiPolygon = geom.MultiPolygon
	// MBR is an axis-aligned bounding rectangle.
	MBR = geom.MBR
)

// NewPolygon builds a polygon from a shell and optional holes,
// normalizing ring orientation.
func NewPolygon(shell Ring, holes ...Ring) *Polygon { return geom.NewPolygon(shell, holes...) }

// ValidatePolygon checks ring simplicity and hole placement.
func ValidatePolygon(p *Polygon) error { return geom.ValidatePolygon(p) }

// ParsePolygon reads a WKT POLYGON.
func ParsePolygon(s string) (*Polygon, error) { return wkt.ParsePolygon(s) }

// MarshalPolygon renders a polygon as WKT.
func MarshalPolygon(p *Polygon) string { return wkt.MarshalPolygon(p) }

// Relation is a topological relation between an ordered pair of objects.
type Relation = de9im.Relation

// The eight topological relations.
const (
	Disjoint   = de9im.Disjoint
	Intersects = de9im.Intersects
	Meets      = de9im.Meets
	Equals     = de9im.Equals
	Inside     = de9im.Inside
	CoveredBy  = de9im.CoveredBy
	Contains   = de9im.Contains
	Covers     = de9im.Covers
)

// Method selects a find-relation pipeline.
type Method = core.Method

// The evaluated pipelines: ST2 (MBR filter + refinement), OP2 (enhanced
// MBR filter + refinement), APRIL (intersection-only intermediate
// filter), and PC — the paper's contribution and the recommended default.
const (
	ST2   = core.ST2
	OP2   = core.OP2
	APRIL = core.APRIL
	PC    = core.PC
)

// Builder precomputes APRIL approximations over a fixed global grid.
type Builder = april.Builder

// NewBuilder creates a Builder over the given data space with a
// 2^order × 2^order Hilbert-enumerated grid (the paper uses order 16).
func NewBuilder(space MBR, order uint) *Builder { return april.NewBuilder(space, order) }

// Object is a preprocessed spatial object: polygon, MBR and APRIL
// approximation.
type Object = core.Object

// NewObject preprocesses a polygon into an Object.
func NewObject(id int, p *Polygon, b *Builder) (*Object, error) {
	return core.NewObject(id, p, b)
}

// Result is the outcome of a find-relation evaluation.
type Result = core.Result

// FindRelation determines the most specific topological relation of the
// ordered pair (r, s) using pipeline m.
func FindRelation(m Method, r, s *Object) Result { return core.FindRelation(m, r, s) }

// RelateResult is the outcome of a relate-predicate evaluation.
type RelateResult = core.RelateResult

// RelatePred reports whether relation pred holds for the ordered pair
// (r, s); with the PC method a specialized filter answers most pairs
// without refinement.
func RelatePred(m Method, r, s *Object, pred Relation) RelateResult {
	return core.RelatePred(m, r, s, pred)
}

// DE9IM computes the DE-9IM matrix string code of the pair, e.g.
// "212101212".
func DE9IM(r, s *Polygon) string {
	return de9im.RelatePolygons(r, s).String()
}

// Implies reports whether a pair whose most specific relation is rel also
// satisfies pred (the generalization hierarchy of the relations).
func Implies(rel, pred Relation) bool { return core.Implies(rel, pred) }

// CandidatePairs runs the MBR join filter step over two object sets and
// returns index pairs (into left and right) whose MBRs intersect.
func CandidatePairs(left, right []*Object) [][2]int32 {
	return join.Pairs(mbrs(left), mbrs(right))
}

// CandidatePairsContext is CandidatePairs with cooperative cancellation:
// the R-tree join checks ctx periodically and, once it is done, returns
// nil pairs and ctx's error. Long-running services use it to bound join
// candidate generation by a request deadline.
func CandidatePairsContext(ctx context.Context, left, right []*Object) ([][2]int32, error) {
	return join.PairsContext(ctx, mbrs(left), mbrs(right))
}

// mbrs lists the objects' MBRs in order, the join's input.
func mbrs(objs []*Object) []MBR {
	out := make([]MBR, len(objs))
	for i, o := range objs {
		out[i] = o.MBR
	}
	return out
}

// Mask is a DE-9IM pattern such as "T*F**F***" ('T' non-empty, 'F' empty,
// '*' anything, or a specific dimension 0/1/2).
type Mask = de9im.Mask

// ParseMask parses a 9-character DE-9IM mask.
func ParseMask(s string) (Mask, error) { return de9im.ParseMask(s) }

// RelateMask answers an arbitrary DE-9IM mask query (the ST_Relate
// three-argument form); masks of named relations route through the
// relate_p fast path.
func RelateMask(m Method, r, s *Object, mask Mask) RelateResult {
	return core.RelateMask(m, r, s, mask)
}

// ParseGeoJSON reads a GeoJSON FeatureCollection, Feature or geometry
// into multipolygons (properties are dropped; use internal/geojson for
// features with attributes).
func ParseGeoJSON(data []byte) ([]*MultiPolygon, error) {
	fs, err := geojson.ParseFeatureCollection(data)
	if err != nil {
		return nil, err
	}
	out := make([]*MultiPolygon, len(fs))
	for i, f := range fs {
		out[i] = f.Geometry
	}
	return out, nil
}

// MarshalGeoJSON writes a multipolygon as a GeoJSON geometry object.
func MarshalGeoJSON(m *MultiPolygon) ([]byte, error) { return geojson.MarshalGeometry(m) }
