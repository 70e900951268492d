// Package dataset bundles a named collection of polygons with their
// precomputed MBRs and APRIL approximations (the paper's preprocessing
// step), tracks the storage sizes reported in Table 2, and reads source
// polygons from WKT and GeoJSON files.
package dataset

import (
	"fmt"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/geom"
)

// Dataset is a named, preprocessed object collection.
type Dataset struct {
	Name    string
	Entity  string // human-readable entity type, e.g. "EU Lakes"
	Objects []*core.Object
	// Arena is the columnar slab backing every object's geometry: one
	// flat coordinate array plus offset tables, built once at
	// preprocessing or load time. Objects' polygons are views into it,
	// position for position with Objects.
	Arena *geom.Arena
}

// Precompute builds a Dataset: the polygons are flattened into one
// columnar arena, and every object gets its MBR and APRIL approximation.
func Precompute(name, entity string, polys []*geom.Polygon, b *april.Builder) (*Dataset, error) {
	arena := geom.BuildArena(polys)
	ds := &Dataset{Name: name, Entity: entity, Arena: arena,
		Objects: make([]*core.Object, 0, len(polys))}
	for i := range polys {
		o, err := core.NewObject(i, arena.Polygon(i), b)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", name, err)
		}
		ds.Objects = append(ds.Objects, o)
	}
	return ds, nil
}

// FromPrecomputed assembles a Dataset from already-built objects and the
// arena backing their geometries. This is the snapshot warm-start entry
// point: the decoder streams the geometry section into the arena and
// hands both over directly, with no rebuild-then-reflatten round trip.
func FromPrecomputed(name, entity string, objs []*core.Object, arena *geom.Arena) *Dataset {
	return &Dataset{Name: name, Entity: entity, Objects: objs, Arena: arena}
}

// Len returns the number of objects.
func (d *Dataset) Len() int { return len(d.Objects) }

// Merge folds a mutation delta into a fresh dataset: base objects
// whose position bit is set in dead are dropped, the survivors keep
// their ids, MBRs and APRIL approximations (geometry is identical, so
// nothing is re-rasterized), and the delta objects are appended in
// order. All geometry lands in one new columnar arena — contiguous
// runs of surviving base objects are moved with ArenaBuilder.AppendRange
// (slab copies, no per-vertex work); only delta objects are
// re-flattened. This is the offline half of an epoch compaction; the
// result is immutable like any built dataset.
func (d *Dataset) Merge(dead []uint64, delta []*core.Object) *Dataset {
	deadBit := func(i int) bool {
		w := i >> 6
		return w < len(dead) && dead[w]&(1<<(uint(i)&63)) != 0
	}
	var b geom.ArenaBuilder
	live := make([]*core.Object, 0, len(d.Objects)+len(delta))
	for i := 0; i < len(d.Objects); {
		if deadBit(i) {
			i++
			continue
		}
		j := i
		for j < len(d.Objects) && !deadBit(j) {
			j++
		}
		b.AppendRange(d.Arena, i, j)
		live = append(live, d.Objects[i:j]...)
		i = j
	}
	for _, o := range delta {
		b.AddPolygon(o.Poly)
		live = append(live, o)
	}
	arena := b.Finish()
	objs := make([]*core.Object, len(live))
	for i, o := range live {
		objs[i] = &core.Object{ID: o.ID, Poly: arena.Polygon(i), MBR: o.MBR, Approx: o.Approx}
	}
	return &Dataset{Name: d.Name, Entity: d.Entity, Objects: objs, Arena: arena}
}

// MBRs returns the bounding boxes of all objects, in object order.
func (d *Dataset) MBRs() []geom.MBR {
	out := make([]geom.MBR, len(d.Objects))
	for i, o := range d.Objects {
		out[i] = o.MBR
	}
	return out
}

// Sizes reports the storage footprint of the dataset in bytes, matching
// Table 2's columns: exact polygons (16 bytes per vertex), MBRs (32 bytes
// each), and the encoded P+C interval lists.
type Sizes struct {
	Polygons int
	MBRs     int
	Approx   int
	Vertices int
}

// Sizes computes the storage accounting of the dataset.
func (d *Dataset) Sizes() Sizes {
	var s Sizes
	for _, o := range d.Objects {
		v := o.Poly.NumVertices()
		s.Vertices += v
		s.Polygons += 16 * v
		s.MBRs += 32
		s.Approx += o.Approx.Bytes()
	}
	return s
}
