package store

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// TestDecodePolygonIntoMatchesHeap pins the arena decode path to the
// heap decode path: for every encoded polygon, the arena-built views
// must be bit-identical to DecodePolygon's output (vertices, ring
// structure, bounds, area), since the snapshot loader now feeds
// warm starts exclusively through the arena.
func TestDecodePolygonIntoMatchesHeap(t *testing.T) {
	ps := polys(t, 24)
	var ab geom.ArenaBuilder
	heap := make([]*geom.Polygon, len(ps))
	for i, p := range ps {
		blob := EncodePolygon(p)
		var err error
		if heap[i], err = DecodePolygon(blob); err != nil {
			t.Fatal(err)
		}
		if err := DecodePolygonInto(&ab, blob); err != nil {
			t.Fatal(err)
		}
	}
	arena := ab.Finish()
	if arena.Len() != len(ps) {
		t.Fatalf("arena has %d polygons, want %d", arena.Len(), len(ps))
	}
	for i, hp := range heap {
		ap := arena.Polygon(i)
		if !reflect.DeepEqual(append(geom.Ring{}, hp.Shell...), append(geom.Ring{}, ap.Shell...)) {
			t.Fatalf("polygon %d: shell differs between heap and arena decode", i)
		}
		if len(hp.Holes) != len(ap.Holes) {
			t.Fatalf("polygon %d: hole count %d vs %d", i, len(hp.Holes), len(ap.Holes))
		}
		for j := range hp.Holes {
			if !reflect.DeepEqual(append(geom.Ring{}, hp.Holes[j]...), append(geom.Ring{}, ap.Holes[j]...)) {
				t.Fatalf("polygon %d hole %d differs", i, j)
			}
		}
		if hp.Bounds() != ap.Bounds() || hp.Area() != ap.Area() {
			t.Fatalf("polygon %d: bounds/area differ", i)
		}
	}
}

// TestDecodePolygonIntoErrors mirrors TestDecodeErrors for the arena
// path: identical rejection of truncated, ringless and non-finite blobs.
func TestDecodePolygonIntoErrors(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		{1, 0, 0},                   // truncated header
		{0, 0, 0, 0},                // zero rings
		{1, 0, 0, 0, 9},             // truncated ring header
		{1, 0, 0, 0, 9, 0, 0, 0, 1}, // truncated ring data
		nanBlob(),
		infBlob(),
	} {
		var ab geom.ArenaBuilder
		if err := DecodePolygonInto(&ab, bad); err == nil {
			t.Errorf("arena decode of %v should fail", bad)
		}
	}
}

// FuzzDecodeAgreement feeds arbitrary bytes to both decoders: they must
// agree on accept/reject, and on accept the geometries must match.
func FuzzDecodeAgreement(f *testing.F) {
	f.Add(EncodePolygon(geom.NewPolygon(geom.Ring{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}})))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, blob []byte) {
		hp, herr := DecodePolygon(blob)
		var ab geom.ArenaBuilder
		aerr := DecodePolygonInto(&ab, blob)
		if (herr == nil) != (aerr == nil) {
			t.Fatalf("decoders disagree: heap err %v, arena err %v", herr, aerr)
		}
		if herr != nil {
			return
		}
		ap := arenaFirst(ab.Finish())
		if hp.NumVertices() != ap.NumVertices() || len(hp.Holes) != len(ap.Holes) {
			t.Fatalf("structure differs: %d/%d verts, %d/%d holes",
				hp.NumVertices(), ap.NumVertices(), len(hp.Holes), len(ap.Holes))
		}
		// Bitwise: both decoders reject a NaN coordinate, so exact
		// float equality would do, but a bit mismatch is the finer test.
		for j, p := range hp.Shell {
			q := ap.Shell[j]
			if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
				t.Fatalf("shell vertex %d differs: %v vs %v", j, p, q)
			}
		}
	})
}

func arenaFirst(a *geom.Arena) *geom.Polygon { return a.Polygon(0) }
