package store

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
)

func polys(t *testing.T, n int) []*geom.Polygon {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	out := make([]*geom.Polygon, n)
	for i := range out {
		if i%4 == 0 {
			out[i] = datagen.BlobWithHole(rng, geom.Point{X: 50, Y: 50}, 10, 24+rng.Intn(40))
		} else {
			out[i] = datagen.Blob(rng, geom.Point{X: 50, Y: 50}, 10, 8+rng.Intn(60))
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for i, want := range polys(t, 20) {
		got, err := DecodePolygon(EncodePolygon(want))
		if err != nil {
			t.Fatal(err)
		}
		if got.NumVertices() != want.NumVertices() || len(got.Holes) != len(want.Holes) {
			t.Fatalf("polygon %d structure changed", i)
		}
		for j := range got.Shell {
			if got.Shell[j] != want.Shell[j] {
				t.Fatalf("polygon %d vertex %d not bit-exact", i, j)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		{1, 0, 0},                   // truncated header
		{0, 0, 0, 0},                // zero rings
		{1, 0, 0, 0, 9},             // truncated ring header
		{1, 0, 0, 0, 9, 0, 0, 0, 1}, // truncated ring data
		// A ring count of ~600 M in a 10-byte blob: rejected without
		// sizing a hole slice by it (that would take 14 GB).
		{'0', '0', '0', '$', 0, 0, 0, 0, '0', '0'},
		nanBlob(),
		infBlob(),
	} {
		if _, err := DecodePolygon(bad); err == nil {
			t.Errorf("decode of %v should fail", bad)
		}
	}
}

// nanBlob and infBlob encode a triangle with one non-finite coordinate.
func nanBlob() []byte { return nonFiniteBlob(math.NaN()) }
func infBlob() []byte { return nonFiniteBlob(math.Inf(-1)) }

func nonFiniteBlob(v float64) []byte {
	return EncodePolygon(&geom.Polygon{Shell: geom.Ring{{X: 0, Y: 0}, {X: 4, Y: v}, {X: 0, Y: 4}}})
}
