package harness

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
)

func storePolys(n int) []*geom.Polygon {
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

func TestCacheAccounting(t *testing.T) {
	ps := storePolys(10)
	s := newGeomStore(ps, 3)
	if s.storedBytes() == 0 {
		t.Fatal("store empty")
	}
	// First accesses: all misses.
	for i := 0; i < 3; i++ {
		got, err := s.geometry(i)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumVertices() != ps[i].NumVertices() || got.Shell[0] != ps[i].Shell[0] {
			t.Fatalf("polygon %d changed through the store", i)
		}
	}
	st := s.stats
	if st.Loads != 3 || st.Hits != 0 {
		t.Fatalf("after cold reads: %+v", st)
	}
	// Re-reading cached entries: hits, no bytes.
	bytesBefore := st.BytesRead
	for i := 0; i < 3; i++ {
		if _, err := s.geometry(i); err != nil {
			t.Fatal(err)
		}
	}
	st = s.stats
	if st.Hits != 3 || st.Loads != 3 || st.BytesRead != bytesBefore {
		t.Fatalf("after warm reads: %+v", st)
	}
	// Evict by loading beyond capacity, then re-read an evicted entry.
	if _, err := s.geometry(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.geometry(0); err != nil { // 0 was LRU -> evicted
		t.Fatal(err)
	}
	if st = s.stats; st.Loads != 5 {
		t.Fatalf("eviction not observed: %+v", st)
	}
}

func TestNoCache(t *testing.T) {
	s := newGeomStore(storePolys(4), 0)
	for k := 0; k < 3; k++ {
		if _, err := s.geometry(1); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.stats; st.Loads != 3 || st.Hits != 0 {
		t.Fatalf("cacheless store: %+v", st)
	}
}

func TestOutOfRange(t *testing.T) {
	s := newGeomStore(storePolys(2), 2)
	if _, err := s.geometry(-1); err == nil {
		t.Error("negative id should fail")
	}
	if _, err := s.geometry(2); err == nil {
		t.Error("out of range id should fail")
	}
}
