package harness

import (
	"container/list"
	"fmt"

	"repro/internal/geom"
	"repro/internal/store"
)

// ioStats counts geometry-store accesses.
type ioStats struct {
	// Loads is the number of geometry fetches that missed the cache and
	// had to be decoded from storage.
	Loads int
	// Hits is the number of fetches served by the cache.
	Hits int
	// BytesRead is the total serialized bytes decoded from storage.
	BytesRead int64
}

// geomStore simulates the disk-resident geometry storage of a spatial
// database for the data-access experiment: exact polygons live as
// store blobs and are decoded on demand through a bounded LRU cache,
// with byte-accurate I/O accounting. It turns Sec. 4.3's "avoids
// loading full object geometries" into measured bytes.
type geomStore struct {
	blobs    [][]byte
	cache    map[int]*list.Element
	order    *list.List // front = most recently used
	capacity int
	stats    ioStats
}

type cacheEntry struct {
	id   int
	poly *geom.Polygon
}

// newGeomStore creates a store holding the given polygons in serialized
// form. cacheSize bounds the number of decoded geometries kept in
// memory; 0 disables caching entirely.
func newGeomStore(polys []*geom.Polygon, cacheSize int) *geomStore {
	s := &geomStore{
		blobs:    make([][]byte, len(polys)),
		cache:    make(map[int]*list.Element),
		order:    list.New(),
		capacity: cacheSize,
	}
	for i, p := range polys {
		s.blobs[i] = store.EncodePolygon(p)
	}
	return s
}

// storedBytes returns the total serialized size.
func (s *geomStore) storedBytes() int64 {
	var n int64
	for _, b := range s.blobs {
		n += int64(len(b))
	}
	return n
}

// geometry fetches and decodes polygon id, through the cache.
func (s *geomStore) geometry(id int) (*geom.Polygon, error) {
	if id < 0 || id >= len(s.blobs) {
		return nil, fmt.Errorf("store: id %d out of range [0,%d)", id, len(s.blobs))
	}
	if el, ok := s.cache[id]; ok {
		s.stats.Hits++
		s.order.MoveToFront(el)
		return el.Value.(*cacheEntry).poly, nil
	}
	s.stats.Loads++
	s.stats.BytesRead += int64(len(s.blobs[id]))
	poly, err := store.DecodePolygon(s.blobs[id])
	if err != nil {
		return nil, fmt.Errorf("store: id %d: %w", id, err)
	}
	if s.capacity > 0 {
		s.cache[id] = s.order.PushFront(&cacheEntry{id: id, poly: poly})
		for s.order.Len() > s.capacity {
			back := s.order.Back()
			delete(s.cache, back.Value.(*cacheEntry).id)
			s.order.Remove(back)
		}
	}
	return poly, nil
}
