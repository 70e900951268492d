// Package store is the one polygon wire format: the geometry blob that
// dataset (.stj) files, snapshots and WAL records carry, plus its two
// decoders (onto the heap, or straight into a geom.ArenaBuilder for
// warm starts). The data-access experiment's simulated disk store keeps
// the same blobs (see the harness).
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// EncodePolygon serializes a polygon as ring count, then per ring a
// vertex count and flat little-endian float64 coordinates.
func EncodePolygon(p *geom.Polygon) []byte {
	size := 4
	rings := 1 + len(p.Holes)
	size += rings * 4
	size += 16 * p.NumVertices()
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rings))
	appendRing := func(r geom.Ring) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
		for _, pt := range r {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pt.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(pt.Y))
		}
	}
	appendRing(p.Shell)
	for _, h := range p.Holes {
		appendRing(h)
	}
	return buf
}

// DecodePolygonInto parses a blob written by EncodePolygon directly into
// an arena builder, with the same bounds checks and error strings as
// DecodePolygon. This is the warm-start path: a snapshot's geometry
// section streams straight into one columnar slab, with no intermediate
// heap polygon to build and re-flatten. Orientation is normalized by the
// builder's Finish exactly as NewPolygon would, so the decoded views are
// bit-identical to DecodePolygon's output. On error the builder holds a
// partial polygon and must be discarded.
func DecodePolygonInto(b *geom.ArenaBuilder, buf []byte) error {
	if len(buf) < 4 {
		return fmt.Errorf("truncated header")
	}
	rings := binary.LittleEndian.Uint32(buf)
	if rings == 0 {
		return fmt.Errorf("polygon with no rings")
	}
	off := 4
	b.BeginPolygon()
	for r := uint32(0); r < rings; r++ {
		if off+4 > len(buf) {
			return fmt.Errorf("truncated ring header")
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if off+16*n > len(buf) {
			return fmt.Errorf("truncated ring data")
		}
		b.BeginRing()
		for i := 0; i < n; i++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
			b.Vertex(x, y)
			off += 16
		}
	}
	return nil
}

// DecodePolygon parses a blob written by EncodePolygon. Every length is
// bounds-checked against the buffer, so truncated or bit-rotted blobs
// fail with an error instead of panicking — the snapshot loader depends
// on that to classify corruption.
func DecodePolygon(buf []byte) (*geom.Polygon, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("truncated header")
	}
	rings := binary.LittleEndian.Uint32(buf)
	off := 4
	readRing := func() (geom.Ring, error) {
		if off+4 > len(buf) {
			return nil, fmt.Errorf("truncated ring header")
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		if off+16*n > len(buf) {
			return nil, fmt.Errorf("truncated ring data")
		}
		r := make(geom.Ring, n)
		for i := 0; i < n; i++ {
			x := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:]))
			r[i] = geom.Point{X: x, Y: y}
			off += 16
		}
		return r, nil
	}
	if rings == 0 {
		return nil, fmt.Errorf("polygon with no rings")
	}
	shell, err := readRing()
	if err != nil {
		return nil, err
	}
	var holes []geom.Ring
	if rings > 1 {
		holes = make([]geom.Ring, rings-1)
	}
	for i := range holes {
		if holes[i], err = readRing(); err != nil {
			return nil, err
		}
	}
	return geom.NewPolygon(shell, holes...), nil
}
