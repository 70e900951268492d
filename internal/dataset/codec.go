package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/store"
)

// Binary format (.stj, little-endian): magic u32, version u16, name and
// entity (u16-length-prefixed), object count u32, then per object two
// u32-length-prefixed blobs — the geometry as the shared
// store.EncodePolygon blob (the one polygon wire format: snapshots and
// the WAL carry the same bytes) and the encoded APRIL approximation.
// Floats are bit-exact. Version 1 (private per-vertex ring encoding) is
// retired and rejected.
const (
	magic   = 0x53544a31 // "STJ1"
	version = 2

	// maxBlobLen bounds either per-object blob (256 MiB): larger values
	// indicate corruption, and the reader grows its buffer only as bytes
	// actually arrive, so a lying length cannot force the allocation.
	maxBlobLen = 1 << 28
)

// Write serializes the dataset.
func (d *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := binary.LittleEndian.AppendUint32(nil, magic)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	for _, s := range []string{d.Name, d.Entity} {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(s)))
		hdr = append(hdr, s...)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(d.Objects)))
	bw.Write(hdr) // bufio keeps the first error for Flush
	var n [4]byte
	for _, o := range d.Objects {
		for _, blob := range [][]byte{store.EncodePolygon(o.Poly), o.Approx.AppendEncode(nil)} {
			binary.LittleEndian.PutUint32(n[:], uint32(len(blob)))
			bw.Write(n[:])
			bw.Write(blob)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("dataset %s: %w", d.Name, err)
	}
	return nil
}

// Read parses a dataset written by Write.
func Read(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	var hdr struct {
		Magic   uint32
		Version uint16
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("dataset: header: %w", err)
	}
	if hdr.Magic != magic {
		return nil, fmt.Errorf("dataset: bad magic %#x", hdr.Magic)
	}
	if hdr.Version != version {
		return nil, fmt.Errorf("dataset: unsupported version %d (want %d; regenerate the file)", hdr.Version, version)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	entity, err := readString(br)
	if err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	// Cap the preallocation: a corrupt header must not force gigabytes of
	// slice capacity before the stream runs dry.
	capHint := n
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	// Geometry blobs stream straight into one columnar arena; objects
	// are materialized after Finish, when the slab views and cached
	// bounds exist.
	var ab geom.ArenaBuilder
	var blob bytes.Buffer // reused: both decoders copy out of it
	approxes := make([]april.Approx, 0, capHint)
	for i := uint32(0); i < n; i++ {
		ap, err := readObjectInto(&ab, br, &blob)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: object %d: %w", name, i, err)
		}
		approxes = append(approxes, ap)
	}
	arena := ab.Finish()
	d := &Dataset{Name: name, Entity: entity, Arena: arena,
		Objects: make([]*core.Object, 0, len(approxes))}
	for i, ap := range approxes {
		p := arena.Polygon(i)
		d.Objects = append(d.Objects, &core.Object{ID: i, Poly: p, MBR: p.Bounds(), Approx: ap})
	}
	return d, nil
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readBlob reads one u32-length-prefixed blob into buf (reset first).
func readBlob(r io.Reader, buf *bytes.Buffer) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxBlobLen {
		return nil, fmt.Errorf("implausible blob size %d", n)
	}
	buf.Reset()
	if _, err := io.CopyN(buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readObjectInto streams one object's geometry blob into the arena
// builder and returns its decoded approximation. On error the builder
// holds a partial polygon and must be discarded (Read fails the whole
// dataset anyway).
func readObjectInto(b *geom.ArenaBuilder, r io.Reader, buf *bytes.Buffer) (april.Approx, error) {
	blob, err := readBlob(r, buf)
	if err != nil {
		return april.Approx{}, err
	}
	if err := store.DecodePolygonInto(b, blob); err != nil {
		return april.Approx{}, err
	}
	if blob, err = readBlob(r, buf); err != nil {
		return april.Approx{}, err
	}
	ap, _, err := april.DecodeApprox(blob)
	return ap, err
}
