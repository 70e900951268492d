// Package snapshot persists a fully preprocessed dataset — geometry
// blobs, APRIL interval lists, and the R-tree's bulk-load entries — as
// one durable, checksummed file, so a restarted server is warm without
// re-rasterizing anything (the paper's premise that approximations are
// "created once and used by all queries", made literal across process
// lifetimes, as the RI precursor paper treats its serialized interval
// lists).
//
// Format (version 3, the only one read or written; little-endian):
//
//	magic "STJS" u32 | version u16 | sections u16
//	section table: per section { id u32, offset u64, length u64, crc u32 }
//	header crc u32 (CRC-32C of every header byte above)
//	section payloads, each covered by its table CRC
//
// Sections: meta (name, entity, grid space + order, object count),
// geom (length-prefixed store.EncodePolygon blobs), april
// (length-prefixed interval-list encodings), tree (the STR bulk-load
// entry array: id + MBR per object), epoch (compaction epoch, next
// object id, WAL watermark, cumulative tombstoned ids).
//
// Object ids in the tree section are the objects' real ids, so a
// mutated dataset — where ids are sparse after deletions and upserts —
// round-trips exactly; the epoch section makes a snapshot a *complete
// epoch*: a warm start resumes from the highest epoch on disk and
// mutation ids continue from NextID, never reusing a tombstoned id.
// The write-ahead-log LSN watermark says every WAL record at or below
// it is folded into the epoch, so warm-start replay applies only the
// records past it. A file of any other version is a *CorruptError
// (unsupported version): quarantined and rebuilt from source like any
// other unreadable snapshot.
//
// Writes are atomic: tmp file in the same directory, fsync, rename,
// directory fsync. Reads verify every checksum and bound before
// trusting a byte; any mismatch is a *CorruptError, which callers
// quarantine with Quarantine rather than deleting — the torn file is
// evidence. A corrupt snapshot can therefore delay answers (the server
// rebuilds from source) but never change them.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/store"
)

const (
	magic   = 0x53544a53 // "STJS"
	version = 3

	secMeta   = 1
	secGeom   = 2
	secApril  = 3
	secTree   = 4
	secEpoch  = 5
	nSections = 5

	preambleLen = 8                                      // magic + version + section count
	tableEntry  = 24                                     // id u32 + offset u64 + length u64 + crc u32
	headerLen   = preambleLen + nSections*tableEntry + 4 // + header crc

	// maxSectionLen bounds any single section (1 GiB): a corrupt table
	// must not force a huge allocation before the CRC check can fail.
	maxSectionLen = 1 << 30
)

// Ext is the snapshot file extension.
const Ext = ".snap"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a snapshot that failed a structural or checksum
// check. It is the signal to quarantine the file and rebuild from
// source — never to trust any part of its contents.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: %s: corrupt: %s", e.Path, e.Reason)
}

// IsCorrupt reports whether err is a snapshot corruption (as opposed to
// the file simply not existing, or an I/O failure).
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Snapshot is a decoded, fully verified snapshot.
type Snapshot struct {
	Name    string
	Entity  string
	Space   geom.MBR
	Order   uint
	Dataset *dataset.Dataset
	// EpochMeta is the mutation lineage.
	EpochMeta EpochMeta
}

// EpochMeta is the mutation lineage persisted with an epoch snapshot.
type EpochMeta struct {
	// Epoch is the compaction generation: 0 for a dataset built
	// straight from source, N after the Nth compaction folded the
	// delta layer into a new base.
	Epoch uint64
	// NextID is the id the next inserted object receives. Ids are
	// never reused, so NextID is strictly greater than every live and
	// tombstoned id.
	NextID int
	// Tombs is the cumulative set of ids deleted over the dataset's
	// history (ascending): ids that once existed, are gone from the
	// object array, and must never resurrect on a warm start.
	Tombs []int
	// WalLSN is the write-ahead-log watermark: every WAL record with
	// LSN <= WalLSN is folded into this epoch, so replay after a warm
	// start skips them and the log can be pruned through it. Zero for
	// datasets never served with a WAL.
	WalLSN uint64
}

// DatasetPath maps a dataset name to its snapshot path under dir,
// rejecting names that could escape dir (path separators, "..",
// absolute paths): dataset names reach this function from network
// requests and file names, so they are hostile input.
func DatasetPath(dir, name string) (string, error) {
	if err := ValidName(name); err != nil {
		return "", err
	}
	return filepath.Join(dir, name+Ext), nil
}

// ValidName rejects dataset names unusable as snapshot file stems:
// empty, over-long, path-traversing, hidden, or containing separators
// or control characters.
func ValidName(name string) error {
	switch {
	case name == "":
		return errors.New("snapshot: empty dataset name")
	case len(name) > 128:
		return fmt.Errorf("snapshot: dataset name longer than 128 bytes")
	case name == "." || name == "..":
		return fmt.Errorf("snapshot: invalid dataset name %q", name)
	case strings.HasPrefix(name, "."), strings.HasPrefix(name, "-"):
		return fmt.Errorf("snapshot: dataset name %q must not start with %q", name, name[:1])
	}
	for _, r := range name {
		switch {
		case r == '/' || r == '\\' || r == 0 || r < 0x20:
			return fmt.Errorf("snapshot: dataset name %q contains path or control characters", name)
		}
	}
	if filepath.Base(name) != name || filepath.IsAbs(name) {
		return fmt.Errorf("snapshot: dataset name %q is not a bare file stem", name)
	}
	return nil
}

// Write atomically persists ds (preprocessed on a grid over space at
// order) to path as epoch 0 with no tombstones: the form every
// build-from-source snapshot takes. See WriteEpoch for mutated
// datasets.
func Write(path string, ds *dataset.Dataset, space geom.MBR, order uint) error {
	next := 0
	for _, o := range ds.Objects {
		if o.ID >= next {
			next = o.ID + 1
		}
	}
	return WriteEpoch(path, ds, space, order, EpochMeta{NextID: next})
}

// WriteEpoch atomically persists ds together with its mutation lineage
// em: tmp file, fsync, rename, directory fsync. On any error the tmp
// file is removed and an existing snapshot at path is left untouched.
// A snapshot that survives WriteEpoch is a *complete epoch* — a crash
// at any earlier instant leaves the previous epoch's file intact, which
// is exactly what a warm start resumes from.
func WriteEpoch(path string, ds *dataset.Dataset, space geom.MBR, order uint, em EpochMeta) (err error) {
	tombSet := make(map[int]struct{}, len(em.Tombs))
	for _, id := range em.Tombs {
		tombSet[id] = struct{}{}
	}
	for _, o := range ds.Objects {
		if o.ID < 0 || int64(o.ID) > math.MaxInt32 {
			return fmt.Errorf("snapshot: %s: object id %d outside u31", path, o.ID)
		}
		if o.ID >= em.NextID {
			return fmt.Errorf("snapshot: %s: object id %d >= NextID %d", path, o.ID, em.NextID)
		}
		if _, dead := tombSet[o.ID]; dead {
			return fmt.Errorf("snapshot: %s: object id %d is both live and tombstoned", path, o.ID)
		}
	}
	epochSec, err := encodeEpoch(em)
	if err != nil {
		return fmt.Errorf("snapshot: %s: %w", path, err)
	}
	sections := [nSections][]byte{
		secMeta - 1:  encodeMeta(ds, space, order),
		secGeom - 1:  encodeGeom(ds),
		secApril - 1: encodeApril(ds),
		secTree - 1:  encodeTree(ds),
		secEpoch - 1: epochSec,
	}

	header := make([]byte, 0, headerLen)
	header = binary.LittleEndian.AppendUint32(header, magic)
	header = binary.LittleEndian.AppendUint16(header, version)
	header = binary.LittleEndian.AppendUint16(header, nSections)
	offset := uint64(headerLen)
	for i, sec := range sections {
		header = binary.LittleEndian.AppendUint32(header, uint32(i+1))
		header = binary.LittleEndian.AppendUint64(header, offset)
		header = binary.LittleEndian.AppendUint64(header, uint64(len(sec)))
		header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(sec, castagnoli))
		offset += uint64(len(sec))
	}
	header = binary.LittleEndian.AppendUint32(header, crc32.Checksum(header, castagnoli))

	if err := fault.Check("snapshot.write.create"); err != nil {
		return fmt.Errorf("snapshot: %s: %w", path, err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := fault.Writer("snapshot.write", f)
	if _, err = w.Write(header); err != nil {
		return fmt.Errorf("snapshot: %s: header: %w", path, err)
	}
	for i, sec := range sections {
		if _, err = w.Write(sec); err != nil {
			return fmt.Errorf("snapshot: %s: section %d: %w", path, i+1, err)
		}
	}
	if err = fault.Check("snapshot.write.sync"); err != nil {
		return fmt.Errorf("snapshot: %s: %w", path, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snapshot: %s: fsync: %w", path, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: %s: close: %w", path, err)
	}
	if err = fault.Check("snapshot.write.rename"); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %s: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // best effort: the rename itself already landed
	}
	defer d.Close()
	d.Sync() // directory fsync is advisory on some filesystems
	return nil
}

// Read loads and fully verifies the snapshot at path. A missing file
// surfaces as an fs.ErrNotExist error; every structural, checksum, or
// decode failure surfaces as a *CorruptError.
func Read(path string) (*Snapshot, error) {
	if err := fault.Check("snapshot.read"); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) error {
		return &CorruptError{Path: path, Reason: fmt.Sprintf(format, args...)}
	}
	if len(data) < preambleLen {
		return nil, corrupt("file shorter than preamble (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != magic {
		return nil, corrupt("bad magic %#x", m)
	}
	// A flipped bit in the magic or version lands here — as a bad-magic
	// or unsupported-version corruption, never a misread.
	if ver := binary.LittleEndian.Uint16(data[4:]); ver != version {
		return nil, corrupt("unsupported version %d", ver)
	}
	if len(data) < headerLen {
		return nil, corrupt("file shorter than header (%d bytes)", len(data))
	}
	header := data[:headerLen]
	wantCRC := binary.LittleEndian.Uint32(header[headerLen-4:])
	if got := crc32.Checksum(header[:headerLen-4], castagnoli); got != wantCRC {
		return nil, corrupt("header checksum mismatch (%#x != %#x)", got, wantCRC)
	}
	if n := binary.LittleEndian.Uint16(header[6:]); n != nSections {
		return nil, corrupt("unexpected section count %d", n)
	}

	sections := make([][]byte, nSections)
	for i := 0; i < nSections; i++ {
		ent := header[preambleLen+i*tableEntry:]
		id := binary.LittleEndian.Uint32(ent)
		off := binary.LittleEndian.Uint64(ent[4:])
		length := binary.LittleEndian.Uint64(ent[12:])
		crc := binary.LittleEndian.Uint32(ent[20:])
		if id != uint32(i+1) {
			return nil, corrupt("section %d has id %d", i+1, id)
		}
		if length > maxSectionLen || off > uint64(len(data)) || off+length > uint64(len(data)) {
			return nil, corrupt("section %d out of bounds (offset %d, length %d, file %d)",
				id, off, length, len(data))
		}
		sec := data[off : off+length]
		if got := crc32.Checksum(sec, castagnoli); got != crc {
			return nil, corrupt("section %d checksum mismatch (%#x != %#x)", id, got, crc)
		}
		sections[i] = sec
	}

	snap, err := decodeSections(sections)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return snap, nil
}

// Quarantine renames a corrupt snapshot aside as
// "<path>.corrupt-<unix-timestamp>", preserving it as evidence, and
// returns the new name. The original path is free for a rebuilt
// snapshot afterwards.
//
// A candidate name is only considered free when Stat reports it does
// not exist: any other Stat error (EACCES, EIO, ENOTDIR) is propagated
// instead of being treated as "free", because os.Rename onto a name we
// merely failed to probe would silently overwrite a colliding candidate
// — destroying exactly the evidence quarantine exists to preserve.
func Quarantine(path string) (string, error) {
	dst := fmt.Sprintf("%s.corrupt-%d", path, time.Now().Unix())
	for i := 0; ; i++ {
		candidate := dst
		if i > 0 {
			candidate = fmt.Sprintf("%s.%d", dst, i)
		}
		_, err := os.Stat(candidate)
		if ferr := fault.Check("snapshot.quarantine.stat"); ferr != nil {
			err = ferr
		}
		switch {
		case err == nil:
			continue // name taken: probe the next suffix
		case errors.Is(err, fs.ErrNotExist):
			if rerr := os.Rename(path, candidate); rerr != nil {
				return "", rerr
			}
			return candidate, nil
		default:
			return "", fmt.Errorf("snapshot: quarantine probe %s: %w", candidate, err)
		}
	}
}

// --- section encoding ---

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendMBR(buf []byte, b geom.MBR) []byte {
	for _, v := range [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func encodeMeta(ds *dataset.Dataset, space geom.MBR, order uint) []byte {
	buf := appendString(nil, ds.Name)
	buf = appendString(buf, ds.Entity)
	buf = appendMBR(buf, space)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(order))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ds.Objects)))
	return buf
}

func encodeGeom(ds *dataset.Dataset) []byte {
	var buf []byte
	for _, o := range ds.Objects {
		blob := store.EncodePolygon(o.Poly)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	return buf
}

func encodeApril(ds *dataset.Dataset) []byte {
	var buf []byte
	for _, o := range ds.Objects {
		enc := o.Approx.AppendEncode(nil)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(enc)))
		buf = append(buf, enc...)
	}
	return buf
}

func encodeTree(ds *dataset.Dataset) []byte {
	var buf []byte
	for _, o := range ds.Objects {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.ID))
		buf = appendMBR(buf, o.MBR)
	}
	return buf
}

func encodeEpoch(em EpochMeta) ([]byte, error) {
	if em.NextID < 0 || int64(em.NextID) > math.MaxInt32+1 {
		return nil, fmt.Errorf("epoch NextID %d outside u31 range", em.NextID)
	}
	buf := binary.LittleEndian.AppendUint64(nil, em.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(em.NextID))
	buf = binary.LittleEndian.AppendUint64(buf, em.WalLSN)
	// Tombstones are written sorted so identical states produce
	// identical bytes (writes stay deterministic).
	tombs := append([]int(nil), em.Tombs...)
	sort.Ints(tombs)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tombs)))
	prev := -1
	for _, id := range tombs {
		if id < 0 || int64(id) > math.MaxInt32 {
			return nil, fmt.Errorf("tombstone id %d outside u31 range", id)
		}
		if id == prev {
			return nil, fmt.Errorf("duplicate tombstone id %d", id)
		}
		if id >= em.NextID {
			return nil, fmt.Errorf("tombstone id %d >= NextID %d", id, em.NextID)
		}
		prev = id
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf, nil
}

// --- section decoding ---

type reader struct {
	buf []byte
	off int
}

var errShort = errors.New("truncated section")

func (r *reader) u16() (uint16, error) {
	if r.off+2 > len(r.buf) {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) f64() (float64, error) {
	if r.off+8 > len(r.buf) {
		return 0, errShort
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.buf) {
		return "", errShort
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if uint64(r.off)+uint64(n) > uint64(len(r.buf)) {
		return nil, errShort
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) mbr() (geom.MBR, error) {
	var b geom.MBR
	var err error
	if b.MinX, err = r.f64(); err != nil {
		return b, err
	}
	if b.MinY, err = r.f64(); err != nil {
		return b, err
	}
	if b.MaxX, err = r.f64(); err != nil {
		return b, err
	}
	b.MaxY, err = r.f64()
	return b, err
}

func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("%d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func decodeSections(sections [][]byte) (*Snapshot, error) {
	meta := &reader{buf: sections[secMeta-1]}
	snap := &Snapshot{}
	var err error
	if snap.Name, err = meta.str(); err != nil {
		return nil, fmt.Errorf("meta name: %w", err)
	}
	if snap.Entity, err = meta.str(); err != nil {
		return nil, fmt.Errorf("meta entity: %w", err)
	}
	if snap.Space, err = meta.mbr(); err != nil {
		return nil, fmt.Errorf("meta space: %w", err)
	}
	order, err := meta.u32()
	if err != nil {
		return nil, fmt.Errorf("meta order: %w", err)
	}
	if order == 0 || order > 32 {
		return nil, fmt.Errorf("implausible grid order %d", order)
	}
	snap.Order = uint(order)
	count, err := meta.u32()
	if err != nil {
		return nil, fmt.Errorf("meta count: %w", err)
	}
	if err := meta.done(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	if err := ValidName(snap.Name); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}

	// The expensive sections must agree with the meta count exactly;
	// preallocation is capped so a lying count cannot balloon memory
	// before the per-object bounds checks run dry.
	capHint := count
	if capHint > 1<<16 {
		capHint = 1 << 16
	}

	// The epoch section is decoded before the object loop so the tree
	// ids can be validated against NextID.
	er := &reader{buf: sections[secEpoch-1]}
	if snap.EpochMeta.Epoch, err = er.u64(); err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}
	next, err := er.u64()
	if err != nil {
		return nil, fmt.Errorf("epoch next id: %w", err)
	}
	if next > math.MaxInt32+1 {
		return nil, fmt.Errorf("epoch next id %d outside u31 range", next)
	}
	snap.EpochMeta.NextID = int(next)
	if uint64(count) > next {
		return nil, fmt.Errorf("epoch next id %d below object count %d", next, count)
	}
	if snap.EpochMeta.WalLSN, err = er.u64(); err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}
	tombCount, err := er.u32()
	if err != nil {
		return nil, fmt.Errorf("epoch tombstones: %w", err)
	}
	tombHint := tombCount
	if tombHint > 1<<16 {
		tombHint = 1 << 16
	}
	tombs := make([]int, 0, tombHint)
	prev := -1
	for i := uint32(0); i < tombCount; i++ {
		id, err := er.u32()
		if err != nil {
			return nil, fmt.Errorf("epoch tombstone %d: %w", i, err)
		}
		if int(id) <= prev {
			return nil, fmt.Errorf("epoch tombstone %d: id %d not ascending", i, id)
		}
		if uint64(id) >= next {
			return nil, fmt.Errorf("epoch tombstone id %d >= next id %d", id, next)
		}
		prev = int(id)
		tombs = append(tombs, int(id))
	}
	if err := er.done(); err != nil {
		return nil, fmt.Errorf("epoch: %w", err)
	}
	snap.EpochMeta.Tombs = tombs
	seen := make(map[int]struct{}, capHint)
	// Geometry blobs stream directly into one columnar arena (the
	// warm-start path: decode once, no rebuild-then-reflatten); objects
	// are materialized after Finish, when slab views and cached bounds
	// exist, and only then checked against the stored tree MBRs.
	var ab geom.ArenaBuilder
	geomR := &reader{buf: sections[secGeom-1]}
	aprilR := &reader{buf: sections[secApril-1]}
	treeR := &reader{buf: sections[secTree-1]}
	approxes := make([]april.Approx, 0, capHint)
	entries := make([]join.Entry, 0, capHint)
	for i := uint32(0); i < count; i++ {
		blob, err := geomR.bytes()
		if err != nil {
			return nil, fmt.Errorf("geom object %d: %w", i, err)
		}
		if err := store.DecodePolygonInto(&ab, blob); err != nil {
			return nil, fmt.Errorf("geom object %d: %w", i, err)
		}
		enc, err := aprilR.bytes()
		if err != nil {
			return nil, fmt.Errorf("april object %d: %w", i, err)
		}
		ap, n, err := april.DecodeApprox(enc)
		if err != nil {
			return nil, fmt.Errorf("april object %d: %w", i, err)
		}
		if n != len(enc) {
			return nil, fmt.Errorf("april object %d: %d trailing bytes", i, len(enc)-n)
		}
		id, err := treeR.u32()
		if err != nil {
			return nil, fmt.Errorf("tree object %d: %w", i, err)
		}
		// Ids are real: sparse after mutations, but unique, below NextID,
		// and disjoint from the tombstone set.
		if uint64(id) >= next {
			return nil, fmt.Errorf("tree object %d: id %d >= next id %d", i, id, next)
		}
		if _, dup := seen[int(id)]; dup {
			return nil, fmt.Errorf("tree object %d: duplicate id %d", i, id)
		}
		seen[int(id)] = struct{}{}
		box, err := treeR.mbr()
		if err != nil {
			return nil, fmt.Errorf("tree object %d: %w", i, err)
		}
		approxes = append(approxes, ap)
		entries = append(entries, join.Entry{Box: box, ID: int32(id)})
	}
	for _, id := range snap.EpochMeta.Tombs {
		if _, live := seen[id]; live {
			return nil, fmt.Errorf("tombstoned id %d is also live", id)
		}
	}
	for i, r := range []*reader{geomR, aprilR, treeR} {
		if err := r.done(); err != nil {
			return nil, fmt.Errorf("section %d: %w", i+2, err)
		}
	}
	arena := ab.Finish()
	objs := make([]*core.Object, 0, len(approxes))
	for i, ap := range approxes {
		poly := arena.Polygon(i)
		mbr := poly.Bounds()
		if entries[i].Box != mbr {
			return nil, fmt.Errorf("tree object %d: stored MBR disagrees with geometry", i)
		}
		objs = append(objs, &core.Object{ID: int(entries[i].ID), Poly: poly, MBR: mbr, Approx: ap})
	}
	snap.Dataset = dataset.FromPrecomputed(snap.Name, snap.Entity, objs, arena)
	return snap, nil
}
