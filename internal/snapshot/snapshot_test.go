package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/april"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/geom"
)

var (
	testSpace = geom.MBR{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}
	testOrder = uint(8)
)

// testDataset builds a small preprocessed dataset: a grid of squares,
// one with a hole, one triangle.
func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	sq := func(x, y, s float64) *geom.Polygon {
		return geom.NewPolygon(geom.Ring{
			{X: x, Y: y}, {X: x + s, Y: y}, {X: x + s, Y: y + s}, {X: x, Y: y + s},
		})
	}
	var polys []*geom.Polygon
	for i := 0.0; i < 4; i++ {
		for j := 0.0; j < 4; j++ {
			polys = append(polys, sq(2+i*14, 2+j*14, 9))
		}
	}
	polys = append(polys, geom.NewPolygon(
		geom.Ring{{X: 30, Y: 30}, {X: 50, Y: 30}, {X: 50, Y: 50}, {X: 30, Y: 50}},
		geom.Ring{{X: 38, Y: 38}, {X: 42, Y: 38}, {X: 42, Y: 42}, {X: 38, Y: 42}},
	))
	polys = append(polys, geom.NewPolygon(geom.Ring{
		{X: 1, Y: 60}, {X: 6, Y: 60}, {X: 3, Y: 63},
	}))
	b := april.NewBuilder(testSpace, testOrder)
	ds, err := dataset.Precompute("fixture", "test squares", polys, b)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func writeFixture(t *testing.T) (string, *dataset.Dataset) {
	t.Helper()
	ds := testDataset(t)
	path := filepath.Join(t.TempDir(), "fixture"+Ext)
	if err := Write(path, ds, testSpace, testOrder); err != nil {
		t.Fatal(err)
	}
	return path, ds
}

func TestRoundTripBitExact(t *testing.T) {
	path, ds := writeFixture(t)
	snap, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Name != "fixture" || snap.Entity != "test squares" {
		t.Fatalf("meta = %q/%q", snap.Name, snap.Entity)
	}
	if snap.Space != testSpace || snap.Order != testOrder {
		t.Fatalf("grid = %+v order %d", snap.Space, snap.Order)
	}
	if len(snap.Dataset.Objects) != len(ds.Objects) {
		t.Fatalf("object count = %d, want %d", len(snap.Dataset.Objects), len(ds.Objects))
	}
	for i, o := range ds.Objects {
		got := snap.Dataset.Objects[i]
		if got.ID != o.ID || got.MBR != o.MBR {
			t.Fatalf("object %d: id/MBR mismatch", i)
		}
		// The interval lists must survive bit-exact: the whole point of
		// the snapshot is that filters run on identical approximations.
		if !reflect.DeepEqual(got.Approx, o.Approx) {
			t.Fatalf("object %d: approximation not bit-exact", i)
		}
		if !reflect.DeepEqual(got.Poly, o.Poly) {
			t.Fatalf("object %d: geometry not exact", i)
		}
	}
}

func TestReadMissingIsNotCorrupt(t *testing.T) {
	_, err := Read(filepath.Join(t.TempDir(), "nope"+Ext))
	if err == nil || !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want not-exist", err)
	}
	if IsCorrupt(err) {
		t.Fatal("missing file must not classify as corrupt")
	}
}

// TestEveryBitFlipDetected flips one bit at every byte of the file and
// asserts the reader either reports corruption — never a wrong dataset,
// never a panic. Every byte is covered by a CRC, so detection must be
// total.
func TestEveryBitFlipDetected(t *testing.T) {
	path, _ := writeFixture(t)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if len(clean) > 4096 {
		stride = len(clean) / 4096
	}
	for off := 0; off < len(clean); off += stride {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fault.FlipBit(path, int64(off), uint(off%8)); err != nil {
			t.Fatal(err)
		}
		snap, err := Read(path)
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected (snapshot %q loaded)", off, snap.Name)
		}
		if !IsCorrupt(err) {
			t.Fatalf("bit flip at byte %d: err = %v, want CorruptError", off, err)
		}
	}
}

// TestEveryTruncationDetected truncates the snapshot at a sweep of
// offsets; every torn file must read as corrupt.
func TestEveryTruncationDetected(t *testing.T) {
	path, _ := writeFixture(t)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if len(clean) > 512 {
		stride = len(clean) / 512
	}
	for off := 0; off < len(clean); off += stride {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fault.TruncateAt(path, int64(off)); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); !IsCorrupt(err) {
			t.Fatalf("truncation at %d: err = %v, want CorruptError", off, err)
		}
	}
}

// TestVersionMismatchQuarantines: format 3 is the only one read. A
// retired version (1, 2) or a future one is an unsupported-version
// corruption — quarantined and rebuilt, never misread.
func TestVersionMismatchQuarantines(t *testing.T) {
	path, _ := writeFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []uint16{1, 2, version + 1} {
		// Set the version and re-seal the header so only the version
		// check can fail.
		binary.LittleEndian.PutUint16(data[4:], ver)
		tbl := crc32.MakeTable(crc32.Castagnoli)
		binary.LittleEndian.PutUint32(data[headerLen-4:], crc32.Checksum(data[:headerLen-4], tbl))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Read(path)
		if !IsCorrupt(err) || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: err = %v, want unsupported-version corruption", ver, err)
		}
	}
}

func TestTornWriteLeavesOldSnapshot(t *testing.T) {
	defer fault.Reset()
	path, ds := writeFixture(t)
	fault.Arm("snapshot.write", fault.Behavior{AfterBytes: 100})
	if err := Write(path, ds, testSpace, testOrder); err == nil {
		t.Fatal("torn write reported success")
	}
	fault.Reset()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind after failed write")
	}
	if _, err := Read(path); err != nil {
		t.Fatalf("old snapshot damaged by failed write: %v", err)
	}
}

func TestWriteFaultPoints(t *testing.T) {
	defer fault.Reset()
	ds := testDataset(t)
	for _, point := range []string{"snapshot.write.create", "snapshot.write.sync", "snapshot.write.rename"} {
		fault.Reset()
		fault.Arm(point, fault.Behavior{})
		dir := t.TempDir()
		path := filepath.Join(dir, "x"+Ext)
		if err := Write(path, ds, testSpace, testOrder); err == nil {
			t.Fatalf("%s: write succeeded", point)
		}
		entries, _ := os.ReadDir(dir)
		if len(entries) != 0 {
			t.Fatalf("%s: directory not clean after failure: %v", point, entries)
		}
	}
}

func TestQuarantine(t *testing.T) {
	path, _ := writeFixture(t)
	q1, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("original still present after quarantine")
	}
	if !strings.Contains(filepath.Base(q1), ".corrupt-") {
		t.Fatalf("quarantine name %q", q1)
	}
	// A second corruption in the same second must not clobber the first
	// piece of evidence.
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatalf("quarantine reused name %q", q1)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"OLE", "counties", "a_b-c.1", "x"} {
		if err := ValidName(ok); err != nil {
			t.Errorf("ValidName(%q) = %v", ok, err)
		}
	}
	long := strings.Repeat("a", 200)
	for _, bad := range []string{
		"", ".", "..", "../etc", "..\\etc", "/etc/passwd", "a/b", "a\\b",
		".hidden", "-flag", "nul\x00byte", "new\nline", long,
	} {
		if err := ValidName(bad); err == nil {
			t.Errorf("ValidName(%q) accepted", bad)
		}
		if _, err := DatasetPath(t.TempDir(), bad); err == nil {
			t.Errorf("DatasetPath(%q) accepted", bad)
		}
	}
	p, err := DatasetPath("/data", "OLE")
	if err != nil || p != filepath.Join("/data", "OLE"+Ext) {
		t.Fatalf("DatasetPath = %q, %v", p, err)
	}
}

func TestHostileMetaCount(t *testing.T) {
	path, _ := writeFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the meta object count to a huge value and re-seal the
	// meta CRC and header CRC: the loader must fail on the section
	// bodies running dry, not allocate gigabytes.
	metaOff := binary.LittleEndian.Uint64(data[preambleLen+4:])
	metaLen := binary.LittleEndian.Uint64(data[preambleLen+12:])
	countOff := metaOff + metaLen - 4
	binary.LittleEndian.PutUint32(data[countOff:], 1<<31-1)
	tbl := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint32(data[preambleLen+20:],
		crc32.Checksum(data[metaOff:metaOff+metaLen], tbl))
	binary.LittleEndian.PutUint32(data[headerLen-4:], crc32.Checksum(data[:headerLen-4], tbl))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); !IsCorrupt(err) {
		t.Fatalf("hostile count: err = %v, want CorruptError", err)
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a"+Ext)
	p2 := filepath.Join(dir, "b"+Ext)
	if err := Write(p1, ds, testSpace, testOrder); err != nil {
		t.Fatal(err)
	}
	if err := Write(p2, ds, testSpace, testOrder); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if len(b1) == 0 || string(b1) != string(b2) {
		t.Fatal("snapshot bytes differ across identical writes")
	}
}

func TestCorruptErrorMessage(t *testing.T) {
	err := &CorruptError{Path: "/x/y.snap", Reason: "header checksum mismatch"}
	msg := err.Error()
	if !strings.Contains(msg, "/x/y.snap") || !strings.Contains(msg, "checksum") {
		t.Fatalf("message %q", msg)
	}
	if !IsCorrupt(fmt.Errorf("wrapped: %w", err)) {
		t.Fatal("IsCorrupt must see through wrapping")
	}
}
