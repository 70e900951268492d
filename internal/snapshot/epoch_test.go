package snapshot

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestEpochRoundTrip: WriteEpoch persists the mutation lineage and Read
// restores it exactly — epoch, NextID, tombstones, non-positional ids.
func TestEpochRoundTrip(t *testing.T) {
	ds := testDataset(t)
	// Simulate a compacted dataset: ids with holes (objects 3 and 7
	// deleted), later ids from inserts.
	for i, o := range ds.Objects {
		o.ID = i * 2
	}
	em := EpochMeta{
		Epoch:  5,
		NextID: 100,
		Tombs:  []int{3, 7, 99},
		WalLSN: 41,
	}
	path := filepath.Join(t.TempDir(), "fixture"+Ext)
	if err := WriteEpoch(path, ds, testSpace, testOrder, em); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.EpochMeta.Epoch != em.Epoch || snap.EpochMeta.NextID != em.NextID ||
		snap.EpochMeta.WalLSN != em.WalLSN {
		t.Fatalf("EpochMeta = %+v, want %+v", snap.EpochMeta, em)
	}
	if !reflect.DeepEqual(snap.EpochMeta.Tombs, em.Tombs) {
		t.Fatalf("Tombs = %v, want %v", snap.EpochMeta.Tombs, em.Tombs)
	}
	for i, o := range snap.Dataset.Objects {
		if o.ID != i*2 {
			t.Fatalf("object %d decoded id %d, want %d", i, o.ID, i*2)
		}
	}
}

// TestWriteEpochRejectsBadMeta: ids and tombstones that violate the
// epoch invariants must fail at write time, not poison a future warm
// start.
func TestWriteEpochRejectsBadMeta(t *testing.T) {
	ds := testDataset(t)
	path := filepath.Join(t.TempDir(), "fixture"+Ext)
	n := len(ds.Objects)
	cases := []struct {
		name string
		em   EpochMeta
	}{
		{"id >= NextID", EpochMeta{NextID: n - 1}},
		{"tomb >= NextID", EpochMeta{NextID: n, Tombs: []int{n + 5}}},
		{"negative tomb", EpochMeta{NextID: n, Tombs: []int{-1}}},
		{"duplicate tomb", EpochMeta{NextID: n + 10, Tombs: []int{n + 1, n + 1}}},
		{"tomb of live id", EpochMeta{NextID: n, Tombs: []int{0}}},
	}
	for _, tc := range cases {
		if err := WriteEpoch(path, ds, testSpace, testOrder, tc.em); err == nil {
			t.Errorf("%s: WriteEpoch accepted %+v", tc.name, tc.em)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("rejected write must not leave a file behind")
	}
}

// TestHostileEpochSection: corrupting the epoch section's invariants
// (while resealing both CRCs so only semantic validation can catch it)
// must surface as corruption, not as a bogus warm start.
func TestHostileEpochSection(t *testing.T) {
	ds := testDataset(t)
	dir := t.TempDir()

	mutate := func(name string, f func(sec []byte)) string {
		t.Helper()
		path := filepath.Join(dir, name+Ext)
		if err := WriteEpoch(path, ds, testSpace, testOrder,
			EpochMeta{Epoch: 2, NextID: len(ds.Objects) + 8, Tombs: []int{len(ds.Objects) + 1}}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Locate the epoch section via the header table, mutate it, and
		// reseal its CRC and the header CRC.
		ent := data[preambleLen+(secEpoch-1)*tableEntry:]
		off := binary.LittleEndian.Uint64(ent[4:])
		length := binary.LittleEndian.Uint64(ent[12:])
		sec := data[off : off+length]
		f(sec)
		binary.LittleEndian.PutUint32(ent[20:], crc32.Checksum(sec, castagnoli))
		binary.LittleEndian.PutUint32(data[headerLen-4:],
			crc32.Checksum(data[:headerLen-4], castagnoli))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cases := []struct {
		name string
		f    func(sec []byte)
	}{
		// NextID below the object count: decoded ids would exceed it.
		{"next-too-small", func(sec []byte) {
			binary.LittleEndian.PutUint64(sec[8:], 1)
		}},
		// Tombstone id rewritten to a live object's id. The first tomb
		// sits after epoch u64 + next u64 + walLSN u64 + count u32.
		{"tomb-live", func(sec []byte) {
			binary.LittleEndian.PutUint32(sec[28:], 0)
		}},
		// NextID beyond int32: ids would not round-trip the tree section.
		{"next-overflow", func(sec []byte) {
			binary.LittleEndian.PutUint64(sec[8:], 1<<40)
		}},
	}
	for _, tc := range cases {
		path := mutate(tc.name, tc.f)
		_, err := Read(path)
		if err == nil {
			t.Errorf("%s: hostile epoch section read back clean", tc.name)
			continue
		}
		if !IsCorrupt(err) {
			t.Errorf("%s: error %v is not a CorruptError", tc.name, err)
		}
	}
}

// TestQuarantineStatErrorPropagates is the regression test for the
// probe-error bug: a Stat failure that is *not* ErrNotExist (EACCES,
// EIO, ENOTDIR...) must abort the quarantine with the error — the old
// code treated any error as "name free" and renamed over a path it
// never managed to probe.
func TestQuarantineStatErrorPropagates(t *testing.T) {
	path, _ := writeFixture(t)
	injected := errors.New("injected EIO")
	fault.Arm("snapshot.quarantine.stat", fault.Behavior{Err: injected})
	defer fault.Reset()

	qpath, err := Quarantine(path)
	if err == nil {
		t.Fatalf("Quarantine succeeded (%q) despite failing probe", qpath)
	}
	if !errors.Is(err, injected) {
		t.Fatalf("error %v does not wrap the probe failure", err)
	}
	if !strings.Contains(err.Error(), "quarantine probe") {
		t.Fatalf("error %v does not identify the probe", err)
	}
	// The original file must be untouched: no rename happened.
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("snapshot moved despite probe failure: %v", serr)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".corrupt-") {
			t.Fatalf("stray quarantine file %s", e.Name())
		}
	}

	// Disarmed, the same call succeeds.
	fault.Reset()
	if _, err := Quarantine(path); err != nil {
		t.Fatal(err)
	}
}
