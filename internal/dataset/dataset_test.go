package dataset

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/april"
	"repro/internal/datagen"
	"repro/internal/interval"
)

func buildSmall(t *testing.T) (*Dataset, *april.Builder) {
	t.Helper()
	suite := datagen.NewSuite(11, 0.02)
	b := april.NewBuilder(suite.Space, datagen.DefaultOrder)
	ds, err := Precompute("OLE", datagen.EntityTypes["OLE"], suite.Sets["OLE"], b)
	if err != nil {
		t.Fatal(err)
	}
	return ds, b
}

func TestPrecompute(t *testing.T) {
	ds, _ := buildSmall(t)
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	if ds.Name != "OLE" || ds.Entity != "EU Lakes" {
		t.Errorf("metadata: %q %q", ds.Name, ds.Entity)
	}
	for i, o := range ds.Objects {
		if o.ID != i {
			t.Fatalf("object %d has ID %d", i, o.ID)
		}
		if o.MBR != o.Poly.Bounds() {
			t.Fatal("MBR not precomputed from polygon")
		}
		if len(o.Approx.C) == 0 {
			t.Fatal("approximation missing")
		}
	}
	mbrs := ds.MBRs()
	if len(mbrs) != ds.Len() || mbrs[0] != ds.Objects[0].MBR {
		t.Error("MBRs() wrong")
	}
}

func TestSizes(t *testing.T) {
	ds, _ := buildSmall(t)
	s := ds.Sizes()
	if s.Vertices == 0 || s.Polygons != 16*s.Vertices {
		t.Errorf("polygon sizing wrong: %+v", s)
	}
	if s.MBRs != 32*ds.Len() {
		t.Errorf("MBR sizing wrong: %+v", s)
	}
	if s.Approx <= 0 {
		t.Errorf("approx sizing wrong: %+v", s)
	}
	// Table 2's key property: approximations are far smaller than the
	// exact polygons for detailed datasets.
	if s.Approx >= s.Polygons {
		t.Errorf("approx (%d) should undercut polygons (%d)", s.Approx, s.Polygons)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	ds, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.Entity != ds.Entity || got.Len() != ds.Len() {
		t.Fatalf("metadata mismatch: %q %q %d", got.Name, got.Entity, got.Len())
	}
	for i, o := range got.Objects {
		want := ds.Objects[i]
		if o.Poly.NumVertices() != want.Poly.NumVertices() {
			t.Fatalf("object %d: vertices %d != %d", i, o.Poly.NumVertices(), want.Poly.NumVertices())
		}
		if len(o.Poly.Holes) != len(want.Poly.Holes) {
			t.Fatalf("object %d: holes differ", i)
		}
		if o.MBR != want.MBR {
			t.Fatalf("object %d: MBR differs", i)
		}
		if !interval.Match(o.Approx.P, want.Approx.P) || !interval.Match(o.Approx.C, want.Approx.C) {
			t.Fatalf("object %d: approximation differs", i)
		}
		for j := range o.Poly.Shell {
			if o.Poly.Shell[j] != want.Poly.Shell[j] {
				t.Fatalf("object %d: vertex %d not bit-exact", i, j)
			}
		}
	}
}

// headerLen is the byte length of ds's .stj header: magic, version, the
// two length-prefixed strings and the object count.
func headerLen(ds *Dataset) int { return 4 + 2 + 2 + len(ds.Name) + 2 + len(ds.Entity) + 4 }

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("bad magic should fail")
	}
	ds, _ := buildSmall(t)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := Read(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Error("truncated input should fail")
	}
	// The retired version 1 (private ring encoding) is a clean error,
	// never a misparse of ring bytes as blob framing.
	old := append([]byte(nil), full...)
	old[4] = 1
	if _, err := Read(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("version-1 file: err = %v, want unsupported version", err)
	}
	// A blob length past the cap fails before any allocation of that size.
	hostile := append([]byte(nil), full[:headerLen(ds)]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff)
	if _, err := Read(bytes.NewReader(hostile)); err == nil || !strings.Contains(err.Error(), "implausible blob size") {
		t.Errorf("oversized blob length: err = %v, want implausible blob size", err)
	}
}
