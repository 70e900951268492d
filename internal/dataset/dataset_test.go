package dataset

import (
	"testing"

	"repro/internal/april"
	"repro/internal/datagen"
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
