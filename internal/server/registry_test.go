package server

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geojson"
	"repro/internal/geom"
	"repro/internal/wkt"
)

// The shared test fixture: a small synthetic suite preprocessed once.
var (
	fixOnce  sync.Once
	fixSuite *datagen.Suite
)

func testSuite() *datagen.Suite {
	fixOnce.Do(func() { fixSuite = datagen.NewSuite(7, 0.03) })
	return fixSuite
}

func testRegistry(t *testing.T, sets ...string) *Registry {
	t.Helper()
	suite := testSuite()
	reg := NewRegistry(suite.Space, datagen.DefaultOrder)
	for _, name := range sets {
		if _, err := reg.Add(name, datagen.EntityTypes[name], suite.Sets[name]); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestRegistryAddAndList(t *testing.T) {
	reg := testRegistry(t, "OLE", "OPE")
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	infos := reg.List()
	if len(infos) != 2 || infos[0].Name != "OLE" || infos[1].Name != "OPE" {
		t.Fatalf("List = %+v", infos)
	}
	for _, info := range infos {
		if info.Objects == 0 || info.Vertices == 0 || info.ApproxBytes == 0 {
			t.Errorf("%s: empty stats %+v", info.Name, info)
		}
	}
	e, ok := reg.Get("OLE")
	if !ok || e.Tree.Len() != e.Dataset.Len() {
		t.Fatalf("OLE entry: ok=%v tree=%d objects=%d", ok, e.Tree.Len(), e.Dataset.Len())
	}
	if _, err := reg.Add("OLE", "", nil); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if _, err := reg.Add("", "", nil); err == nil {
		t.Fatal("empty name must fail")
	}
}

func TestRegistryLoadFormats(t *testing.T) {
	suite := testSuite()
	dir := t.TempDir()
	polys := suite.Sets["TC"]

	// .wkt: one polygon per line; '#' lines are comments.
	lines := []byte("# counties\n")
	for _, p := range polys {
		lines = append(lines, wkt.MarshalPolygon(p)...)
		lines = append(lines, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "wktset.wkt"), lines, 0o644); err != nil {
		t.Fatal(err)
	}

	// .geojson: a FeatureCollection.
	features := make([]geojson.Feature, len(polys))
	for i, p := range polys {
		features[i] = geojson.Feature{Geometry: geom.NewMultiPolygon(p)}
	}
	gj, err := geojson.MarshalFeatureCollection(features)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gjset.geojson"), gj, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(suite.Space, datagen.DefaultOrder)
	names, err := reg.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Datasets take the file's basename.
	want := []string{"gjset", "wktset"}
	if len(names) != len(want) {
		t.Fatalf("LoadDir names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("LoadDir names = %v, want %v", names, want)
		}
	}
	for _, n := range want {
		e, ok := reg.Get(n)
		if !ok || e.Dataset.Len() != len(polys) {
			t.Fatalf("%s: %d objects, want %d", n, e.Dataset.Len(), len(polys))
		}
	}

	for _, file := range []string{"nope.csv", "x.stj"} {
		if _, err := reg.LoadFile(filepath.Join(dir, file)); err == nil || !strings.Contains(err.Error(), "unsupported extension") {
			t.Fatalf("%s: err = %v, want unsupported extension", file, err)
		}
	}
}

func TestProbe(t *testing.T) {
	reg := testRegistry(t, "TC")
	probe, err := reg.Probe(mustPoly(t, "POLYGON ((100 100, 200 100, 200 200, 100 200))"))
	if err != nil || probe == nil {
		t.Fatalf("in-space probe: %v", err)
	}
	if probe.ID != -1 {
		t.Fatalf("probe ID = %d, want -1", probe.ID)
	}
}

func mustPoly(t *testing.T, s string) *geom.Polygon {
	t.Helper()
	p, err := wkt.ParsePolygon(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
