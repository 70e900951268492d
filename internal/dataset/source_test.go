package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geojson"
	"repro/internal/geom"
	"repro/internal/wkt"
)

func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadSourceWKT(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "lakes.wkt", "# two squares\n"+
		"POLYGON ((0 0, 1 0, 1 1, 0 1))\n\n"+
		"  # indented comment\n"+
		"POLYGON ((2 0, 3 0, 3 1, 2 1))\n")
	name, polys, err := ReadSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "lakes" || len(polys) != 2 {
		t.Fatalf("got %q with %d polygons, want lakes with 2", name, len(polys))
	}
	if b := polys[1].Bounds(); b.MinX != 2 {
		t.Errorf("second polygon bounds %+v", b)
	}

	bad := writeFile(t, dir, "bad.wkt", "# header\nPOLYGON ((0 0, 1 0, 1 1, 0 1))\nPOLYGON ((0 0\n")
	if _, _, err := ReadSource(bad); err == nil || !strings.Contains(err.Error(), bad+":3:") {
		t.Errorf("err = %v, want it to name %s:3", err, bad)
	}
}

func TestReadSourceGeoJSON(t *testing.T) {
	var parts []*geom.Polygon
	for _, s := range []string{"POLYGON ((0 0, 1 0, 1 1, 0 1))", "POLYGON ((2 0, 3 0, 3 1, 2 1))", "POLYGON ((5 5, 6 5, 6 6, 5 6))"} {
		p, err := wkt.ParsePolygon(s)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	gj, err := geojson.MarshalFeatureCollection([]geojson.Feature{
		{Geometry: geom.NewMultiPolygon(parts[0], parts[1])},
		{Geometry: geom.NewMultiPolygon(parts[2])},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"parks.geojson", "parks.json"} {
		name, polys, err := ReadSource(writeFile(t, t.TempDir(), file, string(gj)))
		if err != nil {
			t.Fatal(err)
		}
		// A multipolygon's members become separate objects.
		if name != "parks" || len(polys) != 3 {
			t.Fatalf("%s: got %q with %d polygons, want parks with 3", file, name, len(polys))
		}
	}
}

func TestReadSourceUnsupported(t *testing.T) {
	for _, path := range []string{"x.csv", "x.snap", "x"} {
		if IsSource(path) {
			t.Errorf("IsSource(%q) = true", path)
		}
		if _, _, err := ReadSource(path); err == nil || !strings.Contains(err.Error(), "unsupported extension") {
			t.Errorf("%s: err = %v, want unsupported extension", path, err)
		}
	}
	if !IsSource("A.WKT") {
		t.Error("extensions match case-insensitively")
	}
}
