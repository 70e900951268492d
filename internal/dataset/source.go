package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/geojson"
	"repro/internal/geom"
	"repro/internal/wkt"
)

// SourceExts lists the source formats ReadSource accepts: WKT (one
// POLYGON per line) and GeoJSON FeatureCollections.
var SourceExts = []string{".wkt", ".geojson", ".json"}

// IsSource reports whether path carries one of SourceExts.
func IsSource(path string) bool {
	return slices.Contains(SourceExts, strings.ToLower(filepath.Ext(path)))
}

// ReadSource reads the polygons of a source file, dispatching on its
// extension, and names the dataset after the file's basename. In WKT,
// blank lines and lines starting with '#' are skipped and errors report
// path:line; in GeoJSON, the members of a multipolygon become separate
// objects.
func ReadSource(path string) (name string, polys []*geom.Polygon, err error) {
	ext := filepath.Ext(path)
	if !IsSource(path) {
		return "", nil, fmt.Errorf("%s: unsupported extension %q (want %s)",
			path, ext, strings.Join(SourceExts, ", "))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if strings.EqualFold(ext, ".wkt") {
		polys, err = parseWKT(path, data)
	} else {
		polys, err = parseGeoJSON(path, data)
	}
	if err != nil {
		return "", nil, err
	}
	return strings.TrimSuffix(filepath.Base(path), ext), polys, nil
}

func parseWKT(path string, data []byte) ([]*geom.Polygon, error) {
	var polys []*geom.Polygon
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, err := wkt.ParsePolygon(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		polys = append(polys, p)
	}
	return polys, nil
}

func parseGeoJSON(path string, data []byte) ([]*geom.Polygon, error) {
	features, err := geojson.ParseFeatureCollection(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var polys []*geom.Polygon
	for _, f := range features {
		polys = append(polys, f.Geometry.Polys...)
	}
	return polys, nil
}
