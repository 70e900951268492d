package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestRunSelectedSets checks that every selected dataset is written and
// reads back with the generator's polygon count, and that unselected
// datasets are not written.
func TestRunSelectedSets(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 1, 0.02, "OLE,OPE"); err != nil {
		t.Fatal(err)
	}
	suite := datagen.NewSuite(1, 0.02)
	for _, name := range []string{"OLE", "OPE"} {
		got, polys, err := dataset.ReadSource(filepath.Join(dir, name+".wkt"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != name || len(polys) == 0 || len(polys) != len(suite.Sets[name]) {
			t.Fatalf("%s: read back %q with %d polygons, want %d", name, got, len(polys), len(suite.Sets[name]))
		}
	}
	// Unselected datasets are not written.
	if _, err := os.Stat(filepath.Join(dir, "TL.wkt")); !os.IsNotExist(err) {
		t.Error("unselected dataset written")
	}
}

func TestRunWKT(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 1, 0.02, "TL"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "TL.wkt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "POLYGON") {
		t.Fatalf("unexpected WKT output: %q", lines[0])
	}
}

func TestRunBadDir(t *testing.T) {
	if err := run(string([]byte{0}), 1, 0.01, ""); err == nil {
		t.Error("invalid directory should fail")
	}
}
