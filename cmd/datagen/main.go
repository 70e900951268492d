// Command datagen generates the synthetic dataset suite and writes each
// dataset as a WKT file (one POLYGON per line) that topojoin and
// topojoind -data read.
//
//	datagen -out data/ -scale 1.0 -seed 2026
//	datagen -out data/ -sets OLE,OPE
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datagen"
	"repro/internal/wkt"
)

func main() {
	var (
		out   = flag.String("out", "data", "output directory")
		seed  = flag.Int64("seed", 2026, "generator seed")
		scale = flag.Float64("scale", 1.0, "dataset cardinality multiplier")
		sets  = flag.String("sets", "", "comma-separated dataset names (default: all)")
	)
	flag.Parse()

	if err := run(*out, *seed, *scale, *sets); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(out string, seed int64, scale float64, sets string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	suite := datagen.NewSuite(seed, scale)

	want := map[string]bool{}
	if sets != "" {
		for _, s := range strings.Split(sets, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	for _, name := range suite.SortedNames() {
		if len(want) > 0 && !want[name] {
			continue
		}
		polys := suite.Sets[name]
		path := filepath.Join(out, name+".wkt")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for _, p := range polys {
			fmt.Fprintln(w, wkt.MarshalPolygon(p))
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d polygons -> %s\n", name, len(polys), path)
	}
	return nil
}
