// Command topojoin runs a spatial topology join between two source
// datasets (.wkt or .geojson, e.g. written by datagen): it builds both
// sides' APRIL approximations on one grid laid over the union of their
// MBRs, produces the pairs of objects whose MBRs intersect, and evaluates
// either the find-relation problem (the most specific relation of each
// pair) or a relate_p predicate on each pair.
//
//	topojoin -left data/OLE.wkt -right data/OPE.wkt               # find relation
//	topojoin -left data/OLE.wkt -right data/OPE.wkt -pred inside  # relate_p
//	topojoin ... -order 16                                         # finer grid
//	topojoin ... -method ST2 -v                                    # print pairs
//	topojoin ... -metrics                                          # dump telemetry on exit
//	topojoin ... -pprof localhost:6060                             # live pprof + /metrics
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/de9im"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/obs"
)

func main() {
	var (
		left    = flag.String("left", "", "left source dataset file")
		right   = flag.String("right", "", "right source dataset file")
		order   = flag.Uint("order", datagen.DefaultOrder, "global grid order (2^order cells per side)")
		pred    = flag.String("pred", "", "relate predicate (equals|meets|inside|covered_by|contains|covers|intersects|disjoint); empty = find relation")
		method  = flag.String("method", "P+C", "pipeline: ST2|OP2|APRIL|P+C")
		verb    = flag.Bool("v", false, "print every result pair")
		metrics = flag.Bool("metrics", false, "instrument the run and dump a metrics snapshot on exit")
		pprof   = flag.String("pprof", "", "serve /metrics, expvar and net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *left == "" || *right == "" {
		fmt.Fprintln(os.Stderr, "topojoin: -left and -right are required")
		os.Exit(2)
	}
	opts := options{
		left:    *left,
		right:   *right,
		order:   *order,
		pred:    *pred,
		method:  *method,
		verbose: *verb,
	}
	if *metrics {
		opts.reg = obs.NewRegistry()
	}
	if *pprof != "" {
		reg := opts.reg
		if reg == nil {
			reg = obs.NewRegistry()
		}
		addr, stop, err := obs.ServeDebug(*pprof, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "topojoin:", err)
			os.Exit(1)
		}
		defer stop(context.Background())
		opts.reg = reg
		fmt.Fprintf(os.Stderr, "serving metrics and pprof on http://%s/debug/pprof/\n", addr)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "topojoin:", err)
		os.Exit(1)
	}
}

// options configures one join run; reg non-nil enables instrumentation
// and a snapshot dump (tests pass their own registry to inspect it).
type options struct {
	left, right string
	order       uint // defaults to datagen.DefaultOrder
	pred        string
	method      string
	verbose     bool
	reg         *obs.Registry
	out         io.Writer // defaults to os.Stdout
}

func methodByName(s string) (core.Method, error) {
	for _, m := range core.Methods {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

func parseRelation(s string) (de9im.Relation, error) {
	for r := de9im.Relation(0); int(r) < de9im.NumRelations; r++ {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("unknown relation %q", s)
}

// loadPair reads both source files and builds them on one grid laid
// over the union of their MBRs: the filters compare cell ids, so lists
// built on different grids are not comparable.
func loadPair(o options) (ld, rd *dataset.Dataset, err error) {
	var names [2]string
	var polys [2][]*geom.Polygon
	space := geom.EmptyMBR()
	for i, path := range []string{o.left, o.right} {
		if names[i], polys[i], err = dataset.ReadSource(path); err != nil {
			return nil, nil, err
		}
		for _, p := range polys[i] {
			space = space.Expand(p.Bounds())
		}
	}
	if space.IsEmpty() || space.Width() <= 0 || space.Height() <= 0 {
		return nil, nil, fmt.Errorf("%s and %s span no area to lay a grid over", o.left, o.right)
	}
	b := april.NewBuilder(space, o.order)
	if ld, err = dataset.Precompute(names[0], names[0], polys[0], b); err != nil {
		return nil, nil, err
	}
	if rd, err = dataset.Precompute(names[1], names[1], polys[1], b); err != nil {
		return nil, nil, err
	}
	return ld, rd, nil
}

func run(o options) error {
	if o.out == nil {
		o.out = os.Stdout
	}
	if o.order == 0 {
		o.order = datagen.DefaultOrder
	}
	m, err := methodByName(o.method)
	if err != nil {
		return err
	}
	ld, rd, err := loadPair(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "%s: %d objects, %s: %d objects\n", ld.Name, ld.Len(), rd.Name, rd.Len())

	var idPairs [][2]int32
	if o.reg != nil {
		var jst join.JoinStats
		idPairs, jst = join.PairsObserved(ld.MBRs(), rd.MBRs())
		jst.Publish(o.reg, "join")
	} else {
		idPairs = join.Pairs(ld.MBRs(), rd.MBRs())
	}
	fmt.Fprintf(o.out, "MBR join: %d candidate pairs\n", len(idPairs))

	out := bufio.NewWriter(o.out)
	defer out.Flush()

	if o.pred == "" {
		if err := runFind(o, m, ld, rd, idPairs, out); err != nil {
			return err
		}
	} else {
		if err := runPred(o, m, ld, rd, idPairs, out); err != nil {
			return err
		}
	}
	if o.reg != nil {
		obs.RegisterRuntimeMetrics(o.reg)
		out.Flush()
		fmt.Fprintln(o.out, "\n== metrics snapshot ==")
		return o.reg.Snapshot().WriteTable(o.out)
	}
	return nil
}

func runFind(o options, m core.Method, ld, rd *dataset.Dataset, idPairs [][2]int32, out *bufio.Writer) error {
	var sink core.PipelineSink // stays nil without -metrics: plain path
	var pm *core.PipelineMetrics
	if o.reg != nil {
		pm = core.NewPipelineMetrics(o.reg, "pipeline")
		sink = pm
	}
	var hist [de9im.NumRelations]int
	refined := 0
	start := time.Now()
	for _, pr := range idPairs {
		r, s := ld.Objects[pr[0]], rd.Objects[pr[1]]
		res := core.FindRelationObserved(m, r, s, sink)
		hist[res.Relation]++
		if res.Refined {
			refined++
		}
		if o.verbose {
			fmt.Fprintf(out, "%d\t%d\t%v\n", r.ID, s.ID, res.Relation)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "method %v: %v (%.0f pairs/s), %d refined (%.1f%%)\n",
		m, elapsed, float64(len(idPairs))/elapsed.Seconds(),
		refined, 100*float64(refined)/float64(max(1, len(idPairs))))
	for r := de9im.Relation(0); int(r) < de9im.NumRelations; r++ {
		if hist[r] > 0 {
			fmt.Fprintf(out, "  %-11v %d\n", r, hist[r])
		}
	}
	return nil
}

func runPred(o options, m core.Method, ld, rd *dataset.Dataset, idPairs [][2]int32, out *bufio.Writer) error {
	pred, err := parseRelation(o.pred)
	if err != nil {
		return err
	}
	var holdCtr, refineCtr *obs.Counter
	if o.reg != nil {
		holdCtr = o.reg.Counter(obs.Name("relate_holds_total", "pred", pred.String()))
		refineCtr = o.reg.Counter(obs.Name("relate_refined_total", "pred", pred.String()))
	}
	holds, refined := 0, 0
	start := time.Now()
	for _, pr := range idPairs {
		r, s := ld.Objects[pr[0]], rd.Objects[pr[1]]
		res := core.RelatePred(m, r, s, pred)
		if res.Holds {
			holds++
			if holdCtr != nil {
				holdCtr.Inc()
			}
			if o.verbose {
				fmt.Fprintf(out, "%d\t%d\n", r.ID, s.ID)
			}
		}
		if res.Refined {
			refined++
			if refineCtr != nil {
				refineCtr.Inc()
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "relate_%v with %v: %d of %d pairs hold, %d refined, %v (%.0f pairs/s)\n",
		pred, m, holds, len(idPairs), refined, elapsed,
		float64(len(idPairs))/elapsed.Seconds())
	return nil
}
