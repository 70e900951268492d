// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic dataset suite:
//
//	experiments -exp table2   # dataset description (Table 2)
//	experiments -exp table3   # candidate pair counts (Table 3)
//	experiments -exp fig7a    # find-relation throughput per method
//	experiments -exp fig7b    # undetermined pairs per method
//	experiments -exp table4   # complexity-level grouping (Table 4)
//	experiments -exp fig8     # scalability: effectiveness + stage costs
//	experiments -exp fig9     # lake-in-park case study
//	experiments -exp table5   # find relation vs relate_p throughput
//	experiments -exp access   # unique-geometry access saving (Sec. 4.3)
//	experiments -exp ablation # grid-order, P-list and related-work ablations
//	experiments -exp all      # everything above
//
// -scale shrinks or grows the dataset cardinalities, -seed changes the
// generated world, -order the global grid granularity. -metrics dumps an
// aggregate telemetry snapshot of the method sweeps on exit; -pprof
// serves /metrics, expvar and net/http/pprof for profiling long runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table2|table3|fig7a|fig7b|table4|fig8|fig9|table5|access|ablation|all")
		seed    = flag.Int64("seed", 2026, "generator seed")
		scale   = flag.Float64("scale", 1.0, "dataset cardinality multiplier")
		order   = flag.Uint("order", datagen.DefaultOrder, "global grid order (2^order cells per side)")
		metrics = flag.Bool("metrics", false, "dump a telemetry snapshot of the sweeps on exit")
		pprof   = flag.String("pprof", "", "serve /metrics, expvar and net/http/pprof on this address")
	)
	flag.Parse()

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	if *pprof != "" {
		if reg == nil {
			reg = obs.NewRegistry()
		}
		addr, stop, err := obs.ServeDebug(*pprof, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer stop(context.Background())
		fmt.Fprintf(os.Stderr, "serving metrics and pprof on http://%s/debug/pprof/\n", addr)
	}
	if err := run(*exp, *seed, *scale, *order, reg); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *metrics {
		obs.RegisterRuntimeMetrics(reg)
		fmt.Println("\n== metrics snapshot ==")
		reg.Snapshot().WriteTable(os.Stdout)
	}
}

func run(exp string, seed int64, scale float64, order uint, reg *obs.Registry) error {
	fmt.Printf("generating suite (seed=%d scale=%.2f grid=2^%d)...\n", seed, scale, order)
	env, err := harness.NewEnv(seed, scale, order)
	if err != nil {
		return err
	}
	all := exp == "all"
	ran := false

	section := func(title string) {
		fmt.Printf("\n== %s ==\n", title)
		ran = true
	}

	if all || exp == "table2" {
		section("Table 2: datasets")
		harness.RenderTable2(os.Stdout, env.Table2())
	}
	if all || exp == "table3" {
		section("Table 3: candidate pairs per combination")
		rows, err := env.Table3()
		if err != nil {
			return err
		}
		harness.RenderTable3(os.Stdout, rows)
	}
	if all || exp == "fig7a" || exp == "fig7b" {
		rows, err := env.Fig7()
		if err != nil {
			return err
		}
		if reg != nil {
			// Aggregate sweep telemetry across combos, per method, for
			// the -metrics snapshot and the -pprof endpoint.
			for _, row := range rows {
				for _, st := range row.Stats {
					st.Publish(reg, "fig7")
				}
			}
		}
		if all || exp == "fig7a" {
			section("Fig. 7(a): find-relation throughput")
			harness.RenderFig7a(os.Stdout, rows)
		}
		if all || exp == "fig7b" {
			section("Fig. 7(b): undetermined pairs")
			harness.RenderFig7b(os.Stdout, rows)
		}
	}
	if all || exp == "table4" {
		section("Table 4: OLE-OPE pairs by complexity level")
		levels, err := env.Table4(10)
		if err != nil {
			return err
		}
		harness.RenderTable4(os.Stdout, levels)
	}
	if all || exp == "fig8" {
		section("Fig. 8: scalability with pair complexity (OLE-OPE)")
		rows, err := env.Fig8(10)
		if err != nil {
			return err
		}
		harness.RenderFig8(os.Stdout, rows)
	}
	if all || exp == "fig9" {
		section("Fig. 9: high-complexity lake-inside-park case study")
		cs, err := env.Fig9()
		if err != nil {
			return err
		}
		harness.RenderFig9(os.Stdout, cs)
	}
	if all || exp == "table5" {
		section("Table 5: find relation vs relate_p throughput (OLE-OPE)")
		rows, err := env.Table5()
		if err != nil {
			return err
		}
		harness.RenderTable5(os.Stdout, rows)
	}
	if all || exp == "access" {
		section("Data access saving (Sec. 4.3, OLE-OPE)")
		pairs, err := env.CandidatePairs(harness.ComplexityCombo)
		if err != nil {
			return err
		}
		oL, oR := harness.UniqueObjectsRefined(core.OP2, pairs)
		pL, pR := harness.UniqueObjectsRefined(core.PC, pairs)
		fmt.Printf("OP2 accesses %d unique geometries, P+C %d (%.1f%%)\n\n",
			oL+oR, pL+pR, 100*float64(pL+pR)/float64(oL+oR))
		darows, err := env.DataAccess(256)
		if err != nil {
			return err
		}
		harness.RenderDataAccess(os.Stdout, darows)
	}
	if all || exp == "ablation" {
		section("Ablation: P-list contribution and narrowing-only (OLE-OPE)")
		rows, err := env.PListAblation()
		if err != nil {
			return err
		}
		harness.RenderPListAblation(os.Stdout, rows)

		section("Related work: intersection-filter comparison (OLE-OPE)")
		rwRows, err := env.RelatedWorkComparison()
		if err != nil {
			return err
		}
		harness.RenderRelatedWork(os.Stdout, rwRows)

		section("Ablation: grid order (OLE-OPE)")
		orders := []uint{9, 10, 11, 12, 13}
		grows, err := harness.GridOrderAblation(seed, scale, orders)
		if err != nil {
			return err
		}
		harness.RenderGridAblation(os.Stdout, grows)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
