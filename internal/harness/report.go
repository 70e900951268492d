package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
)

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// RenderTable2 prints the dataset description table.
func RenderTable2(w io.Writer, rows []Table2Row) {
	t := tw(w)
	fmt.Fprintln(t, "Dataset\tEntity type\t#polygons\t#vertices\tSize (KB)\tMBRs (KB)\tP+C (KB)")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%s\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
			r.Name, r.Entity, r.Polygons, r.Vertices, r.PolyKB, r.MBRKB, r.ApproxKB)
	}
	t.Flush()
}

// RenderTable3 prints candidate pair counts.
func RenderTable3(w io.Writer, rows []Table3Row) {
	t := tw(w)
	fmt.Fprintln(t, "Datasets\tCandidate pairs")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%d\n", r.Combo, r.Pairs)
	}
	t.Flush()
}

// RenderFig7a prints the throughput chart data (pairs per second).
func RenderFig7a(w io.Writer, rows []Fig7Row) {
	t := tw(w)
	fmt.Fprint(t, "Combo")
	for _, m := range core.Methods {
		fmt.Fprintf(t, "\t%s (pairs/s)", m)
	}
	fmt.Fprintln(t)
	for _, r := range rows {
		fmt.Fprintf(t, "%s", r.Combo)
		for i := range core.Methods {
			fmt.Fprintf(t, "\t%.0f", r.Stats[i].Throughput())
		}
		fmt.Fprintln(t)
	}
	t.Flush()
}

// RenderFig7b prints the undetermined-pair percentages.
func RenderFig7b(w io.Writer, rows []Fig7Row) {
	t := tw(w)
	fmt.Fprint(t, "Combo")
	for _, m := range core.Methods {
		fmt.Fprintf(t, "\t%s (%% undet.)", m)
	}
	fmt.Fprintln(t)
	for _, r := range rows {
		fmt.Fprintf(t, "%s", r.Combo)
		for i := range core.Methods {
			fmt.Fprintf(t, "\t%.1f", r.Stats[i].UndeterminedPct())
		}
		fmt.Fprintln(t)
	}
	t.Flush()
}

// RenderTable4 prints the complexity-level grouping.
func RenderTable4(w io.Writer, levels []ComplexityLevel) {
	t := tw(w)
	fmt.Fprintln(t, "Complexity level\tSum of vertices\tPair count")
	for _, lv := range levels {
		fmt.Fprintf(t, "%d\t[%d,%d]\t%d\n", lv.Level, lv.MinV, lv.MaxV, len(lv.Pairs))
	}
	t.Flush()
}

// RenderFig8 prints the scalability series: filter effectiveness (8a) and
// stage costs (8b) per complexity level.
func RenderFig8(w io.Writer, rows []Fig8Row) {
	t := tw(w)
	fmt.Fprintln(t, "Level\tPairs\tP+C undet. (%)\tOP2-REF\tP+C-IF\tP+C-REF")
	for _, r := range rows {
		fmt.Fprintf(t, "%d\t%d\t%.1f\t%v\t%v\t%v\n",
			r.Level, r.Pairs, r.PCUndetermined, r.OP2RefTime, r.PCFilterTime, r.PCRefTime)
	}
	t.Flush()
}

// RenderFig9 prints the case study.
func RenderFig9(w io.Writer, cs CaseStudy) {
	t := tw(w)
	fmt.Fprintf(t, "Relation settled by the P+C filter:\t%v\n", cs.Relation)
	fmt.Fprintln(t, "\tLake (r)\tPark (s)")
	fmt.Fprintf(t, "Vertices\t%d\t%d\n", cs.RVerts, cs.SVerts)
	fmt.Fprintf(t, "MBR area\t%.4f\t%.4f\n", cs.RMBRArea, cs.SMBRArea)
	fmt.Fprintf(t, "C-intervals\t%d\t%d\n", cs.RCIntervals, cs.SCIntervals)
	fmt.Fprintf(t, "P-intervals\t%d\t%d\n", cs.RPIntervals, cs.SPIntervals)
	fmt.Fprintf(t, "P+C time/pair\t%v\n", cs.PCTime)
	fmt.Fprintf(t, "OP2 time/pair\t%v\n", cs.OP2Time)
	fmt.Fprintf(t, "Speedup\t%.1fx\n", cs.Speedup)
	t.Flush()
}

// RenderGridAblation prints the grid-order ablation.
func RenderGridAblation(w io.Writer, rows []GridAblationRow) {
	t := tw(w)
	fmt.Fprintln(t, "Grid order\tApprox (KB)\tP+C undet. (%)\trelate_meets refined\tBuild time")
	for _, r := range rows {
		fmt.Fprintf(t, "2^%d\t%.1f\t%.1f\t%d / %d\t%v\n",
			r.Order, r.ApproxKB, r.PCUndetPct, r.MeetsRefined, r.Pairs,
			r.BuildTime.Round(10*time.Millisecond))
	}
	t.Flush()
}

// RenderPListAblation prints the P-list ablation.
func RenderPListAblation(w io.Writer, rows []PListAblationRow) {
	t := tw(w)
	fmt.Fprintln(t, "Variant\tUndetermined (%)\tThroughput (pairs/s)")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%.1f\t%.0f\n", r.Variant, r.UndetPct, r.Throughput)
	}
	t.Flush()
}

// RenderTable5 prints find-relation vs relate_p throughput.
func RenderTable5(w io.Writer, rows []Table5Row) {
	t := tw(w)
	fmt.Fprintln(t, "Predicate\tfind relation (pairs/s)\trelate_p (pairs/s)\tHolds\trelate_p refined")
	for _, r := range rows {
		fmt.Fprintf(t, "%v\t%.0f\t%.0f\t%d\t%d\n", r.Pred, r.FindThroughput, r.RelateThroughput, r.Holds, r.RelateRefined)
	}
	t.Flush()
}

// RenderDataAccess prints the geometry-I/O comparison.
func RenderDataAccess(w io.Writer, rows []DataAccessRow) {
	t := tw(w)
	fmt.Fprintln(t, "Method\tGeometry loads\tCache hits\tBytes read\t% of store")
	for _, r := range rows {
		fmt.Fprintf(t, "%v\t%d\t%d\t%d\t%.1f\n",
			r.Method, r.Loads, r.Hits, r.BytesRead,
			100*float64(r.BytesRead)/float64(r.StoreSize))
	}
	t.Flush()
}
