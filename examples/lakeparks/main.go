// Lakes in parks: the paper's Sec. 4.3 scenario. Generates the OLE-OPE
// synthetic datasets, runs the topology join with all four pipelines, and
// shows how the P+C intermediate filter settles the high-complexity
// containments that make refinement-based pipelines slow.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/de9im"
	"repro/internal/harness"
)

func main() {
	env, err := harness.NewEnv(2026, 0.25, datagen.DefaultOrder)
	if err != nil {
		log.Fatal(err)
	}
	pairs, err := env.CandidatePairs([2]string{"OLE", "OPE"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d lakes x %d parks -> %d candidate pairs\n\n",
		env.Datasets["OLE"].Len(), env.Datasets["OPE"].Len(), len(pairs))

	fmt.Printf("%-6s  %12s  %12s  %10s\n", "method", "time", "pairs/s", "refined")
	for _, m := range core.Methods {
		st := harness.RunSweep(m, core.Test{}, pairs)
		fmt.Printf("%-6v  %12v  %12.0f  %7d (%.1f%%)\n",
			m, st.Elapsed.Round(time.Microsecond), st.Throughput(),
			st.Undetermined, st.UndeterminedPct())
	}

	// Show the lakes proven inside a park without loading geometry.
	settled, insides := 0, 0
	var show []string
	for _, p := range pairs {
		res := core.FindRelation(core.PC, p.R, p.S)
		if res.Relation == de9im.Inside {
			insides++
			if !res.Refined {
				settled++
				if len(show) < 5 {
					show = append(show, fmt.Sprintf(
						"  lake %d (%d vertices, %d C-intervals) inside park %d (%d vertices)",
						p.R.ID, p.R.Poly.NumVertices(), len(p.R.Approx.C),
						p.S.ID, p.S.Poly.NumVertices()))
				}
			}
		}
	}
	fmt.Printf("\n%d lake-inside-park relations, %d settled by the interval filter alone:\n",
		insides, settled)
	for _, s := range show {
		fmt.Println(s)
	}
}
