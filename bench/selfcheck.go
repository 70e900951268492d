package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the contract the driver reads: every run checks the
// names and units it emits against it, and selfcheck takes the bounds
// from it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// checkEmitted holds one run's metrics to the declaration: with trace 0
// exactly the end-to-end names, with trace 1 exactly the per-layer names,
// each under its declared unit.
func (bf *benchmarkFile) checkEmitted(trace int, got map[string]metric) error {
	declared := map[string]string{}
	if trace == 1 {
		for _, m := range bf.PerLayer {
			declared[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.EndToEnd {
			declared[m.Name] = m.Unit
		}
	}
	for name, unit := range declared {
		if m, ok := got[name]; !ok || m.Unit != unit {
			return fmt.Errorf("metric %q is declared in BENCHMARK.json with unit %q and emitted as %+v (emitted: %t)", name, unit, m, ok)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			return fmt.Errorf("metric %q is emitted but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// runSelfcheck runs every workload 5+5 times, alternating set A and set
// B, and compares the two sets as the driver compares parent and change:
// same code on both sides, so any difference is the benchmark's own
// noise. It fails when a metric's two medians differ by more than half
// its bound; when a run of that workload was disturbed the verdict is
// UNRESOLVED, not TOO NOISY. The estimators not chosen are printed beside
// the metrics, unbounded, as the evidence for the choice.
func runSelfcheck(e *env, bf *benchmarkFile, todo []workload) error {
	const perSet = 5
	e.opt.Trace = 0 // the bounds are on the end-to-end metrics
	type row struct {
		name, unit string
		bound      float64
	}
	var rows []row
	for _, m := range bf.EndToEnd {
		rows = append(rows, row{m.Name, m.Unit, m.Bound})
	}
	for _, name := range estimatorNames {
		rows = append(rows, row{name: name})
	}
	bad := 0
	for _, w := range todo {
		sets := [2]map[string][]float64{{}, {}}
		disturbed := 0
		for i := 0; i < 2*perSet; i++ {
			e.opt.Seed = int64(1 + i/2) // A and B see the same seeds
			rep, err := runWorkload(e, w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if rep.Measured.Failed > 0 {
				return fmt.Errorf("%s: %d of %d responses wrong: %s", w.name,
					rep.Measured.Failed, rep.Measured.Attempted, rep.Measured.FirstError)
			}
			for k, m := range rep.Metrics {
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
			for k, v := range rep.Estimators {
				sets[i%2][k] = append(sets[i%2][k], v)
			}
			if rep.Measured.Disturbed {
				disturbed++
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d (set %c) loadavg %s round spread %.1f%%\n", w.name, i+1, 2*perSet,
				'A'+rune(i%2), rep.Loadavg, 100*rep.Measured.RoundSpread)
		}
		for _, m := range rows {
			a, b := sets[0][m.name], sets[1][m.name]
			all := slices.Concat(a, b)
			med := median(all)
			if len(all) == 0 || med == 0 {
				return fmt.Errorf("%s: metric %q has no samples or a zero median", w.name, m.name)
			}
			spread := (slices.Max(all) - slices.Min(all)) / med
			diff := math.Abs(median(a)-median(b)) / med
			verdict := "ok"
			switch {
			case m.bound == 0:
				verdict = "(estimator not chosen, no bound)"
			case diff > 0.5*m.bound && disturbed > 0:
				verdict = fmt.Sprintf("UNRESOLVED (%d disturbed runs)", disturbed)
				bad++
			case diff > 0.5*m.bound:
				verdict = "TOO NOISY"
				bad++
			}
			fmt.Printf("%-13s %-24s median %12.4f %-4s range/median %6.2f%%  |medA-medB|/median %5.2f%%  bound %4.1f%%  %s\n",
				w.name, m.name, med, m.unit, 100*spread, 100*diff, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload/metric pairs moved by more than half their bound between two sets of runs of the same code", bad)
	}
	return nil
}

// benchDir is the benchmark's directory as seen from the working
// directory: run.sh starts the program at the checkout root, go run and
// go test start it inside bench/.
func benchDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			return "."
		}
	}
	return "bench"
}

func benchmarkPath() string { return filepath.Join(benchDir(), "..", "BENCHMARK.json") }
