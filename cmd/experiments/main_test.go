package main

import (
	"testing"

	"repro/internal/obs"
)

// TestRunExperiments smoke-tests every experiment at a tiny scale; the
// shape assertions live in internal/harness, this guards the wiring.
func TestRunExperiments(t *testing.T) {
	for _, exp := range []string{
		"table2", "table3", "fig7a", "fig7b", "table4",
		"fig9", "table5", "access",
	} {
		if err := run(exp, 3, 0.05, 11, nil); err != nil {
			t.Fatalf("experiment %s: %v", exp, err)
		}
	}
}

func TestRunFig8(t *testing.T) {
	if err := run("fig8", 3, 0.05, 11, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblation(t *testing.T) {
	if err := run("ablation", 3, 0.05, 11, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithMetrics: the fig7 sweep must publish per-method verdict
// telemetry that partitions the pair total, for every method.
func TestRunWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	if err := run("fig7a", 3, 0.05, 11, reg); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"ST2", "OP2", "APRIL", "P+C"} {
		pairs := reg.Counter(obs.Name("fig7_pairs_total", "method", method)).Value()
		if pairs <= 0 {
			t.Fatalf("method %s: no pairs published", method)
		}
		var verdicts int64
		for _, stage := range []string{"mbr", "if", "refine"} {
			verdicts += reg.Counter(obs.Name("fig7_verdict_total", "method", method, "stage", stage)).Value()
		}
		if verdicts != pairs {
			t.Errorf("method %s: verdicts sum to %d, want %d", method, verdicts, pairs)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := run("nonsense", 3, 0.05, 11, nil); err == nil {
		t.Error("unknown experiment should fail")
	}
}
