package main

import (
	"regexp"
	"testing"

	"repro/internal/datagen"
)

// smallRun runs every workload once at a size that takes well under a
// second each, with or without the traced passes.
func smallRun(t *testing.T, trace int) map[string]*report {
	t.Helper()
	dir := t.TempDir()
	e, err := newEnv(options{
		Workload: "all", Seed: 7, Seconds: 1, Trace: trace, Scale: 0.05,
		Order: datagen.DefaultOrder - 3, Ops: 12, Setups: 1, Scratch: dir, Out: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	out := map[string]*report{}
	for _, w := range workloads {
		rep, err := runWorkload(e, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Measured.Failed > 0 || rep.Measured.Attempted == 0 {
			t.Errorf("%s: %d of %d responses wrong: %s", w.name, rep.Measured.Failed, rep.Measured.Attempted, rep.Measured.FirstError)
		}
		out[w.name] = rep
	}
	return out
}

// TestContract holds the benchmark to BENCHMARK.json: every declared
// workload exists, every declared metric is emitted under its unit by
// every workload, and nothing undeclared is; and the same seed sends the
// same work and gets the same answers. No timing is asserted.
func TestContract(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkPath())
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("declared workload %q does not exist", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var first map[string]*report
	for trace := 0; trace <= 1; trace++ {
		reports := smallRun(t, trace)
		if trace == 0 {
			first = reports
		}
		for wname, rep := range reports {
			if err := bf.checkEmitted(trace, rep.Metrics); err != nil {
				t.Errorf("%s trace %d: %v", wname, trace, err)
			}
			for k := range rep.Metrics {
				if !name.MatchString(k) {
					t.Errorf("metric name %q is outside the contract's alphabet", k)
				}
			}
		}
	}
	for wname, rep := range smallRun(t, 0) {
		if got, want := rep.Measured.Fingerprint, first[wname].Measured.Fingerprint; got != want {
			t.Errorf("%s: fingerprint %q, then %q", wname, want, got)
		}
	}
}

// TestSelfcheckForcesUntraced: the bounds are on the end-to-end metrics,
// so -selfcheck -trace 1 must not look for them among the layer metrics.
func TestSelfcheckForcesUntraced(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkPath())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := newEnv(options{
		Workload: "relate_probe", Seed: 1, Seconds: 1, Trace: 1, Scale: 0.05,
		Order: datagen.DefaultOrder - 3, Ops: 12, Setups: 1, Scratch: dir, Out: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	w, _ := findWorkload("relate_probe")
	// Timings at this size are noise, so only a failure that is not a
	// verdict on noise counts.
	if err := runSelfcheck(e, bf, []workload{w}); err != nil && !regexp.MustCompile(`moved by more than half`).MatchString(err.Error()) {
		t.Fatal(err)
	}
}
