package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/wkt"
)

// writeDatasets writes OLE and OPE as WKT source files and returns
// their paths.
func writeDatasets(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	suite := datagen.NewSuite(5, 0.03)
	paths := map[string]string{}
	for _, name := range []string{"OLE", "OPE"} {
		var lines []string
		for _, p := range suite.Sets[name] {
			lines = append(lines, wkt.MarshalPolygon(p))
		}
		p := filepath.Join(dir, name+".wkt")
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths[name] = p
	}
	return paths["OLE"], paths["OPE"]
}

func TestRunFindRelation(t *testing.T) {
	left, right := writeDatasets(t)
	for _, method := range []string{"ST2", "P+C"} {
		if err := run(options{left: left, right: right, method: method}); err != nil {
			t.Fatalf("method %s: %v", method, err)
		}
	}
}

// histogram runs a find-relation join and returns the relation
// histogram it prints (the indented "relation count" lines).
func histogram(t *testing.T, o options) string {
	t.Helper()
	var sb strings.Builder
	o.out = &sb
	if err := run(o); err != nil {
		t.Fatalf("method %s: %v", o.method, err)
	}
	var hist []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "  ") {
			hist = append(hist, line)
		}
	}
	return strings.Join(hist, "\n")
}

// TestRunSharedGrid joins two inputs whose MBRs differ. Both sides must
// be built on one grid: P+C's filters compare cell ids, so lists built
// over each input's own MBR would disagree with ST2, which reads no
// approximations.
func TestRunSharedGrid(t *testing.T) {
	left, right := writeDatasets(t)
	var mbrs [2]geom.MBR
	for i, path := range []string{left, right} {
		_, polys, err := dataset.ReadSource(path)
		if err != nil {
			t.Fatal(err)
		}
		mbrs[i] = geom.EmptyMBR()
		for _, p := range polys {
			mbrs[i] = mbrs[i].Expand(p.Bounds())
		}
	}
	if mbrs[0] == mbrs[1] {
		t.Fatalf("inputs share the MBR %+v; the test needs different ones", mbrs[0])
	}
	st2 := histogram(t, options{left: left, right: right, method: "ST2"})
	pc := histogram(t, options{left: left, right: right, method: "P+C"})
	if st2 == "" || st2 != pc {
		t.Fatalf("relation histograms differ:\nST2:\n%s\nP+C:\n%s", st2, pc)
	}
}

func TestRunPredicate(t *testing.T) {
	left, right := writeDatasets(t)
	for _, pred := range []string{"inside", "meets", "disjoint"} {
		if err := run(options{left: left, right: right, pred: pred, method: "P+C"}); err != nil {
			t.Fatalf("pred %s: %v", pred, err)
		}
	}
}

// TestRunMetricsSnapshot covers the -metrics path end to end: the
// snapshot must carry the method-labelled pipeline family the server
// and experiments publish, with per-stage verdict counters that sum
// exactly to the candidate-pair total, and the refined count must match
// MethodStats.Undetermined from a harness sweep of the identical
// workload — the two accountings are one.
func TestRunMetricsSnapshot(t *testing.T) {
	left, right := writeDatasets(t)
	reg := obs.NewRegistry()
	var sb strings.Builder
	if err := run(options{left: left, right: right, method: "P+C", reg: reg, out: &sb}); err != nil {
		t.Fatal(err)
	}

	pairsTotal := reg.Counter(obs.Name("pipeline_pairs_total", "method", "P+C")).Value()
	if pairsTotal <= 0 {
		t.Fatal("pipeline_pairs_total not populated")
	}
	var verdictSum int64
	for _, stage := range []string{"mbr", "if", "refine"} {
		verdictSum += reg.Counter(obs.Name("pipeline_verdict_total", "method", "P+C", "stage", stage)).Value()
	}
	if verdictSum != pairsTotal {
		t.Errorf("verdict counters sum to %d, want pair total %d", verdictSum, pairsTotal)
	}
	if got := reg.Counter("join_pairs_total").Value(); got != pairsTotal {
		t.Errorf("join produced %d pairs but pipeline saw %d", got, pairsTotal)
	}
	if reg.Counter(obs.Name("pipeline_filter_ns_total", "method", "P+C")).Value() <= 0 {
		t.Error("pipeline_filter_ns_total not populated")
	}

	// Replay the identical workload through the harness: the registry's
	// refined count and MethodStats.Undetermined must agree exactly.
	ld, rd, err := loadPair(options{left: left, right: right, order: datagen.DefaultOrder})
	if err != nil {
		t.Fatal(err)
	}
	idPairs := join.Pairs(ld.MBRs(), rd.MBRs())
	hp := make([]core.Pair, len(idPairs))
	for i, pr := range idPairs {
		hp[i] = core.Pair{R: ld.Objects[pr[0]], S: rd.Objects[pr[1]]}
	}
	st := harness.RunSweep(core.PC, core.Test{}, hp)
	if got := reg.Counter(obs.Name("pipeline_verdict_total", "method", "P+C", "stage", "refine")).Value(); got != int64(st.Undetermined) {
		t.Errorf("registry refined count %d != MethodStats.Undetermined %d", got, st.Undetermined)
	}

	out := sb.String()
	for _, want := range []string{"== metrics snapshot ==", "pipeline_pairs_total", "pipeline_verdict_total", "pipeline_refine_ns_total", "join_pairs_total", "go_goroutines"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot dump missing %q", want)
		}
	}
}

// TestRunPredicateMetrics: the relate_p path publishes hold/refine
// counters under the predicate label, equal to the sweep's own counts.
func TestRunPredicateMetrics(t *testing.T) {
	left, right := writeDatasets(t)
	reg := obs.NewRegistry()
	var sb strings.Builder
	if err := run(options{left: left, right: right, pred: "intersects", method: "P+C", reg: reg, out: &sb}); err != nil {
		t.Fatal(err)
	}
	holds := reg.Counter(obs.Name("relate_holds_total", "pred", "intersects")).Value()
	if holds <= 0 {
		t.Error("relate_holds_total not populated")
	}
	if !strings.Contains(sb.String(), fmt.Sprintf(": %d of %d pairs hold, %d refined,", holds,
		reg.Counter("join_pairs_total").Value(), reg.Counter(obs.Name("relate_refined_total", "pred", "intersects")).Value())) {
		t.Errorf("relate counters disagree with the summary line:\n%s", sb.String())
	}
	if reg.Counter("join_pairs_total").Value() <= 0 {
		t.Error("join counters not populated on the predicate path")
	}
}

func TestRunErrors(t *testing.T) {
	left, right := writeDatasets(t)
	if err := run(options{left: left, right: right, method: "NOPE"}); err == nil {
		t.Error("unknown method should fail")
	}
	if err := run(options{left: left, right: right, pred: "sideways", method: "P+C"}); err == nil {
		t.Error("unknown predicate should fail")
	}
	if err := run(options{left: "missing.wkt", right: right, method: "P+C"}); err == nil {
		t.Error("missing left dataset should fail")
	}
	if err := run(options{left: left, right: "missing.wkt", method: "P+C"}); err == nil {
		t.Error("missing right dataset should fail")
	}
}

func TestParsers(t *testing.T) {
	if _, err := methodByName("APRIL"); err != nil {
		t.Error(err)
	}
	if _, err := methodByName("april"); err == nil {
		t.Error("method names are case-sensitive")
	}
	if r, err := parseRelation("covered_by"); err != nil || r.String() != "covered_by" {
		t.Errorf("parseRelation: %v %v", r, err)
	}
	if _, err := parseRelation("nope"); err == nil {
		t.Error("unknown relation should fail")
	}
}
