package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func TestDataAccess(t *testing.T) {
	rows, err := env(t).DataAccess(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != core.NumMethods {
		t.Fatalf("got %d rows", len(rows))
	}
	byMethod := map[core.Method]DataAccessRow{}
	for _, r := range rows {
		byMethod[r.Method] = r
		if r.StoreSize <= 0 {
			t.Fatalf("%v: empty store", r.Method)
		}
	}
	// ST2 and OP2 refine the same pairs, so they read the same bytes.
	if byMethod[core.ST2].BytesRead != byMethod[core.OP2].BytesRead {
		t.Errorf("ST2 (%d) and OP2 (%d) should read identical bytes",
			byMethod[core.ST2].BytesRead, byMethod[core.OP2].BytesRead)
	}
	// The filter hierarchy shows up as strictly decreasing I/O.
	if byMethod[core.APRIL].BytesRead > byMethod[core.ST2].BytesRead {
		t.Error("APRIL should not read more than ST2")
	}
	if byMethod[core.PC].BytesRead >= byMethod[core.APRIL].BytesRead {
		t.Errorf("P+C (%d bytes) should read less than APRIL (%d bytes)",
			byMethod[core.PC].BytesRead, byMethod[core.APRIL].BytesRead)
	}
	var sb strings.Builder
	RenderDataAccess(&sb, rows)
	if !strings.Contains(sb.String(), "Bytes read") {
		t.Error("render header missing")
	}
}

func TestPListAblationShape(t *testing.T) {
	rows, err := env(t).PListAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	full, cOnly := rows[0], rows[1]
	if full.UndetPct >= cOnly.UndetPct {
		t.Errorf("stripping P lists must hurt: full %.1f%%, C-only %.1f%%",
			full.UndetPct, cOnly.UndetPct)
	}
	var sb strings.Builder
	RenderPListAblation(&sb, rows)
	if !strings.Contains(sb.String(), "APRIL baseline") {
		t.Error("render missing variants")
	}

	// Stripping the P lists degrades P+C to exactly APRIL's
	// effectiveness: the same pairs reach refinement and the same
	// relations come out, on every combination.
	for _, c := range datagen.Combos {
		pairs, err := env(t).CandidatePairs(c)
		if err != nil {
			t.Fatal(err)
		}
		cOnly := RunSweep(core.PC, core.Test{}, StripProgressive(pairs))
		april := RunSweep(core.APRIL, core.Test{}, pairs)
		name := datagen.ComboName(c)
		if cOnly.Undetermined != april.Undetermined {
			t.Errorf("%s: C-only refined %d, APRIL %d", name, cOnly.Undetermined, april.Undetermined)
		}
		if cOnly.Relations != april.Relations {
			t.Errorf("%s: C-only relations %v, APRIL %v", name, cOnly.Relations, april.Relations)
		}
	}
}

func TestGridOrderAblationShape(t *testing.T) {
	rows, err := GridOrderAblation(2026, 0.05, []uint{9, 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	coarse, fine := rows[0], rows[1]
	if fine.PCUndetPct > coarse.PCUndetPct {
		t.Errorf("finer grid should settle more: 2^9 %.1f%%, 2^11 %.1f%%",
			coarse.PCUndetPct, fine.PCUndetPct)
	}
	if fine.ApproxKB <= coarse.ApproxKB {
		t.Errorf("finer grid should cost more storage: %v vs %v KB",
			fine.ApproxKB, coarse.ApproxKB)
	}
	if fine.MeetsRefined > coarse.MeetsRefined {
		t.Error("finer grid should reduce relate_meets refinements")
	}
	var sb strings.Builder
	RenderGridAblation(&sb, rows)
	if !strings.Contains(sb.String(), "2^9") {
		t.Error("render missing orders")
	}
}

func TestStripProgressive(t *testing.T) {
	pairs, err := env(t).CandidatePairs(ComplexityCombo)
	if err != nil {
		t.Fatal(err)
	}
	stripped := StripProgressive(pairs)
	if len(stripped) != len(pairs) {
		t.Fatal("pair count changed")
	}
	for i, p := range stripped {
		if len(p.R.Approx.P) != 0 || len(p.S.Approx.P) != 0 {
			t.Fatal("P lists not stripped")
		}
		if p.R.ID != pairs[i].R.ID || p.S.ID != pairs[i].S.ID {
			t.Fatal("object identity changed")
		}
		if len(p.R.Approx.C) != len(pairs[i].R.Approx.C) {
			t.Fatal("C lists must be preserved")
		}
	}
	// Originals untouched.
	for _, p := range pairs {
		if p.R.Poly == nil {
			t.Fatal("original objects mutated")
		}
	}
}
