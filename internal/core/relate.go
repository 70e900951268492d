package core

import (
	"repro/internal/de9im"
	"repro/internal/interval"
	"repro/internal/mbrrel"
)

// TriState is the verdict of a relate_p intermediate filter.
type TriState int8

// Relate filter verdicts.
const (
	Unknown TriState = iota // refinement needed
	No                      // the predicate definitely does not hold
	Yes                     // the predicate definitely holds
)

func (t TriState) String() string {
	switch t {
	case Yes:
		return "yes"
	case No:
		return "no"
	default:
		return "unknown"
	}
}

// relateFilter runs the Fig. 6 interval-list filter for predicate pred on
// an MBR-intersecting pair.
func relateFilter(pred de9im.Relation, r, s *Object) TriState {
	ra, sa := &r.Approx, &s.Approx
	switch pred {
	case de9im.Inside, de9im.CoveredBy:
		if !interval.Inside(ra.C, sa.C) {
			return No
		}
		if interval.Inside(ra.C, sa.P) {
			return Yes
		}
		return Unknown
	case de9im.Contains, de9im.Covers:
		if !interval.Contains(ra.C, sa.C) {
			return No
		}
		if interval.Contains(ra.P, sa.C) {
			return Yes
		}
		return Unknown
	case de9im.Meets:
		if !interval.Overlap(ra.C, sa.C) {
			return No // disjoint, no boundary contact
		}
		if interval.Overlap(ra.C, sa.P) || interval.Overlap(ra.P, sa.C) {
			return No // interiors certainly intersect
		}
		return Unknown
	case de9im.Equals:
		if !interval.Match(ra.C, sa.C) {
			return No
		}
		if !interval.Match(ra.P, sa.P) {
			return No
		}
		return Unknown
	case de9im.Intersects:
		if !interval.Overlap(ra.C, sa.C) {
			return No
		}
		if interval.Overlap(ra.C, sa.P) || interval.Overlap(ra.P, sa.C) {
			return Yes
		}
		return Unknown
	default: // Disjoint: the negation of intersects
		if !interval.Overlap(ra.C, sa.C) {
			return Yes
		}
		if interval.Overlap(ra.C, sa.P) || interval.Overlap(ra.P, sa.C) {
			return No
		}
		return Unknown
	}
}

// RelateResult is the outcome of one relate_p evaluation.
type RelateResult struct {
	Holds   bool
	Refined bool
	// Verdict is the stage that settled the pair: the relate_p
	// counterpart of the find-relation verdict (VerdictRefine exactly
	// when Refined).
	Verdict Verdict
}

// RelatePred answers the relate_p problem (Sec. 3.3): does relation pred
// hold for the pair (r, s)? The P+C method first rejects predicates that
// are impossible under the MBR intersection case, then runs the Fig. 6
// interval filter, refining only on Unknown. The other methods answer via
// their find-relation pipeline.
func RelatePred(m Method, r, s *Object, pred de9im.Relation) RelateResult {
	return RelatePredWith(m, r, s, pred, Refine)
}

// RelatePredWith is RelatePred with a custom refinement step, as
// FindRelationWith is to FindRelation.
func RelatePredWith(m Method, r, s *Object, pred de9im.Relation, refine Refiner) RelateResult {
	c := mbrrel.Classify(r.MBR, s.MBR)
	if c == mbrrel.DisjointMBRs {
		return RelateResult{Holds: pred == de9im.Disjoint, Verdict: VerdictMBR}
	}
	if m != PC {
		res := FindRelationWith(m, r, s, refine)
		return RelateResult{Holds: Implies(res.Relation, pred), Refined: res.Refined, Verdict: verdictOf(res)}
	}
	if !mbrrel.Possible(c, pred) {
		return RelateResult{Holds: false, Verdict: VerdictMBR}
	}
	if rel, ok := mbrrel.Definite(c); ok {
		return RelateResult{Holds: Implies(rel, pred), Verdict: VerdictMBR}
	}
	switch relateFilter(pred, r, s) {
	case Yes:
		return RelateResult{Holds: true, Verdict: VerdictIF}
	case No:
		return RelateResult{Holds: false, Verdict: VerdictIF}
	default:
		return RelateResult{Holds: de9im.Holds(pred, refine(r, s)), Refined: true, Verdict: VerdictRefine}
	}
}

// Implies reports whether a pair whose most specific relation is rel also
// satisfies predicate pred, following the generalization hierarchy of
// Fig. 2: equals implies covered by and covers; inside implies covered by;
// contains implies covers; everything except disjoint implies intersects.
func Implies(rel, pred de9im.Relation) bool {
	if rel == pred {
		return true
	}
	switch pred {
	case de9im.Intersects:
		return rel != de9im.Disjoint
	case de9im.CoveredBy:
		return rel == de9im.Equals || rel == de9im.Inside
	case de9im.Covers:
		return rel == de9im.Equals || rel == de9im.Contains
	default:
		return false
	}
}
