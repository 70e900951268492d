package core

import (
	"repro/internal/de9im"
	"repro/internal/mbrrel"
)

// RelateMask answers an arbitrary DE-9IM mask query for a pair, the
// three-argument ST_Relate form of spatial SQL. When the mask is one of
// the Table 1 masks of a named relation, the query is answered through
// the corresponding relate_p fast path; otherwise the pair's matrix is
// computed, short-cutting only the MBR-disjoint case (whose matrix is
// known without geometry).
func RelateMask(m Method, r, s *Object, mask de9im.Mask) RelateResult {
	return RelateMaskWith(m, r, s, mask, Refine)
}

// RelateMaskWith is RelateMask with a custom refinement step, as
// FindRelationWith is to FindRelation.
func RelateMaskWith(m Method, r, s *Object, mask de9im.Mask, refine Refiner) RelateResult {
	if rel, ok := maskRelation(mask); ok {
		return RelatePredWith(m, r, s, rel, refine)
	}
	if mbrrel.Classify(r.MBR, s.MBR) == mbrrel.DisjointMBRs {
		return RelateResult{Holds: mask.Matches(disjointMatrix(r, s)), Verdict: VerdictMBR}
	}
	return RelateResult{Holds: mask.Matches(refine(r, s)), Refined: true, Verdict: VerdictRefine}
}

// maskRelation reverse-maps a mask to the relation whose Table 1 mask set
// consists of exactly that mask.
func maskRelation(mask de9im.Mask) (de9im.Relation, bool) {
	for rel := de9im.Relation(0); int(rel) < de9im.NumRelations; rel++ {
		ms := de9im.MasksOf(rel)
		if len(ms) == 1 && ms[0] == mask {
			return rel, true
		}
	}
	return 0, false
}

// disjointMatrix is the exact DE-9IM matrix of a pair known to be
// disjoint with both geometries non-empty: FF2FF1212.
func disjointMatrix(_, _ *Object) de9im.Matrix {
	m, err := de9im.ParseMatrix("FF2FF1212")
	if err != nil {
		panic(err)
	}
	return m
}
