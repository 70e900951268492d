package core

import "repro/internal/mbrrel"

// Verdict identifies which pipeline stage settled a pair — the unit of
// the paper's cost accounting (Fig. 7b counts refinements, Fig. 8b
// splits stage time).
type Verdict uint8

// The pipeline stages, in evaluation order.
const (
	// VerdictMBR: the MBR filter alone settled the pair (disjoint MBRs,
	// a definite Fig. 4 case, or a predicate the case rules out).
	VerdictMBR Verdict = iota
	// VerdictIF: the intermediate filter settled the pair from the
	// interval lists, without touching exact geometry.
	VerdictIF
	// VerdictRefine: the pair was undetermined after all filters and the
	// DE-9IM matrix had to be computed.
	VerdictRefine
	numVerdicts
)

// NumVerdicts is the number of pipeline stages that can settle a pair.
const NumVerdicts = int(numVerdicts)

func (v Verdict) String() string {
	switch v {
	case VerdictMBR:
		return "mbr"
	case VerdictIF:
		return "if"
	case VerdictRefine:
		return "refine"
	default:
		return "unknown"
	}
}

// verdictOf classifies a settled result: refined pairs report
// VerdictRefine; unrefined pairs were settled either by the MBR filter
// (disjoint or definite case) or, failing that, by the intermediate
// filter.
func verdictOf(res Result) Verdict {
	if res.Refined {
		return VerdictRefine
	}
	if res.Case == mbrrel.DisjointMBRs {
		return VerdictMBR
	}
	if _, ok := mbrrel.Definite(res.Case); ok {
		return VerdictMBR
	}
	return VerdictIF
}
