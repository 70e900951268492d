// Package interval implements sorted lists of disjoint half-open uint64
// intervals and the four merge-join relations between two lists that the
// paper's intermediate filters are built from (Sec. 3.2):
//
//	overlap  — the lists share at least one cell id
//	match    — the lists are identical
//	inside   — every interval of X is contained in one interval of Y
//	contains — every interval of Y is contained in one interval of X
//
// Every relation is one forward pass. Overlap and inside walk one list
// and gallop through the other, so a short list against a long one costs
// O(|short| · log(|long|/|short|)) rather than a scan of the long list.
// That is what makes the intermediate filter cheap relative to DE-9IM
// refinement.
package interval

import "sort"

// Interval is a half-open range [Start, End) of cell identifiers.
type Interval struct {
	Start, End uint64
}

// Len returns the number of cells covered by the interval.
func (iv Interval) Len() uint64 { return iv.End - iv.Start }

// Contains reports whether cell d lies in the interval.
func (iv Interval) Contains(d uint64) bool { return iv.Start <= d && d < iv.End }

// List is a normalized interval list: sorted by Start, pairwise disjoint,
// with no empty and no adjacent (mergeable) intervals.
type List []Interval

// FromCells builds a normalized list from an unordered set of cell ids.
// The input slice is sorted in place.
//
// Cell id ^uint64(0) is reserved: a half-open interval cannot represent
// it (its End would overflow to 0, producing an interval that every
// merge-join relation silently treats as empty — a soundness hole, not a
// quiet degradation). Hilbert cell ids never exceed 2^62, so the
// reserved id is unreachable from the approximation builders; passing it
// here is a programming error and panics.
func FromCells(cells []uint64) List {
	if len(cells) == 0 {
		return nil
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	if cells[len(cells)-1] == ^uint64(0) {
		panic("interval: cell id 1<<64-1 is reserved and cannot be represented")
	}
	out := List{{cells[0], cells[0] + 1}}
	for _, c := range cells[1:] {
		last := &out[len(out)-1]
		switch {
		case c < last.End: // duplicate
		case c == last.End:
			last.End++
		default:
			out = append(out, Interval{c, c + 1})
		}
	}
	return out
}

// Normalize sorts, merges and drops empty intervals, returning a valid List.
func Normalize(ivs []Interval) List {
	filtered := ivs[:0]
	for _, iv := range ivs {
		if iv.Start < iv.End {
			filtered = append(filtered, iv)
		}
	}
	if len(filtered) == 0 {
		return nil
	}
	sort.Slice(filtered, func(i, j int) bool { return filtered[i].Start < filtered[j].Start })
	out := List{filtered[0]}
	for _, iv := range filtered[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// IsValid reports whether l is normalized.
func (l List) IsValid() bool {
	for i, iv := range l {
		if iv.Start >= iv.End {
			return false
		}
		if i > 0 && l[i-1].End >= iv.Start {
			return false
		}
	}
	return true
}

// NumCells returns the total number of cells covered by the list.
func (l List) NumCells() uint64 {
	var n uint64
	for _, iv := range l {
		n += iv.Len()
	}
	return n
}

// ContainsCell reports whether cell d is covered by the list
// (binary search, O(log |l|)).
func (l List) ContainsCell(d uint64) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i].End > d })
	return i < len(l) && l[i].Contains(d)
}

// Cells materializes every covered cell id. Intended for tests.
func (l List) Cells() []uint64 {
	out := make([]uint64, 0, l.NumCells())
	for _, iv := range l {
		for d := iv.Start; d < iv.End; d++ {
			out = append(out, d)
		}
	}
	return out
}

// Clone returns a copy of the list.
func (l List) Clone() List {
	c := make(List, len(l))
	copy(c, l)
	return c
}
