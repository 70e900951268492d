package interval

// Interval predicates and set operations over normalized lists that only
// this package's tests use: in the reference kernels and to derive
// inside-by-construction kernel inputs.

// ContainsIv reports whether o is a sub-interval of iv.
func (iv Interval) ContainsIv(o Interval) bool {
	return iv.Start <= o.Start && o.End <= iv.End
}

// Overlaps reports whether the two intervals share at least one cell.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End
}

// Union returns the normalized union of the two lists.
func Union(x, y List) List {
	merged := make([]Interval, 0, len(x)+len(y))
	merged = append(merged, x...)
	merged = append(merged, y...)
	return Normalize(merged)
}

// Intersect returns the normalized intersection of the two lists.
func Intersect(x, y List) List {
	var out List
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i], y[j]
		lo, hi := a.Start, a.End
		if b.Start > lo {
			lo = b.Start
		}
		if b.End < hi {
			hi = b.End
		}
		if lo < hi {
			out = append(out, Interval{lo, hi})
		}
		if a.End <= b.End {
			i++
		} else {
			j++
		}
	}
	return out
}
