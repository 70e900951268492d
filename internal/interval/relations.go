package interval

// The four relations below are the innermost loops of the intermediate
// filter; none allocates or dispatches through an interface. Overlap and
// Inside walk one list and, for each of its runs, seek the other list's
// cursor forward to the one run that decides it, so a short list against
// a long one costs O(|short| · log(|long|/|short|)) instead of a scan of
// the long list: a landmark's few runs against a county's hundreds touch
// a few dozen runs, not the whole county. kernels_test.go cross-checks
// them against plain merge-join reference implementations on every
// input.

// seek returns the first index k ≥ j with y[k].End > v, or len(y). Ends
// strictly increase along a normalized list, so an exponential probe
// from j brackets k and a binary search settles it in O(log(k − j)).
func seek(y List, j int, v uint64) int {
	if j >= len(y) || y[j].End > v {
		return j
	}
	// Invariant: y[lo].End ≤ v, and hi == len(y) or y[hi].End > v.
	lo, hi := j, j+1
	for hi < len(y) && y[hi].End <= v {
		lo, hi = hi, hi+2*(hi-lo)
	}
	hi = min(hi, len(y))
	for hi-lo > 1 {
		if m := int(uint(lo+hi) >> 1); y[m].End <= v {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// Overlap reports whether lists x and y share at least one cell id
// ('X,Y overlap' in the paper). It walks the shorter list: only the
// first run of the other list ending after a run's start can meet it.
func Overlap(x, y List) bool {
	if len(x) > len(y) {
		x, y = y, x
	}
	j := 0
	for _, a := range x {
		if j = seek(y, j, a.Start); j == len(y) {
			return false
		}
		if y[j].Start < a.End {
			return true
		}
	}
	return false
}

// Match reports whether the two lists are identical ('X,Y match').
func Match(x, y List) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Inside reports whether every interval of x is contained in some interval
// of y ('X inside Y'). Because both lists are normalized, an x-run can
// only be covered by the first y-run whose End reaches its End (> End−1,
// as End ≥ 1), so Inside walks x and seeks through y: O(|x| ·
// log(|y|/|x|)) when y is the longer list, one step per x-run up to the
// first uncovered one otherwise.
func Inside(x, y List) bool {
	j := 0
	for _, a := range x {
		if j = seek(y, j, a.End-1); j == len(y) || y[j].Start > a.Start {
			return false
		}
	}
	return true
}

// Contains reports whether every interval of y is contained in some
// interval of x ('X contains Y').
func Contains(x, y List) bool { return Inside(y, x) }
