package interval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The pre-kernel reference implementations of the four merge-join
// relations, kept verbatim as the cross-check target: the branch-reduced
// kernels in relations.go must agree with these on every input.

func refOverlap(x, y List) bool {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if x[i].Overlaps(y[j]) {
			return true
		}
		if x[i].End <= y[j].Start {
			i++
		} else {
			j++
		}
	}
	return false
}

func refMatch(x, y List) bool {
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

func refInside(x, y List) bool {
	if len(x) == 0 {
		return true
	}
	j := 0
	for _, iv := range x {
		for j < len(y) && y[j].End < iv.End {
			j++
		}
		if j == len(y) || !y[j].ContainsIv(iv) {
			return false
		}
	}
	return true
}

func refContains(x, y List) bool { return refInside(y, x) }

// randList builds a small normalized list whose runs cluster in a narrow
// id range, so overlaps, nestings and exact matches are all common.
func randKernelList(rng *rand.Rand, maxRuns int) List {
	n := rng.Intn(maxRuns + 1)
	cells := make([]uint64, 0, 4*n)
	for i := 0; i < n; i++ {
		start := uint64(rng.Intn(64))
		width := uint64(1 + rng.Intn(6))
		for c := start; c < start+width; c++ {
			cells = append(cells, c)
		}
	}
	return FromCells(cells)
}

func checkAgainstReference(t *testing.T, x, y List) {
	t.Helper()
	if got, want := Overlap(x, y), refOverlap(x, y); got != want {
		t.Fatalf("Overlap(%v, %v) = %v, reference %v", x, y, got, want)
	}
	if got, want := Match(x, y), refMatch(x, y); got != want {
		t.Fatalf("Match(%v, %v) = %v, reference %v", x, y, got, want)
	}
	if got, want := Inside(x, y), refInside(x, y); got != want {
		t.Fatalf("Inside(%v, %v) = %v, reference %v", x, y, got, want)
	}
	if got, want := Contains(x, y), refContains(x, y); got != want {
		t.Fatalf("Contains(%v, %v) = %v, reference %v", x, y, got, want)
	}
}

// randRuns builds a normalized list of n runs after cell from, with
// gaps and widths of 1-8 cells.
func randRuns(rng *rand.Rand, from uint64, n int) List {
	l := make(List, n)
	at := from
	for i := range l {
		at += 1 + uint64(rng.Intn(8)) // gap ≥ 1 keeps the list normalized
		w := 1 + uint64(rng.Intn(8))
		l[i] = Interval{at, at + w}
		at += w
	}
	return l
}

// randSkewedPair builds a short list of 1-4 runs and a long list of
// 32-1,024 runs, so the kernels seek far through the long list, with
// each short run placed before, after, inside, adjacent to, or
// straddling the long list's runs. Half the pairs place every short
// run the same way, so all-inside (Inside true) and all-outside
// (Overlap false) verdicts are common.
func randSkewedPair(rng *rand.Rand) (short, long List) {
	n := 32 + rng.Intn(1024-32+1)
	long = randRuns(rng, 1<<20, n)
	first, last := long[0], long[n-1]
	mode := -1
	if rng.Intn(2) == 0 {
		mode = rng.Intn(6)
	}
	k := 1 + rng.Intn(4)
	ivs := make([]Interval, 0, k)
	for i := 0; i < k; i++ {
		m := mode
		if m < 0 {
			m = rng.Intn(6)
		}
		r := long[rng.Intn(n)]
		w := 1 + uint64(rng.Intn(4))
		var iv Interval
		switch m {
		case 0: // before the long list, possibly flush against it
			end := first.Start - uint64(rng.Intn(3))
			iv = Interval{end - w, end}
		case 1: // after the long list, possibly flush against it
			start := last.End + uint64(rng.Intn(3))
			iv = Interval{start, start + w}
		case 2: // inside one long run, up to the whole run
			s := r.Start + uint64(rng.Intn(int(r.Len())))
			iv = Interval{s, s + 1 + uint64(rng.Intn(int(r.End-s)))}
		case 3: // adjacent to a long run, on either side
			if rng.Intn(2) == 0 {
				iv = Interval{r.Start - 1, r.Start}
			} else {
				iv = Interval{r.End, r.End + 1}
			}
		case 4: // straddling a long run's start or end, or the whole run
			switch rng.Intn(3) {
			case 0:
				iv = Interval{r.Start - 1, r.Start + 1}
			case 1:
				iv = Interval{r.End - 1, r.End + 1}
			default:
				iv = Interval{r.Start - 1, r.End + 1}
			}
		default: // straddling the whole long list
			iv = Interval{first.Start - w, last.End + w}
		}
		ivs = append(ivs, iv)
	}
	return Normalize(ivs), long
}

// TestKernelsSkewed cross-checks the kernels on skewed pairs, in both
// argument orders: Inside seeks through y for a short x, and skips
// stretches of x for a long one.
func TestKernelsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var overlaps, insides int
	const trials = 5000
	for trial := 0; trial < trials; trial++ {
		short, long := randSkewedPair(rng)
		checkAgainstReference(t, short, long)
		checkAgainstReference(t, long, short)
		if refOverlap(short, long) {
			overlaps++
		}
		if refInside(short, long) {
			insides++
		}
	}
	// Each verdict of each relation must be well represented, or the
	// generator has stopped reaching one of the kernels' exits.
	for name, n := range map[string]int{"overlap": overlaps, "inside": insides} {
		if n < trials/10 || n > trials-trials/10 {
			t.Errorf("%s held on %d of %d pairs", name, n, trials)
		}
	}
}

// TestKernelsMatchReference cross-checks the kernels against the
// reference implementations on randomized list pairs,
// including derived pairs engineered to hit match/inside verdicts.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		x := randKernelList(rng, 5)
		y := randKernelList(rng, 5)
		checkAgainstReference(t, x, y)
		checkAgainstReference(t, x, x.Clone()) // exact match path
		checkAgainstReference(t, Intersect(x, y), y)
		checkAgainstReference(t, x, Union(x, y)) // inside-by-construction
	}
}

// TestKernelsExhaustiveSmall enumerates every pair of lists over a tiny
// universe so all interleavings, adjacencies, and shared endpoints are
// covered deterministically.
func TestKernelsExhaustiveSmall(t *testing.T) {
	const bits = 7 // universe {0..6} as cell-membership bitmaps
	lists := make([]List, 0, 1<<bits)
	for m := 0; m < 1<<bits; m++ {
		var cells []uint64
		for c := uint64(0); c < bits; c++ {
			if m&(1<<c) != 0 {
				cells = append(cells, c)
			}
		}
		lists = append(lists, FromCells(cells))
	}
	for _, x := range lists {
		for _, y := range lists {
			checkAgainstReference(t, x, y)
		}
	}
}

// FuzzKernels derives two lists from raw bytes and cross-checks every
// kernel against its reference implementation. The later seeds
// are skewed: a few cells against a list of up to 128 runs.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 200, 5}, []byte{3, 4})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{255, 254, 253}, []byte{255, 254, 253})
	every := func(from, step int) []byte {
		var b []byte
		for c := from; c < 256; c += step {
			b = append(b, byte(c))
		}
		return b
	}
	f.Add([]byte{100}, every(0, 2))                // inside one run
	f.Add([]byte{101}, every(0, 2))                // in a gap
	f.Add([]byte{0, 255}, every(2, 2))             // before and after
	f.Add([]byte{150, 151, 152}, every(0, 3))      // straddling
	f.Add(every(0, 4), []byte{40, 41, 42, 43, 44}) // long list first
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		toList := func(b []byte) List {
			cells := make([]uint64, len(b))
			for i, c := range b {
				cells[i] = uint64(c)
			}
			return FromCells(cells)
		}
		x, y := toList(xb), toList(yb)
		checkAgainstReference(t, x, y)
	})
}

// TestZeroAllocKernels pins the four kernels to zero heap allocations
// per call (wired into `make bench`), on a balanced pair and a skewed
// one: the intermediate filter runs them for
// every candidate pair, so a single allocation here shows up as
// pairs-per-second on every workload.
func TestZeroAllocKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randKernelList(rng, 12)
	y := randKernelList(rng, 12)
	short, long := randSkewedPair(rng)
	var sink bool
	kernels := map[string]func(){
		"Overlap":         func() { sink = Overlap(x, y) },
		"Match":           func() { sink = Match(x, y) },
		"Inside":          func() { sink = Inside(x, y) },
		"Contains":        func() { sink = Contains(x, y) },
		"Overlap/skewed":  func() { sink = Overlap(short, long) },
		"Inside/skewed":   func() { sink = Inside(short, long) },
		"Contains/skewed": func() { sink = Contains(short, long) },
	}
	for name, fn := range kernels {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
	_ = sink
}

// kernelBenchPairs builds 64 pairs of a k-run list against an n-run
// list. With inside set, each short run is a sub-interval of a distinct
// long run, as a landmark's cells sit inside a county's, so Inside walks
// all of the short list; otherwise the short runs fall anywhere in the
// long list's span, so most verdicts come early.
func kernelBenchPairs(k, n int, inside bool) [][2]List {
	rng := rand.New(rand.NewSource(int64(k*1_000_003 + n)))
	pairs := make([][2]List, 64)
	for p := range pairs {
		long := randRuns(rng, 0, n)
		short := make([]Interval, k)
		if inside {
			idx := rng.Perm(n)[:k]
			sort.Ints(idx)
			for i, j := range idx {
				r := long[j]
				s := r.Start + uint64(rng.Intn(int(r.Len())))
				short[i] = Interval{s, s + 1 + uint64(rng.Intn(int(r.End-s)))}
			}
		} else {
			for i := range short {
				s := rng.Uint64() % long[n-1].End
				short[i] = Interval{s, s + 1 + uint64(rng.Intn(4))}
			}
		}
		pairs[p] = [2]List{Normalize(short), long}
	}
	return pairs
}

var benchHits int

// BenchmarkKernels times Overlap + Inside + Contains per pair on shapes
// from balanced to the TL x TC skew (short runs x long runs), against
// the unit-step merge of the reference implementations: the seek pays a
// few ns on balanced pairs and saves the scan of the long list on
// skewed ones.
func BenchmarkKernels(b *testing.B) {
	forms := []struct {
		name                      string
		overlap, inside, contains func(x, y List) bool
	}{{"merge", refOverlap, refInside, refContains}, {"seek", Overlap, Inside, Contains}}
	for _, placement := range []string{"inside", "random"} {
		for _, shape := range [][2]int{{8, 8}, {8, 16}, {8, 32}, {8, 64}, {5, 400}} {
			pairs := kernelBenchPairs(shape[0], shape[1], placement == "inside")
			for _, f := range forms {
				name := fmt.Sprintf("%s/%dx%d/%s", placement, shape[0], shape[1], f.name)
				b.Run(name, func(b *testing.B) {
					hits := 0
					for i := 0; i < b.N; i++ {
						p := pairs[i%len(pairs)]
						for _, hit := range [3]bool{f.overlap(p[0], p[1]), f.inside(p[0], p[1]), f.contains(p[0], p[1])} {
							if hit {
								hits++
							}
						}
					}
					benchHits = hits
				})
			}
		}
	}
}
