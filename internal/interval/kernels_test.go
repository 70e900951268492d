package interval

import (
	"math/rand"
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

// TestKernelsMatchReference cross-checks the branch-reduced kernels
// against the reference implementations on randomized list pairs,
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
// kernel against its reference implementation.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 200, 5}, []byte{3, 4})
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Add([]byte{255, 254, 253}, []byte{255, 254, 253})
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
// per call (wired into `make bench`): the intermediate filter runs them
// for every candidate pair, so a single allocation here shows up as
// pairs-per-second on every workload.
func TestZeroAllocKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randKernelList(rng, 12)
	y := randKernelList(rng, 12)
	var sink bool
	kernels := map[string]func(){
		"Overlap":  func() { sink = Overlap(x, y) },
		"Match":    func() { sink = Match(x, y) },
		"Inside":   func() { sink = Inside(x, y) },
		"Contains": func() { sink = Contains(x, y) },
	}
	for name, fn := range kernels {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
	_ = sink
}
