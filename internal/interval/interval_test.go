package interval

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestFromCells(t *testing.T) {
	got := FromCells([]uint64{5, 1, 2, 3, 9, 10, 2})
	want := List{{1, 4}, {5, 6}, {9, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FromCells = %v, want %v", got, want)
	}
	if FromCells(nil) != nil {
		t.Error("FromCells(nil) should be nil")
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]Interval{{5, 8}, {1, 3}, {3, 5}, {10, 10}, {12, 14}})
	want := List{{1, 8}, {12, 14}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
	if !got.IsValid() {
		t.Error("normalized list should be valid")
	}
	bad := List{{3, 2}}
	if bad.IsValid() {
		t.Error("reversed interval should be invalid")
	}
	adj := List{{1, 3}, {3, 5}}
	if adj.IsValid() {
		t.Error("adjacent intervals should be invalid")
	}
}

func TestListQueries(t *testing.T) {
	l := List{{2, 5}, {8, 9}, {20, 30}}
	if l.NumCells() != 3+1+10 {
		t.Errorf("NumCells = %d", l.NumCells())
	}
	for _, c := range []uint64{2, 4, 8, 20, 29} {
		if !l.ContainsCell(c) {
			t.Errorf("should contain %d", c)
		}
	}
	for _, c := range []uint64{0, 5, 7, 9, 19, 30, 100} {
		if l.ContainsCell(c) {
			t.Errorf("should not contain %d", c)
		}
	}
	cells := l.Cells()
	if len(cells) != 14 || cells[0] != 2 || cells[13] != 29 {
		t.Errorf("Cells = %v", cells)
	}
	c := l.Clone()
	c[0].Start = 99
	if l[0].Start == 99 {
		t.Error("Clone aliases the original")
	}
}

func TestIntervalPrimitives(t *testing.T) {
	iv := Interval{5, 10}
	if iv.Len() != 5 {
		t.Errorf("Len = %d", iv.Len())
	}
	if !iv.Contains(5) || iv.Contains(10) {
		t.Error("half-open containment wrong")
	}
	if !iv.ContainsIv(Interval{6, 9}) || iv.ContainsIv(Interval{6, 11}) {
		t.Error("ContainsIv wrong")
	}
	if !iv.Overlaps(Interval{9, 20}) || iv.Overlaps(Interval{10, 20}) {
		t.Error("Overlaps must treat [5,10) and [10,20) as disjoint")
	}
}

// randList generates a random normalized list over [0, space).
func randList(rng *rand.Rand, space uint64, maxIvs int) List {
	n := rng.Intn(maxIvs + 1)
	ivs := make([]Interval, 0, n)
	for i := 0; i < n; i++ {
		s := rng.Uint64() % space
		e := s + 1 + rng.Uint64()%8
		ivs = append(ivs, Interval{s, e})
	}
	return Normalize(ivs)
}

func cellSet(l List) map[uint64]bool {
	m := make(map[uint64]bool)
	for _, c := range l.Cells() {
		m[c] = true
	}
	return m
}

// TestRelationsAgainstBruteForce is the core property test: every relation
// must agree with its set-theoretic definition over materialized cells.
func TestRelationsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		x := randList(rng, 120, 8)
		y := randList(rng, 120, 8)
		xs, ys := cellSet(x), cellSet(y)

		bruteOverlap := false
		for c := range xs {
			if ys[c] {
				bruteOverlap = true
				break
			}
		}
		if got := Overlap(x, y); got != bruteOverlap {
			t.Fatalf("Overlap(%v, %v) = %v, want %v", x, y, got, bruteOverlap)
		}

		bruteMatch := len(xs) == len(ys)
		for c := range xs {
			if !ys[c] {
				bruteMatch = false
				break
			}
		}
		if got := Match(x, y); got != bruteMatch {
			t.Fatalf("Match(%v, %v) = %v, want %v", x, y, got, bruteMatch)
		}

		// 'X inside Y' is per-interval containment, strictly stronger than
		// cell-subset when an x-interval spans a gap of y — but since both
		// lists are normalized, cell-subset and interval containment
		// coincide: an x-interval covering a y-gap would contain a cell not
		// in y.
		bruteInside := true
		for c := range xs {
			if !ys[c] {
				bruteInside = false
				break
			}
		}
		if got := Inside(x, y); got != bruteInside {
			t.Fatalf("Inside(%v, %v) = %v, want %v", x, y, got, bruteInside)
		}
		if got := Contains(y, x); got != bruteInside {
			t.Fatalf("Contains(%v, %v) = %v, want %v", y, x, got, bruteInside)
		}
	}
}

func TestSetOpsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 2000; trial++ {
		x := randList(rng, 100, 6)
		y := randList(rng, 100, 6)
		xs, ys := cellSet(x), cellSet(y)

		var wantU, wantI []uint64
		for c := uint64(0); c < 120; c++ {
			if xs[c] || ys[c] {
				wantU = append(wantU, c)
			}
			if xs[c] && ys[c] {
				wantI = append(wantI, c)
			}
		}
		if got := Union(x, y).Cells(); !equalCells(got, wantU) {
			t.Fatalf("Union(%v,%v) = %v, want %v", x, y, got, wantU)
		}
		gi := Intersect(x, y)
		if !gi.IsValid() {
			t.Fatalf("Intersect produced invalid list %v", gi)
		}
		if got := gi.Cells(); !equalCells(got, wantI) {
			t.Fatalf("Intersect(%v,%v) = %v, want %v", x, y, got, wantI)
		}
	}
}

func equalCells(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRelationAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		x := randList(rng, 80, 6)
		y := randList(rng, 80, 6)
		if Match(x, y) && (!Inside(x, y) || !Contains(x, y)) {
			t.Fatalf("match must imply inside and contains: %v %v", x, y)
		}
		if Inside(x, y) && len(x) > 0 && !Overlap(x, y) {
			t.Fatalf("non-empty inside must imply overlap: %v %v", x, y)
		}
		if Inside(x, y) && Contains(x, y) && !Match(x, y) {
			t.Fatalf("inside+contains must imply match: %v %v", x, y)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 500; trial++ {
		l := randList(rng, 1_000_000, 20)
		buf := l.AppendEncode(nil)
		if len(buf) != l.EncodedSize() {
			t.Fatalf("EncodedSize mismatch")
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if len(l) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("round trip: got %v, want %v", got, l)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty buffer should fail")
	}
	// Header says 3 intervals but data is truncated.
	buf := List{{1, 5}, {9, 12}, {20, 21}}.AppendEncode(nil)
	if _, _, err := Decode(buf[:len(buf)-2]); err == nil {
		t.Error("truncated buffer should fail")
	}
}
