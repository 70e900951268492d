package interval

import "testing"

const maxID = ^uint64(0)

// The top of the cell-id space is the classic half-open-interval trap:
// an interval covering id 2^64-1 would need End = 2^64, which overflows
// to 0 and turns the interval invisible to every merge-join relation.
// FromCells therefore reserves the top id and panics instead of
// producing a silently-empty list.
func TestFromCellsReservedTopID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromCells(^uint64(0)) did not panic")
		}
	}()
	FromCells([]uint64{maxID})
}

func TestFromCellsReservedTopIDAmongOthers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromCells with a reserved id did not panic")
		}
	}()
	FromCells([]uint64{1, 2, maxID, 3})
}

// Ids right below the reserved top must round-trip exactly: End saturates
// at the maximum representable value without overflowing.
func TestFromCellsTopOfRange(t *testing.T) {
	l := FromCells([]uint64{maxID - 1, maxID - 2, maxID - 2, maxID - 5})
	if !l.IsValid() {
		t.Fatalf("list not normalized: %v", l)
	}
	want := List{{maxID - 5, maxID - 4}, {maxID - 2, maxID}}
	if len(l) != len(want) {
		t.Fatalf("got %v, want %v", l, want)
	}
	for i := range want {
		if l[i] != want[i] {
			t.Fatalf("got %v, want %v", l, want)
		}
	}
	if !l.ContainsCell(maxID-1) || !l.ContainsCell(maxID-2) || l.ContainsCell(maxID-3) {
		t.Fatalf("membership wrong near top: %v", l)
	}
	if n := l.NumCells(); n != 3 {
		t.Fatalf("NumCells = %d, want 3", n)
	}
}

// Relations on lists whose End is the maximum representable value.
func TestRelationsAtTopOfRange(t *testing.T) {
	top := List{{maxID - 4, maxID}}
	sub := List{{maxID - 2, maxID - 1}}
	below := List{{0, 4}}
	if !Overlap(top, sub) || !Overlap(sub, top) {
		t.Error("Overlap failed at top of range")
	}
	if Overlap(top, below) {
		t.Error("Overlap(top, below) = true")
	}
	if !Inside(sub, top) || Inside(top, sub) {
		t.Error("Inside wrong at top of range")
	}
	if !Contains(top, sub) || Contains(sub, top) {
		t.Error("Contains wrong at top of range")
	}
	if !Match(top, top.Clone()) || Match(top, sub) {
		t.Error("Match wrong at top of range")
	}
	if got := Union(top, sub); len(got) != 1 || got[0] != top[0] {
		t.Errorf("Union = %v, want %v", got, top)
	}
	if got := Intersect(top, sub); len(got) != 1 || got[0] != sub[0] {
		t.Errorf("Intersect = %v, want %v", got, sub)
	}
}

// A skewed pair at the top of the range, so the kernels seek there too,
// in both argument orders: 40 unit runs whose last one ends at the
// maximum representable value.
func TestSkewedRelationsAtTopOfRange(t *testing.T) {
	var long List
	for i := uint64(40); i > 0; i-- {
		long = append(long, Interval{maxID - 2*i + 1, maxID - 2*i + 2})
	}
	if !long.IsValid() || long[len(long)-1].End != maxID {
		t.Fatalf("bad fixture %v", long)
	}
	last := List{{maxID - 1, maxID}}
	gap := List{{maxID - 2, maxID - 1}}
	straddle := List{{maxID - 3, maxID}}
	cases := []struct {
		name            string
		x               List
		overlap, inside bool
	}{
		{"last run", last, true, true},
		{"last gap", gap, false, false},
		{"straddle", straddle, true, false},
	}
	for _, c := range cases {
		if got := Overlap(c.x, long); got != c.overlap {
			t.Errorf("Overlap(%s, long) = %v, want %v", c.name, got, c.overlap)
		}
		if got := Overlap(long, c.x); got != c.overlap {
			t.Errorf("Overlap(long, %s) = %v, want %v", c.name, got, c.overlap)
		}
		if got := Inside(c.x, long); got != c.inside {
			t.Errorf("Inside(%s, long) = %v, want %v", c.name, got, c.inside)
		}
		if got := Contains(long, c.x); got != c.inside {
			t.Errorf("Contains(long, %s) = %v, want %v", c.name, got, c.inside)
		}
		if got := Inside(long, c.x); got {
			t.Errorf("Inside(long, %s) = true", c.name)
		}
	}
}

func TestNormalizeTopOfRange(t *testing.T) {
	got := Normalize([]Interval{{maxID - 2, maxID}, {maxID - 5, maxID - 1}})
	if len(got) != 1 || got[0] != (Interval{maxID - 5, maxID}) {
		t.Fatalf("Normalize = %v", got)
	}
}

// Empty lists denote empty cell sets; the four merge-join relations must
// follow set semantics on them. These were audited rather than fixed —
// the table pins the behavior so it cannot regress.
func TestRelationsEmptyLists(t *testing.T) {
	some := List{{3, 7}}
	cases := []struct {
		name string
		got  bool
		want bool
	}{
		{"Overlap(∅,∅)", Overlap(nil, nil), false},
		{"Overlap(∅,y)", Overlap(nil, some), false},
		{"Overlap(x,∅)", Overlap(some, nil), false},
		{"Match(∅,∅)", Match(nil, nil), true},
		{"Match(∅,y)", Match(nil, some), false},
		{"Match(x,∅)", Match(some, nil), false},
		{"Inside(∅,∅)", Inside(nil, nil), true},
		{"Inside(∅,y)", Inside(nil, some), true},
		{"Inside(x,∅)", Inside(some, nil), false},
		{"Contains(∅,∅)", Contains(nil, nil), true},
		{"Contains(x,∅)", Contains(some, nil), true},
		{"Contains(∅,y)", Contains(nil, some), false},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if got := Union(nil, some); len(got) != 1 || got[0] != some[0] {
		t.Errorf("Union(∅,y) = %v", got)
	}
	if got := Intersect(nil, some); got != nil {
		t.Errorf("Intersect(∅,y) = %v", got)
	}
}
