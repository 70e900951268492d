package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadOrder(t *testing.T) {
	for _, o := range []uint{0, 32, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", o)
				}
			}()
			New(o)
		}()
	}
}

func TestAccessors(t *testing.T) {
	c := New(4)
	if c.Order() != 4 || c.Side() != 16 || c.NumCells() != 256 {
		t.Errorf("order=%d side=%d cells=%d", c.Order(), c.Side(), c.NumCells())
	}
}

// TestOrder1 checks the base case against the canonical U-shape.
func TestOrder1(t *testing.T) {
	c := New(1)
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {0, 1}: 1, {1, 1}: 2, {1, 0}: 3,
	}
	for xy, d := range want {
		if got := c.D(xy[0], xy[1]); got != d {
			t.Errorf("D(%d,%d) = %d, want %d", xy[0], xy[1], got, d)
		}
		x, y := c.XY(d)
		if x != xy[0] || y != xy[1] {
			t.Errorf("XY(%d) = (%d,%d), want (%d,%d)", d, x, y, xy[0], xy[1])
		}
	}
}

// TestBijectionSmall exhaustively checks D∘XY = id and adjacency (the curve
// visits cells so consecutive ids are 4-neighbours) for small orders.
func TestBijectionSmall(t *testing.T) {
	for order := uint(1); order <= 6; order++ {
		c := New(order)
		px, py := c.XY(0)
		seen := make(map[uint64]bool, c.NumCells())
		for d := uint64(0); d < c.NumCells(); d++ {
			x, y := c.XY(d)
			if back := c.D(x, y); back != d {
				t.Fatalf("order %d: D(XY(%d)) = %d", order, d, back)
			}
			if seen[uint64(x)<<32|uint64(y)] {
				t.Fatalf("order %d: cell (%d,%d) visited twice", order, x, y)
			}
			seen[uint64(x)<<32|uint64(y)] = true
			if d > 0 {
				dx, dy := int64(x)-int64(px), int64(y)-int64(py)
				if dx*dx+dy*dy != 1 {
					t.Fatalf("order %d: ids %d,%d not adjacent", order, d-1, d)
				}
			}
			px, py = x, y
		}
	}
}

// TestBijection16 spot-checks the paper's 2^16 grid with random cells.
func TestBijection16(t *testing.T) {
	c := New(16)
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		x := uint32(rng.Intn(int(c.Side())))
		y := uint32(rng.Intn(int(c.Side())))
		d := c.D(x, y)
		if d >= c.NumCells() {
			return false
		}
		bx, by := c.XY(d)
		return bx == x && by == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestLocality checks the defining property that motivates Hilbert
// enumeration: nearby cells get nearer ids, on average, than under
// row-major order.
func TestLocality(t *testing.T) {
	c := New(10)
	rng := rand.New(rand.NewSource(8))
	var hilbertSum, rowMajorSum float64
	const n = 3000
	for i := 0; i < n; i++ {
		x := uint32(rng.Intn(int(c.Side() - 1)))
		y := uint32(rng.Intn(int(c.Side())))
		d1 := c.D(x, y)
		d2 := c.D(x+1, y)
		abs := func(a, b uint64) float64 {
			if a > b {
				return float64(a - b)
			}
			return float64(b - a)
		}
		hilbertSum += abs(d1, d2)
		r1 := uint64(y)*uint64(c.Side()) + uint64(x)
		r2 := uint64(y)*uint64(c.Side()) + uint64(x) + 1
		rowMajorSum += abs(r1, r2)
	}
	_ = rowMajorSum // horizontal neighbours are trivially adjacent row-major
	// Vertical neighbours: Hilbert should beat row-major by a wide margin.
	var hv, rv float64
	for i := 0; i < n; i++ {
		x := uint32(rng.Intn(int(c.Side())))
		y := uint32(rng.Intn(int(c.Side() - 1)))
		hv += absDiff(c.D(x, y), c.D(x, y+1))
		rv += float64(c.Side())
	}
	if hv >= rv {
		t.Errorf("hilbert vertical locality %.0f not better than row-major %.0f", hv, rv)
	}
}

func absDiff(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}

// TestHierarchicalNesting verifies the property the APRIL builder's
// quadrant descent relies on: the order-k cell containing a point
// occupies one contiguous id range of the order-o curve, obtained by bit
// shifting.
func TestHierarchicalNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, pair := range [][2]uint{{3, 6}, {5, 9}, {8, 16}} {
		k, o := pair[0], pair[1]
		ck, co := New(k), New(o)
		shift := 2 * (o - k)
		f := func() bool {
			x := uint32(rng.Intn(int(co.Side())))
			y := uint32(rng.Intn(int(co.Side())))
			fine := co.D(x, y)
			coarse := ck.D(x>>(o-k), y>>(o-k))
			return fine>>shift == coarse
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
			t.Errorf("orders %d/%d: %v", k, o, err)
		}
	}
}
