package field

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testShape() Shape { return Shape{Nr: 8, Nt: 5, Np: 6, H: 1} }

func randomized(s Shape, seed int64) *Scalar {
	f := NewScalar(s)
	r := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = r.NormFloat64()
	}
	return f
}

func TestShapePadded(t *testing.T) {
	s := Shape{Nr: 10, Nt: 4, Np: 3, H: 2}
	nr, nt, np := s.Padded()
	if nr != 14 || nt != 8 || np != 7 {
		t.Errorf("padded = (%d,%d,%d)", nr, nt, np)
	}
	if s.Len() != 14*8*7 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 1, 1, 0}).Valid() {
		t.Error("minimal shape should be valid")
	}
	bad := []Shape{{0, 1, 1, 0}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, -1}}
	for _, s := range bad {
		if s.Valid() {
			t.Errorf("%+v should be invalid", s)
		}
	}
}

func TestNewScalarPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewScalar(Shape{})
}

func TestIdxRadialFastest(t *testing.T) {
	f := NewScalar(testShape())
	// Adjacent radial indices must be adjacent in memory.
	if f.Idx(3, 2, 2)-f.Idx(2, 2, 2) != 1 {
		t.Error("radial index is not unit stride")
	}
	// No two distinct coordinates may alias.
	nr, nt, np := f.Padded()
	seen := make(map[int]bool, f.Len())
	for k := 0; k < np; k++ {
		for j := 0; j < nt; j++ {
			for i := 0; i < nr; i++ {
				id := f.Idx(i, j, k)
				if id < 0 || id >= len(f.Data) || seen[id] {
					t.Fatalf("bad or duplicate index %d at (%d,%d,%d)", id, i, j, k)
				}
				seen[id] = true
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	f := NewScalar(testShape())
	f.Set(4, 3, 2, 7.5)
	if got := f.At(4, 3, 2); got != 7.5 {
		t.Errorf("At = %v", got)
	}
}

func TestRowIsAliased(t *testing.T) {
	f := NewScalar(testShape())
	row := f.Row(2, 3)
	nr, _, _ := f.Padded()
	if len(row) != nr {
		t.Fatalf("row len = %d, want %d", len(row), nr)
	}
	row[5] = 42
	if f.At(5, 2, 3) != 42 {
		t.Error("row mutation not visible through At")
	}
}

func TestCloneIndependent(t *testing.T) {
	f := randomized(testShape(), 1)
	g := f.Clone()
	g.Data[0] += 1
	if f.Data[0] == g.Data[0] {
		t.Error("clone shares storage")
	}
}

func TestAXPY(t *testing.T) {
	f := randomized(testShape(), 2)
	g := randomized(testShape(), 3)
	want := make([]float64, len(f.Data))
	for i := range want {
		want[i] = f.Data[i] + 3*g.Data[i]
	}
	f.AXPY(3, g)
	for i := range want {
		if math.Abs(f.Data[i]-want[i]) > 1e-14 {
			t.Fatalf("AXPY mismatch at %d", i)
		}
	}
}

func TestLinComb(t *testing.T) {
	s := testShape()
	x, y := randomized(s, 4), randomized(s, 5)
	f := NewScalar(s)
	f.LinComb(1.5, x, -0.5, y)
	for i := range f.Data {
		want := 1.5*x.Data[i] - 0.5*y.Data[i]
		if math.Abs(f.Data[i]-want) > 1e-14 {
			t.Fatalf("LinComb mismatch at %d", i)
		}
	}
}

func TestMulQuotInverse(t *testing.T) {
	s := testShape()
	x := randomized(s, 6)
	y := NewScalar(s)
	for i := range y.Data {
		y.Data[i] = 1 + rand.New(rand.NewSource(7)).Float64()
	}
	q := NewScalar(s)
	q.Quot(x, y) // q = x/y
	for i := range q.Data {
		if math.Abs(q.Data[i]*y.Data[i]-x.Data[i]) > 1e-12 {
			t.Fatalf("Quot not the inverse of a product at %d", i)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	f := NewScalar(testShape())
	g := NewScalar(Shape{Nr: 4, Nt: 4, Np: 4, H: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	f.Add(g)
}

func TestInteriorMaxAbs(t *testing.T) {
	f := NewScalar(testShape())
	f.EachInteriorRow(func(i0 int, row []float64) {
		for i := range row {
			row[i] = -2
		}
	})
	f.Set(0, 0, 0, -1e9) // halo value must be ignored
	if got := f.InteriorMaxAbs(); got != 2 {
		t.Errorf("InteriorMaxAbs = %v, want 2", got)
	}
}

func TestEachInteriorRowCoverage(t *testing.T) {
	s := testShape()
	f := NewScalar(s)
	count := 0
	f.EachInteriorRow(func(i0 int, row []float64) {
		count++
		if len(row) != s.Nr {
			t.Fatalf("row len %d", len(row))
		}
	})
	if count != s.Nt*s.Np {
		t.Errorf("rows visited = %d, want %d", count, s.Nt*s.Np)
	}
}

// Property: AXPY with a=0 is identity.
func TestOpIdentities(t *testing.T) {
	f := func(seed int64) bool {
		s := testShape()
		x := randomized(s, seed)
		orig := x.Clone()
		g := randomized(s, seed+1)
		x.AXPY(0, g)
		for i := range x.Data {
			if x.Data[i] != orig.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: LinComb is linear — f = a*x + b*y equals a*(x) plus b*(y)
// computed separately, for random coefficients.
func TestLinCombLinearityQuick(t *testing.T) {
	f := func(a, b float64, seed int64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		s := testShape()
		x, y := randomized(s, seed), randomized(s, seed+9)
		got := NewScalar(s)
		got.LinComb(a, x, b, y)
		for i := range got.Data {
			want := a*x.Data[i] + b*y.Data[i]
			if math.Abs(got.Data[i]-want) > 1e-12*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
