package overset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/coords"
	"repro/internal/field"
	"repro/internal/grid"
)

// physCart returns the physical (Yin-frame) Cartesian position of a
// node at spherical (r, theta, phi) in the given panel's own frame.
func physCart(panel grid.Panel, r, theta, phi float64) coords.Cartesian {
	c := coords.Spherical{R: r, Theta: theta, Phi: phi}.ToCartesian()
	if panel == grid.Yang {
		c = coords.YinYang(c)
	}
	return c
}

// fillGlobalScalar fills a panel field with a globally defined function of
// physical Cartesian position.
func fillGlobalScalar(p *grid.Patch, f *field.Scalar, fn func(coords.Cartesian) float64) {
	nr, nt, np := p.Padded()
	for k := 0; k < np; k++ {
		for j := 0; j < nt; j++ {
			for i := 0; i < nr; i++ {
				f.Set(i, j, k, fn(physCart(p.Panel, p.R[i], p.Theta[j], p.Phi[k])))
			}
		}
	}
}

// fillGlobalVector fills a panel vector field with the local spherical
// components of a globally defined Cartesian vector field.
func fillGlobalVector(p *grid.Patch, v *field.Vector, fn func(coords.Cartesian) coords.Cartesian) {
	nr, nt, np := p.Padded()
	for k := 0; k < np; k++ {
		for j := 0; j < nt; j++ {
			for i := 0; i < nr; i++ {
				w := fn(physCart(p.Panel, p.R[i], p.Theta[j], p.Phi[k]))
				if p.Panel == grid.Yang {
					w = coords.YinYang(w) // express in the Yang frame
				}
				s := coords.CartToSphVec(p.Theta[j], p.Phi[k], w)
				v.R.Set(i, j, k, s.VR)
				v.T.Set(i, j, k, s.VT)
				v.P.Set(i, j, k, s.VP)
			}
		}
	}
}

func testF(c coords.Cartesian) float64 {
	return math.Sin(2*c.X) * math.Cos(c.Y) * (1 + c.Z*c.Z)
}

func testW(c coords.Cartesian) coords.Cartesian {
	return coords.Cartesian{
		X: c.Y + math.Sin(c.Z),
		Y: c.X*c.X - c.Z,
		Z: math.Cos(c.X) * c.Y,
	}
}

func TestRimNodes(t *testing.T) {
	s := grid.NewSpec(5, 9)
	nodes := RimNodes(s)
	want := 2*s.Np + 2*(s.Nt-2)
	if len(nodes) != want {
		t.Fatalf("rim nodes = %d, want %d", len(nodes), want)
	}
	seen := map[NodeID]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("duplicate rim node %+v", n)
		}
		seen[n] = true
		if n.J != 0 && n.J != s.Nt-1 && n.K != 0 && n.K != s.Np-1 {
			t.Fatalf("non-rim node %+v", n)
		}
	}
}

func TestPlanWeights(t *testing.T) {
	s := grid.NewSpec(5, 17)
	plan, err := NewPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Targets) != len(RimNodes(s)) {
		t.Fatalf("targets = %d", len(plan.Targets))
	}
	for _, tg := range plan.Targets {
		sum := tg.W[0] + tg.W[1] + tg.W[2] + tg.W[3]
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("weights of %+v sum to %v", tg.Recv, sum)
		}
		// Weights are in [0,1] for interpolation; the isolated one-cell
		// extrapolations at boundary-curve crossings stay within [-1, 2].
		for _, w := range tg.W {
			if w < -1-1e-9 || w > 2+1e-9 {
				t.Fatalf("weight %v out of range for %+v", w, tg.Recv)
			}
		}
		// Donor cells never touch the partner rim (explicit exchange).
		if tg.DJ < 1 || tg.DJ > s.Nt-3 || tg.DK < 1 || tg.DK > s.Np-3 {
			t.Fatalf("donor cell (%d,%d) touches partner rim", tg.DJ, tg.DK)
		}
	}
}

func TestPlanRejectsInvalidSpec(t *testing.T) {
	if _, err := NewPlan(grid.Spec{Nr: 1, Nt: 1, Np: 1, RI: 0.3, RO: 1}); err == nil {
		t.Error("expected error for invalid spec")
	}
}

// rimErrScalar fills both panels with testF, poisons the rims, exchanges,
// and returns the max abs rim error against the analytic value.
func rimErrScalar(nt int) float64 {
	s := grid.NewSpec(5, nt)
	yinP := grid.NewPatch(s, grid.Yin, 1)
	yangP := grid.NewPatch(s, grid.Yang, 1)
	yin := yinP.NewScalar()
	yang := yangP.NewScalar()
	fillGlobalScalar(yinP, yin, testF)
	fillGlobalScalar(yangP, yang, testF)

	plan, err := NewPlan(s)
	if err != nil {
		panic(err)
	}
	e := NewExchanger(plan, 1)
	h := 1
	for _, tg := range plan.Targets {
		for i := range yin.Row(tg.Recv.J+h, tg.Recv.K+h) {
			yin.Row(tg.Recv.J+h, tg.Recv.K+h)[i] = 1e9
			yang.Row(tg.Recv.J+h, tg.Recv.K+h)[i] = -1e9
		}
	}
	e.ExchangeScalar(yin, yang)

	var m float64
	for _, tg := range plan.Targets {
		j, k := tg.Recv.J+h, tg.Recv.K+h
		for i := h; i < h+s.Nr; i++ {
			for _, pair := range []struct {
				p *grid.Patch
				f *field.Scalar
			}{{yinP, yin}, {yangP, yang}} {
				want := testF(physCart(pair.p.Panel, pair.p.R[i], pair.p.Theta[j], pair.p.Phi[k]))
				if err := math.Abs(pair.f.At(i, j, k) - want); err > m {
					m = err
				}
			}
		}
	}
	return m
}

func TestExchangeScalarAccuracy(t *testing.T) {
	e1 := rimErrScalar(17)
	e2 := rimErrScalar(33)
	if e1 > 0.1 {
		t.Errorf("rim error too large at nt=17: %g", e1)
	}
	if rate := math.Log2(e1 / e2); rate < 1.6 {
		t.Errorf("scalar rim convergence rate %.2f (%g -> %g)", rate, e1, e2)
	}
}

func rimErrVector(nt int) float64 {
	s := grid.NewSpec(5, nt)
	yinP := grid.NewPatch(s, grid.Yin, 1)
	yangP := grid.NewPatch(s, grid.Yang, 1)
	yin := yinP.NewVector()
	yang := yangP.NewVector()
	fillGlobalVector(yinP, yin, testW)
	fillGlobalVector(yangP, yang, testW)

	plan, err := NewPlan(s)
	if err != nil {
		panic(err)
	}
	e := NewExchanger(plan, 1)
	h := 1
	for _, tg := range plan.Targets {
		for _, f := range []*field.Vector{yin, yang} {
			for _, c := range f.Components() {
				row := c.Row(tg.Recv.J+h, tg.Recv.K+h)
				for i := range row {
					row[i] = 1e9
				}
			}
		}
	}
	e.ExchangeVector(yin, yang)

	var m float64
	for _, tg := range plan.Targets {
		j, k := tg.Recv.J+h, tg.Recv.K+h
		for i := h; i < h+s.Nr; i++ {
			for _, pair := range []struct {
				p *grid.Patch
				v *field.Vector
			}{{yinP, yin}, {yangP, yang}} {
				w := testW(physCart(pair.p.Panel, pair.p.R[i], pair.p.Theta[j], pair.p.Phi[k]))
				if pair.p.Panel == grid.Yang {
					w = coords.YinYang(w)
				}
				want := coords.CartToSphVec(pair.p.Theta[j], pair.p.Phi[k], w)
				for _, d := range []float64{
					pair.v.R.At(i, j, k) - want.VR,
					pair.v.T.At(i, j, k) - want.VT,
					pair.v.P.At(i, j, k) - want.VP,
				} {
					if e := math.Abs(d); e > m {
						m = e
					}
				}
			}
		}
	}
	return m
}

// TestExchangeVectorAccuracy: interpolated and frame-rotated vector rim
// values converge to the analytic field at second order.
func TestExchangeVectorAccuracy(t *testing.T) {
	e1 := rimErrVector(17)
	e2 := rimErrVector(33)
	if e1 > 0.1 {
		t.Errorf("vector rim error too large at nt=17: %g", e1)
	}
	if rate := math.Log2(e1 / e2); rate < 1.6 {
		t.Errorf("vector rim convergence rate %.2f (%g -> %g)", rate, e1, e2)
	}
}

// TestExchangeSymmetry: the Yin->Yang direction is computed by exactly
// the same plan as Yang->Yin, so swapping the panel arguments swaps the
// results.
func TestExchangeSymmetry(t *testing.T) {
	s := grid.NewSpec(5, 17)
	yinP := grid.NewPatch(s, grid.Yin, 1)
	yangP := grid.NewPatch(s, grid.Yang, 1)
	a1 := yinP.NewScalar()
	b1 := yangP.NewScalar()
	fillGlobalScalar(yinP, a1, testF)
	fillGlobalScalar(yangP, b1, func(c coords.Cartesian) float64 { return c.X - 2*c.Y + c.Z*c.X })
	a2 := a1.Clone()
	b2 := b1.Clone()

	plan, _ := NewPlan(s)
	e := NewExchanger(plan, 1)
	e.ExchangeScalar(a1, b1)
	e.ExchangeScalar(b2, a2) // swapped
	for i := range a1.Data {
		if a1.Data[i] != a2.Data[i] || b1.Data[i] != b2.Data[i] {
			t.Fatal("exchange is order-dependent")
		}
	}
}

// TestExchangeDoesNotTouchInterior: only rim columns may change.
func TestExchangeDoesNotTouchInterior(t *testing.T) {
	s := grid.NewSpec(5, 17)
	yinP := grid.NewPatch(s, grid.Yin, 1)
	yangP := grid.NewPatch(s, grid.Yang, 1)
	yin := yinP.NewScalar()
	yang := yangP.NewScalar()
	fillGlobalScalar(yinP, yin, testF)
	fillGlobalScalar(yangP, yang, testF)
	yinBefore := yin.Clone()

	plan, _ := NewPlan(s)
	e := NewExchanger(plan, 1)
	e.ExchangeScalar(yin, yang)

	h := 1
	for k := h + 1; k < h+s.Np-1; k++ {
		for j := h + 1; j < h+s.Nt-1; j++ {
			for i := 0; i < s.Nr+2; i++ {
				if yin.At(i, j, k) != yinBefore.At(i, j, k) {
					t.Fatalf("interior value changed at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// TestInterpAtExactOnBilinear: the interpolant reproduces functions that
// are linear in theta and phi exactly.
func TestInterpAtExactOnBilinear(t *testing.T) {
	s := grid.NewSpec(5, 17)
	p := grid.NewPatch(s, grid.Yin, 1)
	f := p.NewScalar()
	fn := func(theta, phi float64) float64 { return 2*theta - 3*phi + theta*phi }
	nr, nt, np := p.Padded()
	for k := 0; k < np; k++ {
		for j := 0; j < nt; j++ {
			for i := 0; i < nr; i++ {
				f.Set(i, j, k, fn(p.Theta[j], p.Phi[k]))
			}
		}
	}
	for _, pt := range [][2]float64{
		{grid.ThetaMin + 0.3, grid.PhiMin + 0.7},
		{grid.ThetaMax - 0.01, grid.PhiMax - 0.02},
		{math.Pi / 2, 0},
	} {
		got := InterpAt(p, f, pt[0], pt[1], 2)
		want := fn(pt[0], pt[1])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("InterpAt(%v,%v) = %v, want %v", pt[0], pt[1], got, want)
		}
	}
}

// TestDoubleSolutionConsistency: in the overlap region the Yin and Yang
// grids both carry a solution; for a smooth global field sampled onto both
// panels, sampling one panel at the other's node locations agrees within
// discretization error (the paper's "double solution causes no problem").
func TestDoubleSolutionConsistency(t *testing.T) {
	s := grid.NewSpec(5, 33)
	yinP := grid.NewPatch(s, grid.Yin, 1)
	yangP := grid.NewPatch(s, grid.Yang, 1)
	yin := yinP.NewScalar()
	yang := yangP.NewScalar()
	fillGlobalScalar(yinP, yin, testF)
	fillGlobalScalar(yangP, yang, testF)

	h := 1
	var m float64
	count := 0
	for k := h; k < h+s.Np; k++ {
		for j := h; j < h+s.Nt; j++ {
			// Yang-frame angles of this Yin node.
			td, pd := coords.YinYangAngles(yinP.Theta[j], yinP.Phi[k])
			if !grid.Contains(td, pd, 0) {
				continue // not in the overlap
			}
			count++
			got := InterpAt(yangP, yang, td, pd, 3)
			want := yin.At(3, j, k)
			if e := math.Abs(got - want); e > m {
				m = e
			}
		}
	}
	if count == 0 {
		t.Fatal("no overlap points found")
	}
	if m > 5e-3 {
		t.Errorf("double-solution disagreement %g over %d overlap nodes", m, count)
	}
}

// TestTargetPropertiesQuick: for random panel resolutions, every rim
// target's weights sum to 1, donors stay off the partner rim, and the
// tangential rotation is orthogonal.
func TestTargetPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		nt := 9 + int(uint64(seed)%40)*2 // odd-ish sizes 9..89
		s := grid.NewSpec(5, nt)
		for _, n := range RimNodes(s) {
			tg, err := MakeTarget(s, n)
			if err != nil {
				return false
			}
			sum := tg.W[0] + tg.W[1] + tg.W[2] + tg.W[3]
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			if tg.DJ < 1 || tg.DJ > s.Nt-3 || tg.DK < 1 || tg.DK > s.Np-3 {
				return false
			}
			det := tg.Rot.Ctt*tg.Rot.Cpp - tg.Rot.Ctp*tg.Rot.Cpt
			if math.Abs(math.Abs(det)-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
