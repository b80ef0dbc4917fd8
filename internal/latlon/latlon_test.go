package latlon

import (
	"math"
	"testing"

	"repro/internal/coords"
)

func TestNewSurfaceGridValidation(t *testing.T) {
	if _, err := NewSurfaceGrid(3, 8); err == nil {
		t.Error("tiny nt accepted")
	}
	if _, err := NewSurfaceGrid(8, 7); err == nil {
		t.Error("odd np accepted")
	}
	g, err := NewSurfaceGrid(16, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Offset rows: no node on a pole.
	if g.Theta[0] <= 0 || g.Theta[g.Nt-1] >= math.Pi {
		t.Errorf("pole node present: %v .. %v", g.Theta[0], g.Theta[g.Nt-1])
	}
}

// lapErr measures the max Laplacian error for an eigenfunction f with
// lap f = -l(l+1) f on the unit sphere, over rows [jlo*Nt, jhi*Nt).
func lapErr(t *testing.T, nt int, fn func(th, ph float64) float64, l int, jlo, jhi float64) float64 {
	t.Helper()
	g, err := NewSurfaceGrid(nt, 2*nt)
	if err != nil {
		t.Fatal(err)
	}
	f := g.NewField()
	out := g.NewField()
	for j := 0; j < g.Nt; j++ {
		for k := 0; k < g.Np; k++ {
			f[j*g.Np+k] = fn(g.Theta[j], (float64(k)*g.Dp - math.Pi))
		}
	}
	g.Laplacian(f, out)
	lam := -float64(l * (l + 1))
	var m float64
	for j := int(jlo * float64(g.Nt)); j < int(jhi*float64(g.Nt)); j++ {
		for k := 0; k < g.Np; k++ {
			if e := math.Abs(out[j*g.Np+k] - lam*f[j*g.Np+k]); e > m {
				m = e
			}
		}
	}
	return m
}

// TestLaplacianEigenfunctions: spherical harmonics are eigenfunctions of
// the surface Laplacian; away from the poles the discrete operator
// converges to the eigenvalue at second order.
func TestLaplacianEigenfunctions(t *testing.T) {
	cases := []struct {
		name string
		fn   func(th, ph float64) float64
		l    int
	}{
		{"Y10", func(th, ph float64) float64 { return math.Cos(th) }, 1},
		{"Y11", func(th, ph float64) float64 { return math.Sin(th) * math.Cos(ph) }, 1},
		{"Y20", func(th, ph float64) float64 { return 1.5*math.Cos(th)*math.Cos(th) - 0.5 }, 2},
	}
	for _, c := range cases {
		e1 := lapErr(t, 24, c.fn, c.l, 0.25, 0.75)
		e2 := lapErr(t, 48, c.fn, c.l, 0.25, 0.75)
		if rate := math.Log2(e1 / e2); rate < 1.6 {
			t.Errorf("%s: mid-latitude convergence rate %.2f (%g -> %g)", c.name, rate, e1, e2)
		}
	}
}

// TestPoleAccuracyDegradation reproduces the paper's complaint about the
// lat-lon grid: for longitude-dependent fields the cot(theta) metric
// factor at the near-pole rows amplifies the truncation error, degrading
// the Laplacian to first order there, while mid-latitudes stay second
// order. (The Yin-Yang patch has no such rows: sin(theta) >= sin(pi/4).)
func TestPoleAccuracyDegradation(t *testing.T) {
	y11 := func(th, ph float64) float64 { return math.Sin(th) * math.Cos(ph) }
	polar1 := lapErr(t, 24, y11, 1, 0, 0.1)
	polar2 := lapErr(t, 48, y11, 1, 0, 0.1)
	polarRate := math.Log2(polar1 / polar2)
	if polarRate > 1.5 {
		t.Errorf("near-pole rate %.2f: expected first-order degradation", polarRate)
	}
	mid2 := lapErr(t, 48, y11, 1, 0.25, 0.75)
	if polar2 < 4*mid2 {
		t.Errorf("near-pole error %g not dominating mid-latitude error %g", polar2, mid2)
	}
}

// TestDiffusionDecayLatLon: Y10 decays like exp(-l(l+1) kappa t).
func TestDiffusionDecayLatLon(t *testing.T) {
	g, _ := NewSurfaceGrid(32, 64)
	const kappa = 0.05
	s := NewHeatSolver(g, kappa, 0)
	s.SetFromFunc(func(th, ph float64) float64 { return math.Cos(th) })
	dt := g.MaxStableDt(kappa, 0) * 0.5
	steps := 200
	for n := 0; n < steps; n++ {
		s.Step(dt)
	}
	tEnd := float64(steps) * dt
	want := math.Exp(-2 * kappa * tEnd)
	// Amplitude at the first row.
	got := s.F[0] / math.Cos(g.Theta[0])
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("decay factor %v, want %v", got, want)
	}
}

// TestDiffusionDecayYinYang: the same eigen-decay on the overset pair.
func TestDiffusionDecayYinYang(t *testing.T) {
	const kappa = 0.05
	s, err := NewYYSurface(33, kappa, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFromGlobalFunc(func(c coords.Cartesian) float64 { return c.Z })
	dt := s.MaxStableDt(kappa, 0) * 0.5
	steps := 200
	for n := 0; n < steps; n++ {
		s.Step(dt)
	}
	tEnd := float64(steps) * dt
	want := math.Exp(-2 * kappa * tEnd)
	// Sample at a mid-latitude point: f = z * decay.
	th, ph := 1.0, 0.7
	got := s.SampleAt(th, ph) / math.Cos(th)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("decay factor %v, want %v", got, want)
	}
}

// TestSolidRotationAdvection: with kappa = 0 and unit rotation, the
// pattern sin(theta) cos(phi - t) translates in longitude. Verified on
// both grids.
func TestSolidRotationAdvection(t *testing.T) {
	const tEnd = 0.3

	// Lat-lon grid.
	g, _ := NewSurfaceGrid(48, 96)
	s := NewHeatSolver(g, 0, 1)
	s.SetFromFunc(func(th, ph float64) float64 { return math.Sin(th) * math.Cos(ph) })
	dt := g.MaxStableDt(0, 1) * 0.4
	steps := int(math.Ceil(tEnd / dt))
	dt = tEnd / float64(steps)
	for n := 0; n < steps; n++ {
		s.Step(dt)
	}
	var m float64
	for j := 0; j < g.Nt; j++ {
		for k := 0; k < g.Np; k++ {
			want := math.Sin(g.Theta[j]) * math.Cos((float64(k)*g.Dp-math.Pi)-tEnd)
			if e := math.Abs(s.F[j*g.Np+k] - want); e > m {
				m = e
			}
		}
	}
	if m > 5e-3 {
		t.Errorf("lat-lon advection error %g", m)
	}

	// Yin-Yang pair.
	yy, err := NewYYSurface(49, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	yy.SetFromGlobalFunc(func(c coords.Cartesian) float64 { return c.X })
	dtY := yy.MaxStableDt(0, 1) * 0.4
	stepsY := int(math.Ceil(tEnd / dtY))
	dtY = tEnd / float64(stepsY)
	for n := 0; n < stepsY; n++ {
		yy.Step(dtY)
	}
	var mY float64
	for _, pt := range [][2]float64{{1.2, 0.3}, {0.9, -2.0}, {1.6, 2.5}, {2.2, 0.0}} {
		want := math.Sin(pt[0]) * math.Cos(pt[1]-tEnd)
		if e := math.Abs(yy.SampleAt(pt[0], pt[1]) - want); e > mY {
			mY = e
		}
	}
	if mY > 5e-3 {
		t.Errorf("yin-yang advection error %g", mY)
	}
}

// TestCrossGridAgreement: both discretizations of the same equation
// agree on the evolved solution of a smooth initial condition.
func TestCrossGridAgreement(t *testing.T) {
	const kappa, adv, tEnd = 0.02, 0.5, 0.4
	ic := func(c coords.Cartesian) float64 {
		return c.X*c.Z + 0.5*c.Y + 0.3*math.Sin(2*c.X)
	}
	g, _ := NewSurfaceGrid(48, 96)
	ll := NewHeatSolver(g, kappa, adv)
	ll.SetFromFunc(func(th, ph float64) float64 {
		return ic(coords.Spherical{R: 1, Theta: th, Phi: ph}.ToCartesian())
	})
	dt := g.MaxStableDt(kappa, adv) * 0.4
	steps := int(math.Ceil(tEnd / dt))
	dt = tEnd / float64(steps)
	for n := 0; n < steps; n++ {
		ll.Step(dt)
	}

	yy, err := NewYYSurface(49, kappa, adv)
	if err != nil {
		t.Fatal(err)
	}
	yy.SetFromGlobalFunc(ic)
	dtY := yy.MaxStableDt(kappa, adv) * 0.4
	stepsY := int(math.Ceil(tEnd / dtY))
	dtY = tEnd / float64(stepsY)
	for n := 0; n < stepsY; n++ {
		yy.Step(dtY)
	}

	var m, scale float64
	for j := 2; j < g.Nt-2; j += 3 {
		for k := 0; k < g.Np; k += 3 {
			a := ll.F[j*g.Np+k]
			b := yy.SampleAt(g.Theta[j], (float64(k)*g.Dp - math.Pi))
			if e := math.Abs(a - b); e > m {
				m = e
			}
			if s := math.Abs(a); s > scale {
				scale = s
			}
		}
	}
	if m/scale > 0.02 {
		t.Errorf("cross-grid disagreement %g (relative %g)", m, m/scale)
	}
}

// TestPoleCFLAblation: the lat-lon grid's stable time step collapses
// with resolution (dphi*sin(theta_first) ~ dtheta*dphi) while the
// Yin-Yang pair's shrinks only linearly — the paper's core argument.
func TestPoleCFLAblation(t *testing.T) {
	ratioAt := func(nt int) float64 {
		g, err := NewSurfaceGrid(nt, 2*nt)
		if err != nil {
			t.Fatal(err)
		}
		yy, err := NewYYSurface(nt/2+1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		const kappa = 0.01
		return yy.MaxStableDt(kappa, 1) / g.MaxStableDt(kappa, 1)
	}
	r1 := ratioAt(32)
	r2 := ratioAt(128)
	if r1 < 2 {
		t.Errorf("Yin-Yang dt advantage only %.2fx at nt=32", r1)
	}
	if r2 < 3*r1 {
		t.Errorf("dt advantage should grow with resolution: %.1fx -> %.1fx", r1, r2)
	}
}

// TestStabilityAtLimit: stepping the lat-lon solver just below its
// stability estimate stays bounded; stepping well above it blows up.
// This validates that MaxStableDt is a real boundary, not a guess.
func TestStabilityAtLimit(t *testing.T) {
	run := func(factor float64) float64 {
		g, _ := NewSurfaceGrid(24, 48)
		const kappa = 0.05
		s := NewHeatSolver(g, kappa, 0)
		s.SetFromFunc(func(th, ph float64) float64 {
			return math.Sin(3*th) * math.Cos(4*ph)
		})
		dt := g.MaxStableDt(kappa, 0) * factor
		for n := 0; n < 120; n++ {
			s.Step(dt)
		}
		var m float64
		for _, v := range s.F {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	if m := run(0.6); m > 1.5 || math.IsNaN(m) {
		t.Errorf("stable run diverged: %g", m)
	}
	if m := run(8.0); !(m > 1e3 || math.IsNaN(m)) {
		t.Errorf("unstable run did not diverge: %g", m)
	}
}

// TestGridEconomy: the lat-lon grid spends more nodes than the Yin-Yang
// pair at matched angular spacing (about 1.26x in the continuum; the
// discrete ratio depends on rounding).
func TestGridEconomy(t *testing.T) {
	yy, err := NewYYSurface(65, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Matched spacing lat-lon grid.
	nt := int(math.Round(math.Pi / yy.Dt))
	np := int(math.Round(2 * math.Pi / yy.Dp))
	if np%2 == 1 {
		np++
	}
	g, err := NewSurfaceGrid(nt, np)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(g.Nt*g.Np) / float64(2*yy.Nt*yy.Np)
	if ratio < 1.1 || ratio > 1.45 {
		t.Errorf("node ratio = %.3f, want about 1.26", ratio)
	}
}
