package mhd

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func testSpec() grid.Spec {
	s := grid.NewSpec(13, 13)
	return s
}

func quietParams() Params {
	// Isothermal, non-rotating, gravity-free: the exact equilibrium is
	// rho = p = 1 at rest.
	return Params{Gamma: 5.0 / 3.0, Mu: 2e-3, Kappa: 2e-3, Eta: 2e-3, G0: 0, Omega: 0, TIn: 1}
}

func TestParamsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Gamma: 1, TIn: 2},
		{Gamma: 1.5, Mu: -1, TIn: 2},
		{Gamma: 1.5, TIn: 0},
		{Gamma: 1.5, TIn: 2, G0: -3},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("%+v should be invalid", p)
		}
	}
}

func TestDimensionlessNumbers(t *testing.T) {
	p := Default()
	gap := 0.65
	if e := p.Ekman(gap); e <= 0 || math.IsInf(e, 0) {
		t.Errorf("Ekman = %v", e)
	}
	if ra := p.RayleighEstimate(gap); ra <= 0 {
		t.Errorf("Rayleigh = %v", ra)
	}
	z := Params{Gamma: 5. / 3., TIn: 2}
	if !math.IsInf(z.Ekman(gap), 1) || !math.IsInf(z.RayleighEstimate(gap), 1) {
		t.Error("zero dissipation should give infinite numbers")
	}
}

// TestProfile: the conduction profile satisfies its boundary values and
// hydrostatic balance d(rho T)/dr = -rho g0/r^2.
func TestProfile(t *testing.T) {
	prm := Default()
	pf := NewProfile(prm, 0.35, 1.0)
	if math.Abs(pf.T(0.35)-prm.TIn) > 1e-12 || math.Abs(pf.T(1)-1) > 1e-12 {
		t.Fatalf("T endpoints: %v, %v", pf.T(0.35), pf.T(1))
	}
	if math.Abs(pf.Rho(1)-1) > 1e-12 {
		t.Fatalf("rho(ro) = %v", pf.Rho(1))
	}
	// Hydrostatic residual by a fine central difference of p = rho T.
	for _, r := range []float64{0.45, 0.6, 0.8, 0.95} {
		const dr = 1e-4
		p := func(r float64) float64 { return pf.Rho(r) * pf.T(r) }
		dpdr := (p(r+dr) - p(r-dr)) / (2 * dr)
		want := -pf.Rho(r) * prm.G0 / (r * r)
		if math.Abs(dpdr-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("hydrostatic residual at r=%v: dp/dr=%v want %v", r, dpdr, want)
		}
	}
	// Density increases inward under central gravity.
	if pf.Rho(0.4) <= pf.Rho(0.9) {
		t.Error("density does not increase inward")
	}
}

func TestNewSolverRejectsBadInput(t *testing.T) {
	if _, err := NewSolver(grid.Spec{Nr: 1, Nt: 1, Np: 1, RI: 0.3, RO: 1}, Default(), DefaultIC()); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := NewSolver(testSpec(), Params{Gamma: 0.5, TIn: 2}, DefaultIC()); err == nil {
		t.Error("bad params accepted")
	}
}

// TestQuietEquilibrium: with no perturbation and no driving, the uniform
// state is an exact discrete equilibrium and must not move.
func TestQuietEquilibrium(t *testing.T) {
	ic := InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Modes: 0, Seed: 1}
	sv, err := NewSolver(testSpec(), quietParams(), ic)
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < 5; n++ {
		sv.Advance(dt)
	}
	d := sv.Diagnose()
	if d.MaxV > 1e-12 {
		t.Errorf("quiet state acquired velocity %g", d.MaxV)
	}
	if d.MagneticE != 0 {
		t.Errorf("quiet state acquired magnetic energy %g", d.MagneticE)
	}
}

// TestConductionNearEquilibrium: the stratified conduction state is an
// equilibrium of the continuum equations; discretely it drifts only at
// truncation level.
func TestConductionNearEquilibrium(t *testing.T) {
	prm := Default()
	prm.Omega = 0
	ic := InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Modes: 0, Seed: 1}
	sv, err := NewSolver(testSpec(), prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < 10; n++ {
		sv.Advance(dt)
	}
	if err := sv.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	d := sv.Diagnose()
	// Truncation-driven spurious flow stays far below the convective
	// velocities O(0.1..1) that a perturbed run develops.
	if d.MaxV > 5e-2 {
		t.Errorf("conduction state spurious velocity %g", d.MaxV)
	}
}

// TestMassConservation: the ownership-weighted total mass moves only at
// truncation level over a short perturbed run.
func TestMassConservation(t *testing.T) {
	prm := Default()
	sv, err := NewSolver(testSpec(), prm, DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	m0 := sv.Diagnose().Mass
	dt := sv.EstimateDT(0.3)
	for n := 0; n < 10; n++ {
		sv.Advance(dt)
	}
	m1 := sv.Diagnose().Mass
	if rel := math.Abs(m1-m0) / m0; rel > 1e-3 {
		t.Errorf("mass drifted by %g relative", rel)
	}
}

// TestBuoyancyDrivesFlow: a perturbed, driven state accelerates from rest
// and the kinetic energy initially grows.
func TestBuoyancyDrivesFlow(t *testing.T) {
	prm := Default()
	sv, err := NewSolver(testSpec(), prm, DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	sv.Advance(dt)
	ek1 := sv.Diagnose().KineticE
	for n := 0; n < 9; n++ {
		sv.Advance(dt)
	}
	ek10 := sv.Diagnose().KineticE
	if ek1 <= 0 {
		t.Fatalf("no flow after first step: Ek=%g", ek1)
	}
	if ek10 <= ek1 {
		t.Errorf("kinetic energy not growing: %g -> %g", ek1, ek10)
	}
	if err := sv.CheckFinite(); err != nil {
		t.Fatal(err)
	}
}

// TestMagneticDecay: with a quiescent fluid, the seed field decays
// resistively: magnetic energy is monotonically decreasing, and doubling
// eta roughly doubles the decay rate.
func TestMagneticDecay(t *testing.T) {
	decayRate := func(eta float64) float64 {
		prm := quietParams()
		prm.Eta = eta
		ic := InitialConditions{PerturbAmp: 0, SeedBAmp: 0.05, Modes: 0, Seed: 1}
		sv, err := NewSolver(testSpec(), prm, ic)
		if err != nil {
			t.Fatal(err)
		}
		em0 := sv.Diagnose().MagneticE
		dt := sv.EstimateDT(0.25)
		prev := em0
		steps := 12
		for n := 0; n < steps; n++ {
			sv.Advance(dt)
			em := sv.Diagnose().MagneticE
			if em > prev*(1+1e-9) {
				t.Fatalf("magnetic energy grew during decay: %g -> %g (eta=%g)", prev, em, eta)
			}
			prev = em
		}
		return math.Log(em0/prev) / (float64(steps) * dt)
	}
	r1 := decayRate(0.02)
	r2 := decayRate(0.04)
	if r1 <= 0 {
		t.Fatalf("no decay measured: %g", r1)
	}
	ratio := r2 / r1
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("decay rate ratio %g for doubled eta, want about 2", ratio)
	}
}

// TestRK4TemporalOrder: against a fine-dt reference, the error of the
// full nonlinear step scales like dt^4.
func TestRK4TemporalOrder(t *testing.T) {
	run := func(steps int, tEnd float64) *Solver {
		prm := Default()
		sv, err := NewSolver(testSpec(), prm, DefaultIC())
		if err != nil {
			t.Fatal(err)
		}
		dt := tEnd / float64(steps)
		for n := 0; n < steps; n++ {
			sv.Advance(dt)
		}
		return sv
	}
	const tEnd = 0.02
	ref := run(32, tEnd)
	diff := func(a, b *Solver) float64 {
		var m float64
		for pi := range a.Panels {
			fa := a.Panels[pi].U.P
			fb := b.Panels[pi].U.P
			for i := range fa.Data {
				if d := math.Abs(fa.Data[i] - fb.Data[i]); d > m {
					m = d
				}
			}
		}
		return m
	}
	e1 := diff(run(2, tEnd), ref)
	e2 := diff(run(4, tEnd), ref)
	rate := math.Log2(e1 / e2)
	if rate < 3.2 {
		t.Errorf("temporal convergence rate %.2f, want about 4 (%g -> %g)", rate, e1, e2)
	}
}

// ownedArea integrates the ownership partition of unity over both panels
// with the trapezoid rule; the exact value is the full sphere, 4 pi.
func ownedArea(t *testing.T, nt int) float64 {
	t.Helper()
	sv, err := NewSolver(grid.NewSpec(5, nt), quietParams(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	var area float64
	for _, pl := range sv.Panels {
		p := pl.Patch
		h := p.H
		_, ntP, _ := p.Padded()
		for k := h; k < h+p.Np; k++ {
			wk := 1.0
			if k == h || k == h+p.Np-1 {
				wk = 0.5
			}
			for j := h; j < h+p.Nt; j++ {
				wj := 1.0
				if j == h || j == h+p.Nt-1 {
					wj = 0.5
				}
				area += pl.Own[k*ntP+j] * wk * wj * p.SinT[j] * p.Dt * p.Dp
			}
		}
	}
	return area
}

// TestOwnershipPartitionsSphere: the ownership-weighted angular measure
// summed over both panels equals the full sphere up to the seam
// quadrature error of the kinked weight function (first order in h near
// the partition pinch points), which must shrink with resolution.
func TestOwnershipPartitionsSphere(t *testing.T) {
	want := 4 * math.Pi
	e1 := math.Abs(ownedArea(t, 17) - want)
	e2 := math.Abs(ownedArea(t, 33) - want)
	if e2/want > 0.02 {
		t.Errorf("owned area error %v of %v at nt=33", e2, want)
	}
	if e2 >= e1 {
		t.Errorf("seam quadrature error not shrinking: %g -> %g", e1, e2)
	}
}

// TestOwnershipSymmetry: the two panels' masks are identical arrays (the
// ownership rule is Yin<->Yang symmetric).
func TestOwnershipSymmetry(t *testing.T) {
	sv, err := NewSolver(testSpec(), quietParams(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	a := sv.Panels[0].Own
	b := sv.Panels[1].Own
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ownership masks differ between panels")
		}
	}
}

func TestDiagnoseMass(t *testing.T) {
	sv, err := NewSolver(testSpec(), quietParams(),
		InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Modes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := sv.Diagnose()
	shell := 4 * math.Pi / 3 * (1 - math.Pow(0.35, 3))
	// Quiet isothermal state has rho = 1 everywhere. The tolerance covers
	// the overset seam quadrature bias at this coarse resolution (see
	// TestOwnershipPartitionsSphere).
	if math.Abs(d.Mass-shell)/shell > 0.05 {
		t.Errorf("mass = %v, want about %v", d.Mass, shell)
	}
	if d.InternalE <= 0 {
		t.Error("internal energy not positive")
	}
}

func TestCheckFiniteDetectsNaN(t *testing.T) {
	sv, err := NewSolver(testSpec(), quietParams(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.CheckFinite(); err != nil {
		t.Fatalf("fresh state flagged: %v", err)
	}
	sv.Panels[0].U.Rho.Set(3, 3, 3, math.NaN())
	if err := sv.CheckFinite(); err == nil {
		t.Error("NaN not detected")
	}
}

func TestEstimateDTScales(t *testing.T) {
	sv1, _ := NewSolver(grid.NewSpec(9, 9), Default(), DefaultIC())
	sv2, _ := NewSolver(grid.NewSpec(17, 17), Default(), DefaultIC())
	d1 := sv1.EstimateDT(0.3)
	d2 := sv2.EstimateDT(0.3)
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("non-positive dt: %g %g", d1, d2)
	}
	if d2 >= d1 {
		t.Errorf("dt did not shrink with resolution: %g -> %g", d1, d2)
	}
}

func TestRunStopsOnFinite(t *testing.T) {
	sv, err := NewSolver(testSpec(), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < 4; n++ {
		sv.Advance(dt)
	}
	if err := sv.CheckFinite(); err != nil {
		t.Fatalf("healthy run errored: %v", err)
	}
	if sv.Step != 4 || sv.Time <= 0 {
		t.Errorf("step=%d time=%v", sv.Step, sv.Time)
	}
}

// TestDoubleSolutionAgreement: after stepping, the Yin and Yang solutions
// in the overlap region agree within discretization error (paper,
// section II: the "double solution" needs no blending).
func TestDoubleSolutionAgreement(t *testing.T) {
	sv, err := NewSolver(grid.NewSpec(9, 17), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < 5; n++ {
		sv.Advance(dt)
	}
	maxRel := OverlapDisagreement(sv)
	if maxRel > 0.05 {
		t.Errorf("double-solution relative disagreement %g", maxRel)
	}
}

// TestNusseltConduction: the pure conduction state transports exactly
// the conductive flux: Nu = 1 (up to quadrature error).
func TestNusseltConduction(t *testing.T) {
	nuAt := func(nt int) float64 {
		prm := Default()
		prm.Omega = 0
		sv, err := NewSolver(grid.NewSpec(nt, nt), prm,
			InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Modes: 0, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return sv.NusseltOuter()
	}
	// The residual is quadrature error (dominated by the overset seam
	// bias, cf. TestOwnershipPartitionsSphere) and must shrink with
	// resolution.
	e1 := math.Abs(nuAt(17) - 1)
	e2 := math.Abs(nuAt(33) - 1)
	if e1 > 0.05 {
		t.Errorf("conduction Nusselt off by %v at nt=17", e1)
	}
	if e2 >= e1 {
		t.Errorf("Nusselt error not converging: %v -> %v", e1, e2)
	}
}

// TestNusseltFiniteInDrivenRun: the diagnostic stays finite and of
// order unity through a convective spin-up.
func TestNusseltFiniteInDrivenRun(t *testing.T) {
	sv, err := NewSolver(testSpec(), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < 10; n++ {
		sv.Advance(dt)
	}
	nu := sv.NusseltOuter()
	if math.IsNaN(nu) || nu < 0.5 || nu > 10 {
		t.Errorf("Nusselt = %v", nu)
	}
}

// TestDivBFree: B = curl A is discretely divergence-free to truncation
// error, converging at second order — the structural guarantee of the
// vector-potential formulation (no divergence cleaning needed).
func TestDivBFree(t *testing.T) {
	divBAt := func(nt int) float64 {
		ic := DefaultIC()
		ic.SeedBAmp = 0.05
		sv, err := NewSolver(grid.NewSpec(nt, nt), Default(), ic)
		if err != nil {
			t.Fatal(err)
		}
		dt := sv.EstimateDT(0.3)
		for n := 0; n < 3; n++ {
			sv.Advance(dt)
		}
		var worst float64
		for _, pl := range sv.Panels {
			ComputeVTB(pl, &pl.U)
			p := pl.Patch
			div := p.NewScalar()
			sphopsDiv(pl, div)
			h := p.H
			margin := nt / 8
			bscale := 0.0
			for k := h + margin; k < h+p.Np-margin; k++ {
				for j := h + margin; j < h+p.Nt-margin; j++ {
					for i := h + margin; i < h+p.Nr-margin; i++ {
						if b := math.Abs(pl.B.R.At(i, j, k)); b > bscale {
							bscale = b
						}
						if d := math.Abs(div.At(i, j, k)); d > worst {
							worst = d
						}
					}
				}
			}
			worst /= math.Max(bscale/0.65, 1e-300) // normalize by B over gap scale
		}
		return worst
	}
	e1 := divBAt(17)
	e2 := divBAt(33)
	if rate := math.Log2(e1 / e2); rate < 1.3 {
		t.Errorf("div B convergence rate %.2f (%g -> %g)", rate, e1, e2)
	}
}

// TestBiquadraticRimSolver: the solver runs stably with third-order rim
// interpolation, and the overlap "double solution" disagreement after
// stepping is no worse than (and typically better than) bilinear.
func TestBiquadraticRimSolver(t *testing.T) {
	run := func(order int) float64 {
		sv, err := NewSolverInterp(grid.NewSpec(9, 17), Default(), DefaultIC(), order)
		if err != nil {
			t.Fatal(err)
		}
		dt := sv.EstimateDT(0.3)
		for n := 0; n < 6; n++ {
			sv.Advance(dt)
		}
		if err := sv.CheckFinite(); err != nil {
			t.Fatal(err)
		}
		return OverlapDisagreement(sv)
	}
	d2 := run(2)
	d3 := run(3)
	if d3 > d2*1.5 {
		t.Errorf("biquadratic rim disagreement %g much worse than bilinear %g", d3, d2)
	}
	if _, err := NewSolverInterp(testSpec(), Default(), DefaultIC(), 5); err == nil {
		t.Error("bogus order accepted")
	}
}

// TestSpatialSelfConvergence: the complete solver (operators, boundary
// conditions, overset exchange) is second-order accurate in space:
// successive grid halvings shrink the solution difference at probes by
// about 4x. All runs use the same (finest-stable) time step so the
// temporal error is common.
func TestSpatialSelfConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-resolution run")
	}
	prm := Default()
	ic := DefaultIC()
	const dt = 1e-3
	const steps = 8
	probeAt := func(sv *Solver, r, th, ph float64) float64 {
		// Trilinear sample of temperature on the Yin panel (probes are
		// chosen inside it).
		pl := sv.Panels[0]
		ComputeVTB(pl, &pl.U)
		p := pl.Patch
		h := p.H
		fi := (r - p.Spec.RI) / p.Dr
		i0 := int(math.Floor(fi))
		ai := fi - float64(i0)
		fj := (th - grid.ThetaMin) / p.Dt
		j0 := int(math.Floor(fj))
		aj := fj - float64(j0)
		fk := (ph - grid.PhiMin) / p.Dp
		k0 := int(math.Floor(fk))
		ak := fk - float64(k0)
		var v float64
		for di := 0; di <= 1; di++ {
			wi := 1 - ai
			if di == 1 {
				wi = ai
			}
			for dj := 0; dj <= 1; dj++ {
				wj := 1 - aj
				if dj == 1 {
					wj = aj
				}
				for dk := 0; dk <= 1; dk++ {
					wk := 1 - ak
					if dk == 1 {
						wk = ak
					}
					v += wi * wj * wk * pl.T.At(i0+di+h, j0+dj+h, k0+dk+h)
				}
			}
		}
		return v
	}
	probes := [][3]float64{
		{0.6, 1.2, 0.4}, {0.75, 1.8, -1.2}, {0.5, 1.5, 1.9}, {0.85, 1.0, -0.3},
	}
	sample := func(nt int) []float64 {
		sv, err := NewSolver(grid.NewSpec(nt, nt), prm, ic)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < steps; n++ {
			sv.Advance(dt)
		}
		out := make([]float64, len(probes))
		for i, p := range probes {
			out[i] = probeAt(sv, p[0], p[1], p[2])
		}
		return out
	}
	coarse := sample(13)
	mid := sample(25)
	fine := sample(49)
	var d1, d2 float64
	for i := range probes {
		d1 += math.Abs(coarse[i] - mid[i])
		d2 += math.Abs(mid[i] - fine[i])
	}
	rate := math.Log2(d1 / d2)
	if rate < 1.4 {
		t.Errorf("full-solver spatial rate %.2f, want about 2 (diffs %g -> %g)", rate, d1, d2)
	}
}
