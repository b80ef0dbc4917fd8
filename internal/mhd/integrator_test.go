package mhd

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func TestIntegratorMeta(t *testing.T) {
	cases := []struct {
		in     Integrator
		name   string
		stages int
	}{
		{RK4, "RK4", 4},
		{RK2, "RK2", 2},
		{Euler, "Euler", 1},
	}
	for _, c := range cases {
		if tbl, _ := c.in.stages(); c.in.String() != c.name || len(tbl) != c.stages {
			t.Errorf("%v: %s/%d stages", c.in, c.in.String(), len(tbl))
		}
	}
	if Integrator(9).String() == "" {
		t.Error("unknown scheme has no name")
	}
	tbl, fin := RK4.stages()
	if len(tbl) != 4 || fin != 1.0/6.0 {
		t.Errorf("RK4 table %v %v", tbl, fin)
	}
}

// TestTemporalOrders: each scheme converges at its formal order on the
// full nonlinear problem against a fine-dt reference.
func TestTemporalOrders(t *testing.T) {
	run := func(scheme Integrator, steps int, tEnd float64) *Solver {
		sv, err := NewSolver(testSpec(), Default(), DefaultIC())
		if err != nil {
			t.Fatal(err)
		}
		sv.Scheme = scheme
		dt := tEnd / float64(steps)
		for n := 0; n < steps; n++ {
			sv.Advance(dt)
		}
		return sv
	}
	diff := func(a, b *Solver) float64 {
		var m float64
		for pi := range a.Panels {
			fa := a.Panels[pi].U.P.Data
			fb := b.Panels[pi].U.P.Data
			for i := range fa {
				if d := math.Abs(fa[i] - fb[i]); d > m {
					m = d
				}
			}
		}
		return m
	}
	const tEnd = 0.02
	// A single fine RK4 reference serves all schemes.
	ref := run(RK4, 32, tEnd)
	for _, c := range []struct {
		scheme  Integrator
		minRate float64
	}{
		{Euler, 0.8},
		{RK2, 1.5},
		{RK4, 3.2},
	} {
		e1 := diff(run(c.scheme, 2, tEnd), ref)
		e2 := diff(run(c.scheme, 4, tEnd), ref)
		rate := math.Log2(e1 / e2)
		if rate < c.minRate {
			t.Errorf("%v: temporal rate %.2f, want >= %.1f (errors %g -> %g)",
				c.scheme, rate, c.minRate, e1, e2)
		}
	}
}

// TestSchemeAccuracyOrdering: at the same dt, higher-order schemes land
// closer to the reference.
func TestSchemeAccuracyOrdering(t *testing.T) {
	run := func(scheme Integrator) *Solver {
		sv, err := NewSolver(testSpec(), Default(), DefaultIC())
		if err != nil {
			t.Fatal(err)
		}
		sv.Scheme = scheme
		for n := 0; n < 4; n++ {
			sv.Advance(5e-3)
		}
		return sv
	}
	ref, err := NewSolver(testSpec(), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 40; n++ {
		ref.Advance(5e-4)
	}
	diff := func(a *Solver) float64 {
		var m float64
		for pi := range a.Panels {
			fa := a.Panels[pi].U.P.Data
			fb := ref.Panels[pi].U.P.Data
			for i := range fa {
				if d := math.Abs(fa[i] - fb[i]); d > m {
					m = d
				}
			}
		}
		return m
	}
	e4 := diff(run(RK4))
	e2 := diff(run(RK2))
	e1 := diff(run(Euler))
	if !(e4 < e2 && e2 < e1) {
		t.Errorf("accuracy ordering violated: RK4 %g, RK2 %g, Euler %g", e4, e2, e1)
	}
}

// TestMagneticEnergyBalance: for the quiet resistive decay (confined
// walls, no Poynting flux), the measured d(Em)/dt matches
// -LorentzWork - JouleHeat from the budget.
func TestMagneticEnergyBalance(t *testing.T) {
	prm := quietParams()
	prm.Eta = 0.01
	ic := InitialConditions{SeedBAmp: 0.05, Modes: 0, Seed: 1}
	sv, err := NewSolver(grid.NewSpec(17, 17), prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	// Settle one step so the state is post-constraints.
	dt := sv.EstimateDT(0.2)
	sv.Advance(dt)

	b := ComputeBudget(sv)
	em0 := sv.Diagnose().MagneticE
	small := dt / 4
	sv.Advance(small)
	em1 := sv.Diagnose().MagneticE
	measured := (em1 - em0) / small
	want := -b.LorentzWork - b.JouleHeat
	if b.JouleHeat <= 0 {
		t.Fatalf("no Joule heating: %+v", b)
	}
	// The identity holds exactly in the continuum; discretely the
	// integration by parts behind it (and the overset rim bookkeeping)
	// leaves an O(h^2)-class residual, so demand agreement to 25% here
	// and convergence below.
	rel := math.Abs(measured-want) / math.Abs(want)
	if rel > 0.25 {
		t.Errorf("dEm/dt = %g, budget predicts %g (%.0f%% off; Joule %g, Lorentz %g)",
			measured, want, rel*100, b.JouleHeat, b.LorentzWork)
	}
}

// TestMagneticEnergyBalanceConverges: the residual of the discrete
// balance shrinks as the grid refines.
func TestMagneticEnergyBalanceConverges(t *testing.T) {
	residual := func(nt int) float64 {
		prm := quietParams()
		prm.Eta = 0.01
		ic := InitialConditions{SeedBAmp: 0.05, Modes: 0, Seed: 1}
		sv, err := NewSolver(grid.NewSpec(nt, nt), prm, ic)
		if err != nil {
			t.Fatal(err)
		}
		dt := sv.EstimateDT(0.2)
		sv.Advance(dt)
		b := ComputeBudget(sv)
		em0 := sv.Diagnose().MagneticE
		small := dt / 4
		sv.Advance(small)
		em1 := sv.Diagnose().MagneticE
		measured := (em1 - em0) / small
		want := -b.LorentzWork - b.JouleHeat
		return math.Abs(measured-want) / math.Abs(want)
	}
	r1 := residual(13)
	r2 := residual(25)
	if r2 >= r1 {
		t.Errorf("balance residual not converging: %.3f -> %.3f", r1, r2)
	}
}

// TestBudgetSigns: in a driven convection run, buoyancy feeds the flow
// (positive work) and both dissipation channels are non-negative.
func TestBudgetSigns(t *testing.T) {
	sv, err := NewSolver(testSpec(), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < 10; n++ {
		sv.Advance(dt)
	}
	b := ComputeBudget(sv)
	if b.ViscousDissipation < 0 {
		t.Errorf("negative viscous dissipation %g", b.ViscousDissipation)
	}
	if b.JouleHeat < 0 {
		t.Errorf("negative Joule heat %g", b.JouleHeat)
	}
	// Early in a run, sound waves launched by the initial perturbation
	// make the instantaneous buoyancy work oscillate in sign; only its
	// activity is asserted here.
	if b.BuoyancyWork == 0 {
		t.Error("buoyancy channel inactive in a driven run")
	}

	// The quiet, gravity-free state has no buoyancy channel at all.
	quiet, err := NewSolver(testSpec(), quietParams(),
		InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Modes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qb := ComputeBudget(quiet)
	if qb.BuoyancyWork != 0 || qb.JouleHeat != 0 {
		t.Errorf("quiet budget not silent: %+v", qb)
	}
}
