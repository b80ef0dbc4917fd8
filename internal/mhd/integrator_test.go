package mhd

import (
	"math"
	"testing"

	"repro/internal/grid"
)

// TestIntegratorMeta: the stage table is the classical RK4's.
func TestIntegratorMeta(t *testing.T) {
	if len(rk4Stages) != 4 || rk4Final != 1.0/6.0 {
		t.Errorf("RK4 table %v %v", rk4Stages, rk4Final)
	}
}

// TestTemporalOrders: RK4 converges at its formal order on the full
// nonlinear problem against a fine-dt reference.
func TestTemporalOrders(t *testing.T) {
	run := func(steps int, tEnd float64) *Solver {
		sv, err := NewSolver(testSpec(), Default(), DefaultIC())
		if err != nil {
			t.Fatal(err)
		}
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
	ref := run(32, tEnd)
	e1 := diff(run(2, tEnd), ref)
	e2 := diff(run(4, tEnd), ref)
	if rate := math.Log2(e1 / e2); rate < 3.2 {
		t.Errorf("RK4: temporal rate %.2f, want >= 3.2 (errors %g -> %g)", rate, e1, e2)
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
