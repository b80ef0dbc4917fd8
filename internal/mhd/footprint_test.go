package mhd

import (
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/sphops"
)

// footprintMax is the bound on a stepped serial solver's doubles per
// padded point: 29.6 measured, plus 0.6.
const footprintMax = 30.2

// TestPanelFootprint pins what a stepping serial solver holds to the 28
// doubles per padded point a step reads and writes — 24 of Runge-Kutta
// state (U, u0, acc; the right-hand side never exists as a full field),
// 3 of B and 1 of div v (the current density j = curl B, V = F/ρ and
// T = P/ρ never exist as full fields either) — plus two points' worth
// of slack for the stage sweep's ring of right-hand-side slices (about
// half a point at this grid) and its tile's j planes and V/T ring, the
// rotation and ownership tables, the overset exchanger (about half a
// point) and the kernels' scratch rows. The reference kernel's operator
// outputs, the full-field operators' scratch and the diagnostics' full
// fields J, V and T are created only by the callers that need them, so
// none shows here; the reference still equals the fused kernel on the
// stepped panels, and the column-fused curl and divergence the step
// uses allocate nothing once warm. scripts/check.sh prints the logged
// figure.
func TestPanelFootprint(t *testing.T) {
	sv, perPoint := steppedFootprint(t, nil)
	t.Logf("doubles per padded point: %.1f", perPoint)
	if perPoint > footprintMax {
		t.Errorf("a stepped solver holds %.1f doubles per padded point, want <= %.1f", perPoint, footprintMax)
	}
	// With a worker pool each sweep tile keeps the right-hand side of
	// its first and last φ-slice for the join (DESIGN.md, "The
	// Runge-Kutta stage"), and each worker has its own ring, so a
	// pooled panel also holds 8 doubles for each kept slice and for a
	// second ring's slices — on a block with fewer than two slices per
	// tile, a whole k again.
	const workers, tiles = 2, 4 * 2 // par.Pool.For's tiling at 2 workers
	pool := par.NewPool(workers)
	defer pool.Close()
	psv, pooled := steppedFootprint(t, pool)
	p := psv.Panels[0].Patch
	_, _, npP := p.Padded()
	extra := 8 * float64(min(p.Np, 2*tiles)+ringSlots) / float64(npP)
	t.Logf("doubles per padded point with %d workers: %.1f (kept slices and second ring %.1f)", workers, pooled, extra)
	if pooled > footprintMax+extra {
		t.Errorf("a pooled stepped solver holds %.1f doubles per padded point, want <= %.1f", pooled, footprintMax+extra)
	}

	for _, pl := range sv.Panels {
		if n := pl.W.Allocated(); n != 0 {
			t.Errorf("%s: stepping created %d full-field scratch scalars", pl.Patch.Panel, n)
		}
		if pl.V != nil || pl.T != nil {
			t.Errorf("%s: stepping allocated the full fields V or T", pl.Patch.Panel)
		}
		ComputeVTB(pl, &pl.U)
		fused, ref := NewState(pl.Patch.Shape), NewState(pl.Patch.Shape)
		FinishRHS(pl, sv.Prm, &pl.U, &fused, nil)
		FinishRHSReference(pl, sv.Prm, &pl.U, &ref, nil)
		rs := ref.Scalars()
		for vi, f := range fused.Scalars() {
			if n := firstBitDiff(f.Data, rs[vi].Data); n >= 0 {
				t.Errorf("%s var %d index %d: fused %x, reference %x",
					pl.Patch.Panel, vi, n, f.Data[n], rs[vi].Data[n])
			}
		}
	}

	pl := sv.Panels[grid.Yin]
	reg := pl.Patch.OwnedRegion()
	j := pl.Patch.NewVector()
	if a := testing.AllocsPerRun(10, func() {
		sphops.CurlOn(pl.Patch, reg, pl.B, j, pl.W)
		sphops.DivOn(pl.Patch, reg, pl.V, pl.DivV, pl.W)
	}); a != 0 {
		t.Errorf("CurlOn + DivOn: %v allocs per call, want 0", a)
	}
	runtime.KeepAlive(sv)
}

// steppedFootprint builds a 17×17 solver on pool, steps it three times
// and returns it with the heap it added, in doubles per padded point.
func steppedFootprint(t *testing.T, pool *par.Pool) (*Solver, float64) {
	t.Helper()
	spec := grid.NewSpec(17, 17)
	// A first solver fills the process-wide caches (the overset plan)
	// that the measured one then shares.
	if _, err := NewSolver(spec, Default(), DefaultIC()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sv, err := NewSolver(spec, Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	sv.SetPool(pool)
	for n := 0; n < 3; n++ {
		sv.Advance(1e-3)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	points := 0
	for _, pl := range sv.Panels {
		points += pl.U.Rho.Len()
	}
	return sv, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 8 / float64(points)
}
