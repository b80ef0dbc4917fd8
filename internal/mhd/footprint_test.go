package mhd

import (
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/sphops"
)

// TestPanelFootprint pins what a stepping serial solver holds to the 43
// doubles per padded point a step reads and writes — 32 of Runge-Kutta
// state (U, u0, k, acc), 9 of V, B, J and 2 of T, div v — plus a
// point's worth of slack for the rotation and ownership tables, the
// overset exchanger (about half a point at this grid) and the kernels'
// scratch rows. The reference kernel's operator outputs and the
// full-field operators' scratch are created only by the callers that
// need them, so neither shows here; the reference still equals the fused
// kernel on the stepped panels, and the column-fused curl and divergence
// the step uses allocate nothing once warm. scripts/check.sh prints the
// logged figure.
func TestPanelFootprint(t *testing.T) {
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
	for n := 0; n < 3; n++ {
		sv.Advance(1e-3)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	points := 0
	for _, pl := range sv.Panels {
		points += pl.U.Rho.Len()
	}
	perPoint := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 8 / float64(points)
	t.Logf("doubles per padded point: %.1f", perPoint)
	if perPoint > 44 {
		t.Errorf("a stepped solver holds %.1f doubles per padded point, want <= 44", perPoint)
	}

	for _, pl := range sv.Panels {
		if n := pl.W.Allocated(); n != 0 {
			t.Errorf("%s: stepping created %d full-field scratch scalars", pl.Patch.Panel, n)
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
	if a := testing.AllocsPerRun(10, func() {
		sphops.CurlOn(pl.Patch, reg, pl.B, pl.J, pl.W)
		sphops.DivOn(pl.Patch, reg, pl.V, pl.DivV, pl.W)
	}); a != 0 {
		t.Errorf("CurlOn + DivOn: %v allocs per call, want 0", a)
	}
	runtime.KeepAlive(sv)
}
