package mhd

import (
	"fmt"
	"testing"

	"repro/internal/abtest"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/perfcount"
)

// The oracle of the slice-at-a-time current density: the stage as it
// was before j moved into the sweep. RHSCurlJ fills the full-field pl.J
// over the owned region, and the tile sweep's columns read their j rows
// from there.

// bindFullJ points the update's j rows at column (j, k) of the full
// field J.
func bindFullJ(s *rhsRows, J *field.Vector, j, k int) {
	s.jr, s.jt, s.jp = J.R.Row(j, k), J.T.Row(j, k), J.P.Row(j, k)
}

// fullJStage is the oracle of RHSStage: j = curl B into pl.J, then the
// stage sweep with every column reading pl.J, charged as RHSStage
// charges the stage.
func fullJStage(pl *Panel, prm Params, st Stage) {
	p := pl.Patch
	RHSCurlJ(pl, p.OwnedRegion())
	f := &pl.stage
	f.prm, f.st = prm, st
	p.Par.For(p.Np, func(a, b int) { fullJTile(f, a, b) })
	f.join()
}

// fullJTile is stager.tile reading j from pl.J.
func fullJTile(f *stager, a, b int) {
	pl := f.pl
	p := pl.Patch
	h := p.H
	nrP, _, _ := p.Padded()
	n8 := 8 * f.plane
	backing := pl.W.Rows(rhsRowCount)
	s := bindRHSRows(backing, nrP)
	ring := f.takeRing()
	for d := a; d < b; d++ {
		out := ring[d%ringSlots*n8:][:n8]
		if f.shared(d, a, b) {
			if f.kept[d] == nil {
				f.kept[d] = make([]float64, n8)
			}
			out = f.kept[d]
			f.held[d] = true
		}
		var o outRows
		for j := h; j < h+p.Nt; j++ {
			for v := range o {
				o[v] = out[v*f.plane+j*nrP:][:nrP]
			}
			bindFullJ(&s, pl.J, j, h+d)
			fusedRHSColumn(pl, f.prm, &pl.U, &o, &s, j, h+d)
		}
		for e := max(a, d-2); e <= d; e++ {
			if f.lastReader(e) == d && !f.shared(e, a, b) {
				f.fold(h+e, ring[e%ringSlots*n8:][:n8], f.plane)
			}
		}
	}
	f.putRing(ring)
	pl.W.PutRows(backing)
}

// advanceFullJ is Solver.Advance through the oracle stage, with its
// constraint calls going through constrain.
func advanceFullJ(sv *Solver, dt float64, constrain func()) {
	AdvanceRK4(dt, sv.Panels[:], func(pl *Panel, st Stage) {
		ComputeVTB(pl, &pl.U)
		RHSDivV(pl, pl.Patch.OwnedRegion())
		fullJStage(pl, sv.Prm, st)
	}, constrain)
	sv.Time += dt
	sv.Step++
}

// TestSliceJMatchesFullJ: stepping with j evaluated a φ-slice at a time
// inside the stage sweep leaves U, u0 and acc of both panels, halos
// included, bitwise equal to the full-field-J oracle at every
// constraint point of two steps, and charges the counters the same,
// under both magnetic walls, serial and with a worker pool.
// decomp.TestWorldMatchesFullJ holds a 4-rank world to a full-field-J
// oracle the same way.
func TestSliceJMatchesFullJ(t *testing.T) {
	for _, bc := range []MagneticBC{BCConfined, BCPseudoVacuum} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("bc%d/workers%d", bc, workers), func(t *testing.T) {
				prm := Default()
				prm.MagBC = bc
				ic := DefaultIC()
				ic.SeedBAmp = 0.02
				spec := grid.NewSpec(9, 13)
				sv, err := NewSolver(spec, prm, ic)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := NewSolver(spec, prm, ic)
				if err != nil {
					t.Fatal(err)
				}
				pool := par.NewPool(workers)
				defer pool.Close()
				sv.SetPool(pool)
				oracle.SetPool(pool)
				const dt = 2e-3
				for step := 0; step < 2; step++ {
					var got, want [][]uint64
					before := perfcount.Read()
					AdvanceRK4(dt, sv.Panels[:], func(pl *Panel, st Stage) {
						ComputeVTB(pl, &pl.U)
						FinishStage(pl, sv.Prm, st, nil)
					}, func() {
						got = append(got, stateDigest(sv.Panels[:]))
						sv.applyConstraints()
					})
					gotCount := perfcount.Read().Sub(before)
					before = perfcount.Read()
					advanceFullJ(oracle, dt, func() {
						want = append(want, stateDigest(oracle.Panels[:]))
						oracle.applyConstraints()
					})
					wantCount := perfcount.Read().Sub(before)
					if gotCount != wantCount || wantCount.Flops == 0 {
						t.Errorf("step %d: counters %+v, oracle charged %+v", step, gotCount, wantCount)
					}
					for c := range want {
						for i := range want[c] {
							if got[c][i] != want[c][i] {
								t.Fatalf("step %d stage %d: panel %d, %s var %d differs from the full-field-J oracle",
									step, c, i/24, [...]string{"U", "u0", "acc"}[i/8%3], i%8)
							}
						}
					}
				}
			})
		}
	}
}

// TestSliceJRatio prints how many times faster a serial 33x33 step runs
// with j evaluated a φ-slice at a time inside the stage sweep than
// through the full-field J (old step time over new, median and
// quartiles of interleaved rounds). It asserts nothing: the figure is
// for a change's description.
func TestSliceJRatio(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing report: skipped under -short and -race")
	}
	sv, oracle, _ := solverPair(t, grid.NewSpec(33, 33))
	dt := sv.EstimateDT(0.3)
	const rounds = 31
	r := abtest.Interleave(func() { advanceFullJ(oracle, dt, oracle.applyConstraints) },
		func() { sv.Advance(dt) }, rounds)
	t.Logf("step full-field J/slice j %.3fx (q1 %.3f, q3 %.3f, %d rounds)", r.Median, r.Q1, r.Q3, rounds)
}
