package mhd

import (
	"fmt"
	"testing"

	"repro/internal/abtest"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/perfcount"
	"repro/internal/sphops"
)

// The oracles of the slice-at-a-time derived fields: the stage as it
// was before V, T and j moved into the sweep. ComputeVTB fills the
// full fields V and T, div v is sphops.DivOn of the full field V, and
// the tile sweep's columns read their V and T rows from there — and,
// for the full-field-J oracle, their j rows from pl.J filled by
// RHSCurlJ.

// bindFullJ points the update's j rows at column (j, k) of the full
// field J.
func bindFullJ(s *rhsRows, J *field.Vector, j, k int) {
	s.jr, s.jt, s.jp = J.R.Row(j, k), J.T.Row(j, k), J.P.Row(j, k)
}

// bindFullVT points the update's V and T rows at the full fields pl.V
// and pl.T around padded φ-slice k.
func bindFullVT(s *rhsRows, pl *Panel, k int) {
	s.vt.BindFields(k, pl.V.R, pl.V.T, pl.V.P, pl.T)
}

// fullVTStage is the oracle of ComputeB + FinishStage with V and T as
// full fields: ComputeVTB, div v of the full field V, then the stage
// sweep with every column reading pl.V and pl.T, charged as the
// production stage is charged.
func fullVTStage(pl *Panel, prm Params, st Stage) {
	fullFieldPrepass(pl)
	sphops.ChargeCurl(pl.Patch, pl.Patch.OwnedRegion())
	oracleStage(pl, prm, st, false)
}

// fullJStage is fullVTStage with j = curl B into pl.J as well, every
// column reading its j rows from there.
func fullJStage(pl *Panel, prm Params, st Stage) {
	fullFieldPrepass(pl)
	RHSCurlJ(pl, pl.Patch.OwnedRegion())
	oracleStage(pl, prm, st, true)
}

// fullFieldPrepass fills V, T and B and div v = DivOn(V) over the
// owned columns.
func fullFieldPrepass(pl *Panel) {
	ComputeVTB(pl, &pl.U)
	sphops.DivOn(pl.Patch, pl.Patch.OwnedRegion(), pl.V, pl.DivV, pl.W)
}

// oracleStage is RHSStage's sweep and join with the columns reading V
// and T from the full fields, and j from pl.J when fullJ.
func oracleStage(pl *Panel, prm Params, st Stage, fullJ bool) {
	p := pl.Patch
	f := &pl.stage
	f.prm, f.st = prm, st
	p.Par.For(p.Np, func(a, b int) { oracleTile(f, a, b, fullJ) })
	f.join()
}

// oracleTile is stager.tile reading V and T from pl.V and pl.T, and j
// from pl.J when fullJ.
func oracleTile(f *stager, a, b int, fullJ bool) {
	pl := f.pl
	p := pl.Patch
	h := p.H
	nrP, _, _ := p.Padded()
	n8 := 8 * f.plane
	backing, s, js, _ := takeRHSRows(pl)
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
		bindFullVT(&s, pl, h+d)
		if !fullJ {
			js.fill(&f.curl, h, h+p.Nt, h+d)
		}
		var o outRows
		for j := h; j < h+p.Nt; j++ {
			for v := range o {
				o[v] = out[v*f.plane+j*nrP:][:nrP]
			}
			if fullJ {
				bindFullJ(&s, pl.J, j, h+d)
			} else {
				js.bind(&s, j)
			}
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

// advanceOracle is Solver.Advance through an oracle stage, with its
// constraint calls going through constrain.
func advanceOracle(sv *Solver, dt float64, stage func(pl *Panel, prm Params, st Stage), constrain func()) {
	AdvanceRK4(dt, sv.Panels[:], func(pl *Panel, st Stage) {
		stage(pl, sv.Prm, st)
	}, constrain)
	sv.Time += dt
	sv.Step++
}

// matchOracle steps a solver and the oracle two steps each under both
// magnetic walls, serial and with a worker pool, and fails where U, u0
// or acc of a panel, halos included, differ at a constraint point, or
// where the counters are charged differently.
func matchOracle(t *testing.T, stage func(pl *Panel, prm Params, st Stage), name string) {
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
						ComputeB(pl, &pl.U)
						FinishStage(pl, sv.Prm, st, nil)
					}, func() {
						got = append(got, stateDigest(sv.Panels[:]))
						sv.applyConstraints()
					})
					gotCount := perfcount.Read().Sub(before)
					before = perfcount.Read()
					advanceOracle(oracle, dt, stage, func() {
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
								t.Fatalf("step %d stage %d: panel %d, %s var %d differs from the %s oracle",
									step, c, i/24, [...]string{"U", "u0", "acc"}[i/8%3], i%8, name)
							}
						}
					}
				}
			})
		}
	}
}

// TestSliceJMatchesFullJ: stepping with j evaluated a φ-slice at a time
// inside the stage sweep leaves U, u0 and acc of both panels, halos
// included, bitwise equal to the full-field-J oracle at every
// constraint point of two steps, and charges the counters the same,
// under both magnetic walls, serial and with a worker pool.
func TestSliceJMatchesFullJ(t *testing.T) {
	matchOracle(t, fullJStage, "full-field-J")
}

// TestSliceVTMatchesFullVT: the same for V = F/ρ and T = P/ρ divided a
// φ-slice at a time into the rings of RHSDivV and the stage sweep,
// against the full-field-V/T oracle. decomp.TestWorldMatchesFullVTJ
// holds a 4-rank world to a full-field V, T and J oracle the same way.
func TestSliceVTMatchesFullVT(t *testing.T) {
	matchOracle(t, fullVTStage, "full-field-V/T")
}

// TestVTStayNil: stepping, diagnosing and estimating the time step
// never allocate the full fields V and T, which only ComputeVTB fills.
// decomp.TestRanksKeepVTNil checks the ranks of a world.
func TestVTStayNil(t *testing.T) {
	sv, err := NewSolver(grid.NewSpec(9, 13), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	sv.Advance(sv.EstimateDT(0.3))
	sv.Diagnose()
	sv.EstimateDT(0.3)
	for _, pl := range sv.Panels {
		if pl.V != nil || pl.T != nil {
			t.Errorf("%s: V or T allocated by Advance, Diagnose or EstimateDT", pl.Patch.Panel)
		}
	}
}

// skipTimingReport skips a timing report, which asserts nothing,
// under -short, -race and purego.
func skipTimingReport(t *testing.T) {
	if testing.Short() || raceEnabled || puregoBuild {
		t.Skip("timing report: skipped under -short, -race and purego")
	}
}

// TestSliceJRatio prints how many times faster a serial 33x33 step runs
// with j evaluated a φ-slice at a time inside the stage sweep than
// through the full-field J (old step time over new, median and
// quartiles of interleaved rounds). It asserts nothing: the figure is
// for a change's description.
func TestSliceJRatio(t *testing.T) {
	skipTimingReport(t)
	sv, oracle, _ := solverPair(t, grid.NewSpec(33, 33))
	dt := sv.EstimateDT(0.3)
	const rounds = 31
	r := abtest.Interleave(func() { advanceOracle(oracle, dt, fullJStage, oracle.applyConstraints) },
		func() { sv.Advance(dt) }, rounds)
	t.Logf("step full-field J/slice j %.3fx (q1 %.3f, q3 %.3f, %d rounds)", r.Median, r.Q1, r.Q3, rounds)
}

// TestSliceVTRatio prints how many times faster a serial step runs with
// V and T divided a φ-slice at a time than through the full fields V
// and T, at 33x33 and 17x17 (old step time over new, median and
// quartiles of interleaved rounds). It asserts nothing: the figures are
// for a change's description.
func TestSliceVTRatio(t *testing.T) {
	skipTimingReport(t)
	for _, g := range []struct{ n, rounds int }{{33, 31}, {17, 61}} {
		sv, oracle, _ := solverPair(t, grid.NewSpec(g.n, g.n))
		dt := sv.EstimateDT(0.3)
		r := abtest.Interleave(func() { advanceOracle(oracle, dt, fullVTStage, oracle.applyConstraints) },
			func() { sv.Advance(dt) }, g.rounds)
		t.Logf("%dx%d step full-field V,T/slice V,T %.3fx (q1 %.3f, q3 %.3f, %d rounds)",
			g.n, g.n, r.Median, r.Q1, r.Q3, g.rounds)
	}
}
