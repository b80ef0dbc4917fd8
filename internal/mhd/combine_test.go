package mhd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/abtest"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/perfcount"
)

// The oracles of the single-sweep stage. combineAdvance is the stage
// loop before the fold moved into the sweep: the right-hand side into a
// full-field k per panel, then one combine pass over the full padded
// arrays. sweepAdvance is the step as the separate full-array sweeps
// the combine itself replaced. Both take rhs(pl, k), which must fill k.

// combineAdvance is the oracle of AdvanceRK4 with RHSStage.
func combineAdvance(dt float64, pls []*Panel, ks []State, rhs func(pl *Panel, k *State), constrain func()) {
	last := len(rk4Stages) - 1
	for si, stg := range rk4Stages {
		c := stg.stepCoeff * dt
		if si == last {
			c = rk4Final * dt
		}
		for pi, pl := range pls {
			rhs(pl, &ks[pi])
			combine(pl, &ks[pi], si == 0, si == last, stg.accCoeff, c)
		}
		constrain()
	}
}

// combine is one stage's update after k holds its right-hand side, in a
// single pass over the full padded arrays, charging the counters what
// the separate sweeps charged.
func combine(pl *Panel, ks *State, first, last bool, a, c float64) {
	us, u0s, kss, accs := pl.U.Scalars(), pl.u0.Scalars(), ks.Scalars(), pl.acc.Scalars()
	for v := range us {
		u := us[v].Data
		u0, k, acc := u0s[v].Data[:len(u)], kss[v].Data[:len(u)], accs[v].Data[:len(u)]
		switch {
		case first:
			for i, x := range u {
				u0[i] = x
				acc[i] = 0*x + 0*x + a*k[i]
				u[i] = x + c*k[i]
			}
		case last:
			for i := range u {
				u[i] = u0[i] + c*(acc[i]+a*k[i])
			}
		default:
			for i := range u {
				acc[i] += a * k[i]
				u[i] = u0[i] + c*k[i]
			}
		}
	}
	flops, sweeps := int64(4), int64(2)
	if first {
		flops, sweeps = 7, 3
	}
	nrP, _, _ := pl.Patch.Padded()
	n := int64(len(us)) * int64(len(pl.U.Rho.Data))
	rows := n / int64(nrP)
	perfcount.AddFlops(n * flops)
	perfcount.AddVectorLoops(rows*sweeps, n*sweeps)
}

// sweepAdvance is the oracle of the combine: save u0, seed acc,
// accumulate k, restore U and add, in their original order.
func sweepAdvance(dt float64, pls []*Panel, ks []State, rhs func(pl *Panel, k *State), constrain func()) {
	stages := rk4Stages
	for _, pl := range pls {
		copyState(&pl.u0, &pl.U)
		linCombState(&pl.acc, 0, &pl.u0, 0, &pl.u0)
	}
	for si, stg := range stages {
		for pi, pl := range pls {
			rhs(pl, &ks[pi])
		}
		for pi, pl := range pls {
			axpyState(&pl.acc, stg.accCoeff, &ks[pi])
		}
		if si < len(stages)-1 {
			for pi, pl := range pls {
				copyState(&pl.U, &pl.u0)
				axpyState(&pl.U, stg.stepCoeff*dt, &ks[pi])
			}
			constrain()
		}
	}
	for _, pl := range pls {
		copyState(&pl.U, &pl.u0)
		axpyState(&pl.U, rk4Final*dt, &pl.acc)
	}
	constrain()
}

// foldAdvance is the stage loop with the production fold applied to a
// whole k slice by slice, in the sweep's order, halo slices included,
// charged as RHSStage charges it.
func foldAdvance(dt float64, pls []*Panel, ks []State, rhs func(pl *Panel, k *State), constrain func()) {
	AdvanceRK4(dt, pls, func(pl *Panel, st Stage) {
		pi := slices.Index(pls, pl)
		rhs(pl, &ks[pi])
		f := &pl.stage
		f.st = st
		_, _, npP := pl.Patch.Padded()
		planes := make([]float64, 8*f.plane)
		for kk := 0; kk < npP; kk++ {
			for v, sc := range ks[pi].Scalars() {
				copy(planes[v*f.plane:], sc.Data[kk*f.plane:][:f.plane])
			}
			f.fold(kk, planes, f.plane)
		}
		f.charge()
	}, constrain)
}

func copyState(dst, src *State) {
	s := src.Scalars()
	for i, f := range dst.Scalars() {
		f.CopyFrom(s[i])
	}
}

func axpyState(st *State, a float64, k *State) {
	ks := k.Scalars()
	for i, f := range st.Scalars() {
		f.AXPY(a, ks[i])
	}
}

func linCombState(st *State, a float64, x *State, b float64, y *State) {
	xs, ys := x.Scalars(), y.Scalars()
	for i, f := range st.Scalars() {
		f.LinComb(a, xs[i], b, ys[i])
	}
}

// edgeVal is pseudo-data in which every third value is a signed zero, a
// subnormal, a negative, a huge magnitude or an infinity: the inputs on
// which a reordered or re-associated fold would first show. Only the
// infinities tell the 0*u0 + 0*u0 seed from a plain zero once it is
// added to a finite value.
func edgeVal(fid, n uint64) float64 {
	special := [...]float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1.75e-309,
		-3.5, -0.125, 1e300, -1e300, math.Inf(1), math.Inf(-1),
	}
	if n%3 == 0 {
		return special[(n/3+fid)%uint64(len(special))]
	}
	return pseudoVal(fid, n)
}

// TestFoldMatchesSweeps: two steps of adversarial edgeVal right-hand
// sides folded slice by slice leave U, u0 and acc bitwise equal to the
// combine's and to the sweep sequence's over the padded arrays, halos
// included, at every stage's constraint point, and charge the counters
// the same. acc is compared with the sweeps' where it is still read:
// after the last stage neither the fold nor the combine stores it, and
// the next step reseeds it without reading it (the second step checks
// that).
func TestFoldMatchesSweeps(t *testing.T) {
	p := grid.NewPatch(grid.NewSpec(9, 13), grid.Yang, 1)
	type snap struct{ u, u0, acc [8][]float64 }
	type advancer func(float64, []*Panel, []State, func(*Panel, *State), func())
	run := func(advance advancer) ([]snap, perfcount.Snapshot) {
		pl := NewPanel(p, 1)
		k := NewState(p.Shape)
		for si, st := range []*State{&pl.U, &pl.u0, &k, &pl.acc} {
			for fi, f := range st.Scalars() {
				for n := range f.Data {
					f.Data[n] = edgeVal(uint64(8*si+fi), uint64(n))
				}
			}
		}
		calls := uint64(0)
		rhs := func(_ *Panel, k *State) {
			calls++
			for fi, f := range k.Scalars() {
				for n := range f.Data {
					f.Data[n] = edgeVal(100*calls+uint64(fi), uint64(n))
				}
			}
		}
		var snaps []snap
		constrain := func() {
			var s snap
			u, u0, acc := pl.U.Scalars(), pl.u0.Scalars(), pl.acc.Scalars()
			for fi := range s.u {
				s.u[fi] = slices.Clone(u[fi].Data)
				s.u0[fi] = slices.Clone(u0[fi].Data)
				s.acc[fi] = slices.Clone(acc[fi].Data)
			}
			snaps = append(snaps, s)
		}
		before := perfcount.Read()
		for step := 0; step < 2; step++ {
			advance(3e-3, []*Panel{pl}, []State{k}, rhs, constrain)
		}
		return snaps, perfcount.Read().Sub(before)
	}
	want, wantCount := run(sweepAdvance)
	for _, c := range []struct {
		name string
		adv  advancer
	}{
		{"combine", combineAdvance},
		{"fold", foldAdvance},
	} {
		got, gotCount := run(c.adv)
		if gotCount != wantCount || wantCount.Flops == 0 {
			t.Errorf("%s: counters %+v, sweeps charged %+v", c.name, gotCount, wantCount)
		}
		if len(got) != len(want) || len(want) != 2*len(rk4Stages) {
			t.Fatalf("%s: %d constraint calls, sweeps made %d", c.name, len(got), len(want))
		}
		for ci := range want {
			live := ci%len(rk4Stages) != len(rk4Stages)-1
			for fi := 0; fi < 8; fi++ {
				check := func(name string, a, b []float64) {
					if n := firstBitDiff(a, b); n >= 0 {
						t.Fatalf("%s: constraint call %d, %s var %d index %d: %x, sweeps %x",
							c.name, ci, name, fi, n, a[n], b[n])
					}
				}
				check("U", got[ci].u[fi], want[ci].u[fi])
				check("u0", got[ci].u0[fi], want[ci].u0[fi])
				if live {
					check("acc", got[ci].acc[fi], want[ci].acc[fi])
				}
			}
		}
	}
}

// stateDigest folds every bit of U, u0 and acc of the panels, halos
// included, into one value per variable.
func stateDigest(pls []*Panel) []uint64 {
	var out []uint64
	for _, pl := range pls {
		for _, st := range []*State{&pl.U, &pl.u0, &pl.acc} {
			for _, f := range st.Scalars() {
				h := uint64(14695981039346656037)
				for _, x := range f.Data {
					h = (h ^ math.Float64bits(x)) * 1099511628211
				}
				out = append(out, h)
			}
		}
	}
	return out
}

// solverPair returns two fresh solvers on spec, one to step and one for
// the combine oracle, with the oracle's full-field k.
func solverPair(t *testing.T, spec grid.Spec) (sv, oracle *Solver, ks []State) {
	t.Helper()
	var err error
	if sv, err = NewSolver(spec, Default(), DefaultIC()); err != nil {
		t.Fatal(err)
	}
	if oracle, err = NewSolver(spec, Default(), DefaultIC()); err != nil {
		t.Fatal(err)
	}
	ks = []State{NewState(sv.Panels[0].Patch.Shape), NewState(sv.Panels[1].Patch.Shape)}
	return sv, oracle, ks
}

// stepAgainstCombine advances sv one step through AdvanceRK4 with rhs
// and oracle one step through combineAdvance, and fails at the first
// constraint point where a variable of U, u0 or acc of either panel,
// halos included, differs.
func stepAgainstCombine(t *testing.T, sv, oracle *Solver, ks []State, dt float64, rhs func(pl *Panel, st Stage)) {
	t.Helper()
	var got, want [][]uint64
	AdvanceRK4(dt, sv.Panels[:], rhs, func() {
		got = append(got, stateDigest(sv.Panels[:]))
		sv.applyConstraints()
	})
	combineAdvance(dt, oracle.Panels[:], ks, func(pl *Panel, k *State) {
		ComputeB(pl, &pl.U)
		FinishRHS(pl, oracle.Prm, &pl.U, k, nil)
	}, func() {
		want = append(want, stateDigest(oracle.Panels[:]))
		oracle.applyConstraints()
	})
	for c := range want {
		for i := range want[c] {
			if got[c][i] != want[c][i] {
				t.Fatalf("stage %d: panel %d, %s var %d differs from the combine oracle",
					c, i/24, [...]string{"U", "u0", "acc"}[i/8%3], i%8)
			}
		}
	}
}

// TestStageMatchesCombine: the serial solver's single-sweep stages
// leave U, u0 and acc of both panels, halos included, bitwise equal to
// the right-hand side into a full-field k followed by the combine, at
// every constraint point of two steps, on three grids and with one and
// two workers (the pooled sweep folds each tile's edge slices after the
// join).
func TestStageMatchesCombine(t *testing.T) {
	for _, g := range []struct{ nr, nt int }{{9, 13}, {17, 17}, {33, 33}} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%dx%d/workers%d", g.nr, g.nt, workers), func(t *testing.T) {
				if testing.Short() && g.nr > 17 {
					t.Skip("33x33 skipped under -short")
				}
				sv, oracle, ks := solverPair(t, grid.NewSpec(g.nr, g.nt))
				pool := par.NewPool(workers)
				defer pool.Close()
				sv.SetPool(pool)
				dt := sv.EstimateDT(0.3)
				for step := 0; step < 2; step++ {
					stepAgainstCombine(t, sv, oracle, ks, dt, func(pl *Panel, st Stage) {
						ComputeB(pl, &pl.U)
						FinishStage(pl, sv.Prm, st, nil)
					})
				}
			})
		}
	}
}

// TestStageAnyTiling: the stage is correct for any tiling of the
// φ-slices run in any order, as a worker pool may run them — here tiles
// that split off the slices next to both global φ edges, run last tile
// first — not only for the tilings par.Pool happens to make. Each of
// the four stages of a step uses its own tiling.
func TestStageAnyTiling(t *testing.T) {
	sv, oracle, ks := solverPair(t, grid.NewSpec(9, 13))
	np := sv.Panels[0].Patch.Np
	tilings := [][]int{ // tile bounds, one tiling per stage
		{0, 1, np},
		{0, np - 1, np},
		{0, 2, 3, np - 2, np},
		{0, 1, 2, 3, 5, np - 3, np - 2, np - 1, np},
	}
	calls := 0
	stepAgainstCombine(t, sv, oracle, ks, sv.EstimateDT(0.3), func(pl *Panel, st Stage) {
		ComputeB(pl, &pl.U)
		divV(pl, &pl.U, nil)
		f := &pl.stage
		f.prm, f.st = sv.Prm, st
		bounds := tilings[calls/len(sv.Panels)]
		for i := len(bounds) - 2; i >= 0; i-- {
			f.tile(bounds[i], bounds[i+1])
		}
		f.join()
		calls++
	})
}

// TestAdvanceAllocs pins the step at zero allocations, serial and with
// a worker pool: the stage sweep, the column-fused curl and divergence
// and the overset exchange hand the pool tile functions bound once, and
// the rings and scratch rows are recycled.
func TestAdvanceAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			sv, err := NewSolver(grid.NewSpec(9, 13), Default(), DefaultIC())
			if err != nil {
				t.Fatal(err)
			}
			// One step takes the serial ring and rows; a pooled step
			// warms up until every worker has taken its own.
			warm := 1
			if workers > 1 {
				pool := par.NewPool(workers)
				defer pool.Close()
				sv.SetPool(pool)
				warm = 3
			}
			for n := 0; n < warm; n++ {
				sv.Advance(1e-3)
			}
			if a := testing.AllocsPerRun(5, func() { sv.Advance(1e-3) }); a != 0 {
				t.Errorf("Solver.Advance: %v allocations per step, want 0", a)
			}
		})
	}
}

// TestFoldRatio prints how many times faster a serial 33x33 step runs
// with the single-sweep stage than through a full-field k and the
// combine pass (old step time over new, median and quartiles of
// interleaved rounds). It asserts nothing: the figure is for a change's
// description.
func TestFoldRatio(t *testing.T) {
	skipTimingReport(t)
	sv, oracle, ks := solverPair(t, grid.NewSpec(33, 33))
	dt := sv.EstimateDT(0.3)
	const rounds = 31
	r := abtest.Interleave(func() {
		combineAdvance(dt, oracle.Panels[:], ks, func(pl *Panel, k *State) {
			ComputeB(pl, &pl.U)
			FinishRHS(pl, oracle.Prm, &pl.U, k, nil)
		}, oracle.applyConstraints)
	}, func() { sv.Advance(dt) }, rounds)
	t.Logf("step combine/fold %.3fx (q1 %.3f, q3 %.3f, %d rounds)", r.Median, r.Q1, r.Q3, rounds)
}

// firstBitDiff returns the first index where a and b differ in their bit
// patterns (so -0 differs from +0), or -1.
func firstBitDiff(a, b []float64) int {
	for n := range a {
		if math.Float64bits(a[n]) != math.Float64bits(b[n]) {
			return n
		}
	}
	return -1
}
