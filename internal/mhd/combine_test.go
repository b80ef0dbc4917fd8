package mhd

import (
	"math"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/perfcount"
)

// sweepAdvance is the Runge-Kutta step as the separate full-array sweeps
// AdvanceRK4's one-pass combine replaced — save u0, seed acc,
// accumulate k, restore U and add — in their original order. It is the
// combine's oracle.
func sweepAdvance(dt float64, pls []*Panel, rhs func(pl *Panel, k *State), constrain func()) {
	stages := rk4Stages
	for _, pl := range pls {
		copyState(&pl.u0, &pl.U)
		linCombState(&pl.acc, 0, &pl.u0, 0, &pl.u0)
	}
	for si, stg := range stages {
		for _, pl := range pls {
			rhs(pl, &pl.k)
		}
		for _, pl := range pls {
			axpyState(&pl.acc, stg.accCoeff, &pl.k)
		}
		if si < len(stages)-1 {
			for _, pl := range pls {
				copyState(&pl.U, &pl.u0)
				axpyState(&pl.U, stg.stepCoeff*dt, &pl.k)
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
// which a reordered or re-associated combine would first show. Only the
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

// TestCombineMatchesSweeps: two steps through AdvanceRK4 leave U, u0
// and acc bitwise equal to the sweep sequence's over the padded arrays,
// halos included, at every stage's constraint point, and charge the
// counters the same. acc is compared
// where it is still read: after the last stage the one-pass combine
// leaves it unstored, and the next step reseeds it without reading it
// (the second step checks that).
func TestCombineMatchesSweeps(t *testing.T) {
	p := grid.NewPatch(grid.NewSpec(9, 13), grid.Yang, 1)
	type snap struct{ u, u0, acc [8][]float64 }
	run := func(advance func(float64, []*Panel, func(*Panel, *State), func())) ([]snap, perfcount.Snapshot) {
		pl := NewPanel(p, 1)
		for si, st := range []*State{&pl.U, &pl.u0, &pl.k, &pl.acc} {
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
			advance(3e-3, []*Panel{pl}, rhs, constrain)
		}
		return snaps, perfcount.Read().Sub(before)
	}
	want, wantCount := run(sweepAdvance)
	got, gotCount := run(AdvanceRK4)
	if gotCount != wantCount || wantCount.Flops == 0 {
		t.Errorf("counters %+v, sweeps charged %+v", gotCount, wantCount)
	}
	if len(got) != len(want) || len(want) != 2*len(rk4Stages) {
		t.Fatalf("%d constraint calls, sweeps made %d", len(got), len(want))
	}
	for c := range want {
		live := c%len(rk4Stages) != len(rk4Stages)-1
		for fi := 0; fi < 8; fi++ {
			check := func(name string, a, b []float64) {
				if n := firstBitDiff(a, b); n >= 0 {
					t.Fatalf("constraint call %d, %s var %d index %d: %x, sweeps %x",
						c, name, fi, n, a[n], b[n])
				}
			}
			check("U", got[c].u[fi], want[c].u[fi])
			check("u0", got[c].u0[fi], want[c].u0[fi])
			if live {
				check("acc", got[c].acc[fi], want[c].acc[fi])
			}
		}
	}
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
