package mhd

import (
	"math"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/par"
)

// pseudoVal is a deterministic splitmix64-style hash of (field id, node
// index) mapped to [-0.5, 0.5): dense, reproducible, panel-agnostic
// pseudo-data with no symmetry the kernels could accidentally exploit.
func pseudoVal(fid, n uint64) float64 {
	z := fid*0x9e3779b97f4a7c15 + n*0xd1342543de82ef95 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53) - 0.5
}

// fillPanelPseudo fills every input FinishRHS reads — the state u and
// the precomputed subsidiary field B; V and T are divided from u —
// over the full padded arrays with deterministic pseudo-data. Rho is
// offset away from zero as in any physical state.
func fillPanelPseudo(pl *Panel, u *State, seed uint64) {
	fields := []*field.Scalar{
		u.Rho, u.P, u.F.R, u.F.T, u.F.P, u.A.R, u.A.T, u.A.P,
		pl.B.R, pl.B.T, pl.B.P,
	}
	for fi, f := range fields {
		off := 0.0
		if f == u.Rho {
			off = 1.0
		}
		for n := range f.Data {
			f.Data[n] = off + pseudoVal(seed+uint64(fi), uint64(n))
		}
	}
}

// pseudoSync plays the role of the decomposed aux halo exchange for a
// stand-alone panel: it overwrites every non-owned (halo) node of the
// synced fields with deterministic pseudo-data. Both the fused and the
// reference evaluation sync through it, so their rim stencils read
// identical "exchanged" halo values — exactly the contract the real
// exchange provides.
func pseudoSync(p *grid.Patch) func(fs ...*field.Scalar) {
	return func(fs ...*field.Scalar) {
		h := p.H
		nrP, ntP, npP := p.Padded()
		for fi, f := range fs {
			for k := 0; k < npP; k++ {
				for j := 0; j < ntP; j++ {
					for i := 0; i < nrP; i++ {
						owned := i >= h && i < h+p.Nr &&
							j >= h && j < h+p.Nt &&
							k >= h && k < h+p.Np
						if owned {
							continue
						}
						n := (k*ntP+j)*nrP + i
						f.Data[n] = pseudoVal(0xA0B1+uint64(fi), uint64(n))
					}
				}
			}
		}
	}
}

// TestFusedRHSBitIdentical pins the tentpole contract of the kernel
// fusion: FinishRHS (the fused three-phase evaluation) produces bitwise
// the same right-hand side as FinishRHSReference (the unfused sweep
// sequence it replaced), across panel kinds, boundary placements
// (all-global-edge full panels, interior blocks whose four angular sides
// are all seams, corner blocks mixing one-sided closures and seams, and
// the phi-strip shape the real decomposition produces), and
// serial/pooled execution.
func TestFusedRHSBitIdentical(t *testing.T) {
	spec := grid.NewSpec(9, 9)
	cases := []struct {
		name string
		mk   func() *grid.Patch
	}{
		{"yin-full-panel", func() *grid.Patch {
			return grid.NewPatch(spec, grid.Yin, 1)
		}},
		{"yang-full-panel", func() *grid.Patch {
			return grid.NewPatch(spec, grid.Yang, 1)
		}},
		{"interior-block-all-seams", func() *grid.Patch {
			return grid.NewSubPatch(spec, grid.Yin, 1, 0, spec.Nr, 2, 7, 8, 18)
		}},
		{"corner-block-mixed", func() *grid.Patch {
			return grid.NewSubPatch(spec, grid.Yang, 1, 0, spec.Nr, 0, 5, 0, 13)
		}},
		{"phi-strip-decomposed", func() *grid.Patch {
			return grid.NewSubPatch(spec, grid.Yin, 1, 0, spec.Nr, 0, spec.Nt, 12, spec.Np)
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			name := tc.name + "-serial"
			if workers > 1 {
				name = tc.name + "-pooled"
			}
			t.Run(name, func(t *testing.T) {
				p := tc.mk()
				if workers > 1 {
					pool := par.NewPool(workers)
					defer pool.Close()
					p.Par = pool
				}
				pl := NewPanel(p, Default().Omega)
				u := NewState(p.Shape)
				fillPanelPseudo(pl, &u, 17)

				var sync func(fs ...*field.Scalar)
				seamed := !p.GlobalEdge(2) || !p.GlobalEdge(3) ||
					!p.GlobalEdge(4) || !p.GlobalEdge(5)
				if seamed {
					sync = pseudoSync(p)
				}

				ref := NewState(p.Shape)
				fused := NewState(p.Shape)
				FinishRHSReference(pl, Default(), &u, &ref, sync)
				FinishRHS(pl, Default(), &u, &fused, sync)

				h := p.H
				for vi, rf := range ref.Scalars() {
					ff := fused.Scalars()[vi]
					for k := h; k < h+p.Np; k++ {
						for j := h; j < h+p.Nt; j++ {
							for i := h; i < h+p.Nr; i++ {
								a := rf.At(i, j, k)
								b := ff.At(i, j, k)
								if a != b {
									t.Fatalf("var %d node (%d,%d,%d): reference %x fused %x",
										vi, i, j, k, a, b)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestFusedRHSRegionCover pins that evaluating RHSUpdate as interior
// then rim — an overlapped schedule's split — writes bitwise the same
// right-hand side as one full-region pass, and that RHSDivV and the
// diagnostics' RHSCurlJ split the same way. This is the panel-local
// half of the overlap correctness argument; the decomp suite covers the
// message timing.
func TestFusedRHSRegionCover(t *testing.T) {
	spec := grid.NewSpec(9, 9)
	p := grid.NewSubPatch(spec, grid.Yin, 1, 0, spec.Nr, 0, spec.Nt, 6, 19)
	pl := NewPanel(p, Default().Omega)
	u := &pl.U // RHSDivV divides v from pl.U
	fillPanelPseudo(pl, u, 23)
	sync := pseudoSync(p)

	full := NewState(p.Shape)
	FinishRHS(pl, Default(), u, &full, sync)
	ComputeJ(pl)
	fullJ := [3][]float64{slices.Clone(pl.J.R.Data), slices.Clone(pl.J.T.Data), slices.Clone(pl.J.P.Data)}

	// The block's seams are its two φ edges: the interior keeps one
	// column (the stencil radius) away from both, the rim is the rest.
	own := p.Owned()
	interior := grid.Rect{J0: own.J0, J1: own.J1, K0: own.K0 + 1, K1: own.K1 - 1}
	rim := grid.Region{
		{J0: own.J0, J1: own.J1, K0: own.K0, K1: own.K0 + 1},
		{J0: own.J0, J1: own.J1, K0: own.K1 - 1, K1: own.K1},
	}
	split := NewState(p.Shape)
	RHSDivV(pl, grid.Region{interior})
	RHSDivV(pl, rim)
	sync(pl.DivV)
	RHSUpdate(pl, Default(), u, &split, grid.Region{interior})
	RHSUpdate(pl, Default(), u, &split, rim)
	for _, f := range pl.J.Components() {
		clear(f.Data)
	}
	RHSCurlJ(pl, grid.Region{interior})
	RHSCurlJ(pl, rim)
	for c, f := range pl.J.Components() {
		if n := firstBitDiff(f.Data, fullJ[c]); n >= 0 {
			t.Fatalf("j component %d index %d: split %x, full %x", c, n, f.Data[n], fullJ[c][n])
		}
	}

	h := p.H
	for vi, a := range full.Scalars() {
		b := split.Scalars()[vi]
		for k := h; k < h+p.Np; k++ {
			for j := h; j < h+p.Nt; j++ {
				for i := h; i < h+p.Nr; i++ {
					if a.At(i, j, k) != b.At(i, j, k) {
						t.Fatalf("var %d node (%d,%d,%d): full %x split %x",
							vi, i, j, k, a.At(i, j, k), b.At(i, j, k))
					}
				}
			}
		}
	}
}

// fusedSpeedupMin is the live fused-vs-reference tripwire. The fused
// FinishRHS measures 1.8-2.1x the reference on the development host
// (benchmark/ reports the live figure as mhd.finish_rhs_ref_ratio);
// the bound sits well under that because the reference shares the
// bounds-check-hardened fd kernels with the fused path, so a same-run
// ratio understates the gain over the original unfused code, and
// shared-host noise adds +-20% on top. The test exists to catch the
// fused path itself collapsing, not to re-prove a speedup figure.
const fusedSpeedupMin = 1.4

// TestFusedRHSSpeedupTripwire re-measures the fused FinishRHS against
// the unfused reference on the 17x17x49 panel: the ratio of the fastest
// of up to three interleaved testing.Benchmark runs of each must stay
// above fusedSpeedupMin.
func TestFusedRHSSpeedupTripwire(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test: skipped under -short")
	}
	sv, err := NewSolver(grid.NewSpec(17, 17), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	pl := sv.Panels[grid.Yin]
	rhs := NewState(pl.U.P.Shape)
	prm := Default()
	ComputeVTB(pl, &pl.U)
	nsPerOp := func(fn func()) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				fn()
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	// A disturbance only ever adds time, so the minimum per side is
	// the honest sample; stop as soon as the minima clear the bound.
	fused, ref, ratio := math.Inf(1), math.Inf(1), 0.0
	for i := 0; i < 3 && ratio < fusedSpeedupMin; i++ {
		fused = math.Min(fused, nsPerOp(func() { FinishRHS(pl, prm, &pl.U, &rhs, nil) }))
		ref = math.Min(ref, nsPerOp(func() { FinishRHSReference(pl, prm, &pl.U, &rhs, nil) }))
		ratio = ref / fused
	}
	t.Logf("fused %.0f ns/op, reference %.0f ns/op, ratio %.2fx", fused, ref, ratio)
	if ratio < fusedSpeedupMin {
		t.Fatalf("fused FinishRHS is only %.2fx the unfused reference (%.0f vs %.0f ns/op), tripwire %.1fx",
			ratio, fused, ref, fusedSpeedupMin)
	}
}
