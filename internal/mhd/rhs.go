package mhd

import (
	"repro/internal/field"
	"repro/internal/sphops"
)

// ComputeB fills the subsidiary field B = curl A from u, valid over the
// patch nodes (the column-fused curl); a decomposed run must exchange B
// halos before the right-hand side, because the current density
// differentiates B. It is the step's only full-field pre-pass: V = f/rho
// and T = p/rho are pointwise in the state and are divided where they
// are read.
func ComputeB(pl *Panel, u *State) {
	sphops.CurlOn(pl.Patch, pl.Patch.OwnedRegion(), u.A, pl.B, pl.W)
}

// ComputeVTB fills the full fields pl.V = f/rho and pl.T = p/rho over
// the padded arrays, allocating them on first use, and B (ComputeB).
// The step never calls it; diagnostics, exports and probes that read V
// or T as fields do.
func ComputeVTB(pl *Panel, u *State) {
	if pl.V == nil {
		pl.V, pl.T = pl.Patch.NewVector(), pl.Patch.NewScalar()
	}
	pl.V.R.Quot(u.F.R, u.Rho)
	pl.V.T.Quot(u.F.T, u.Rho)
	pl.V.P.Quot(u.F.P, u.Rho)
	pl.T.Quot(u.P, u.Rho)
	ComputeB(pl, u)
}

// FinishRHS evaluates the right-hand sides of the normalized MHD system,
// eqs. (2)-(5) of the paper, into out:
//
//	d(rho)/dt = -div f
//	d(f)/dt   = -div(v f) - grad p + j x B + rho g + 2 rho v x Omega
//	            + mu (lap v + (1/3) grad div v)
//	d(p)/dt   = -v.grad p - gamma p div v
//	            + (gamma-1)(K lap T + eta j^2 + Phi)
//	d(A)/dt   = -E = v x B - eta j
//
// with g = -(G0/r^2) rhat and Phi = 2 mu (e_ij e_ij - (1/3)(div v)^2).
// ComputeB must have run (and, in a decomposed run, B halos must be
// current). Only patch nodes [H, H+N) of out are written; halos of out
// are never touched, so Runge-Kutta halo values advance only through
// explicit halo exchanges.
//
// sync, when non-nil, is called for computed intermediates that are about
// to be differentiated again and therefore need current halo values at
// decomposition seams (today: div v, whose gradient forms the
// compressive part of the viscous force). A serial full-panel solver
// passes nil: its patch edges are all global boundaries, where one-sided
// closures never read halos.
// FinishRHS is the fused evaluation: two cache-blocked column passes
// (RHSDivV, then RHSUpdate with V, T and j = curl B evaluated slice by
// slice, in rhs_fused.go) over the full owned region, bit-identical to
// the unfused FinishRHSReference — the equivalence suite in
// rhs_reference_test.go pins that. Like RHSStage it charges the four
// full-field quotients of V and T once. A decomposed rank that
// overlaps halo traffic with compute calls RHSDivV and RHSStage
// directly instead of going through FinishStage.
func FinishRHS(pl *Panel, prm Params, u, out *State, sync func(fs ...*field.Scalar)) {
	divV(pl, u, sync)
	RHSUpdate(pl, prm, u, out, pl.Patch.OwnedRegion())
	chargeVT(pl.Patch)
}

// FinishStage is FinishRHS at pl.U ending in RHSStage: the stage's
// right-hand side is folded into the state instead of stored.
func FinishStage(pl *Panel, prm Params, st Stage, sync func(fs ...*field.Scalar)) {
	divV(pl, &pl.U, sync)
	RHSStage(pl, prm, st)
}

// divV is the first phase of FinishRHS at u over the owned columns,
// with the div v halos synced when sync is given.
func divV(pl *Panel, u *State, sync func(fs ...*field.Scalar)) {
	rhsDivV(pl, u, pl.Patch.OwnedRegion())
	if sync != nil {
		sync(pl.DivV)
	}
}

// ComputeJ fills the full-field current density pl.J = curl B from the
// panel's B field, allocating pl.J on first use; ComputeB must have
// run. Diagnostics (e.g. the magnetic moment) use it outside the
// right-hand-side path.
func ComputeJ(pl *Panel) {
	RHSCurlJ(pl, pl.Patch.OwnedRegion())
}
