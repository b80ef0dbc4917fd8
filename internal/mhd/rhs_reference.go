package mhd

import (
	"repro/internal/field"
	"repro/internal/perfcount"
	"repro/internal/sphops"
)

// FinishRHSReference is the unfused right-hand-side evaluation: one
// full-field sphops sweep per operator, exactly as FinishRHS was written
// before the kernels were fused. It is kept (a) as the oracle the fusion
// equivalence suite (rhs_reference_test.go) pins FinishRHS against,
// bit for bit, and (b) as the baseline TestFusedRHSSpeedupTripwire and
// benchmark/'s mhd.finish_rhs_ref_ratio measure the fusion speedup
// from. Like FinishRHS it starts from u and B: it divides V = f/rho and
// T = p/rho itself, over the full padded arrays, so both sides of the
// comparison do the same work. Its arithmetic must not be edited except
// in lockstep with a deliberate re-derivation of the fused kernel.
func FinishRHSReference(pl *Panel, prm Params, u, out *State, sync func(fs ...*field.Scalar)) {
	p := pl.Patch
	w := pl.W
	h := p.H

	// Scratch fields: V and T, then the current density j = curl B.
	vel := &field.Vector{R: w.Get(), T: w.Get(), P: w.Get()}
	temp := w.Get()
	defer w.Put(vel.R, vel.T, vel.P, temp)
	vel.R.Quot(u.F.R, u.Rho)
	vel.T.Quot(u.F.T, u.Rho)
	vel.P.Quot(u.F.P, u.Rho)
	temp.Quot(u.P, u.Rho)

	jv := &field.Vector{R: w.Get(), T: w.Get(), P: w.Get()}
	defer w.Put(jv.R, jv.T, jv.P)
	sphops.Curl(p, pl.B, jv, w)

	divF := w.Get()
	divV := w.Get()
	vgp := w.Get()
	lapT := w.Get()
	strain := w.Get()
	defer w.Put(divF, divV, vgp, lapT, strain)

	sphops.Div(p, u.F, divF, w)
	sphops.Div(p, vel, divV, w)
	sphops.VDotGrad(p, vel, u.P, vgp, w)
	sphops.LapScalar(p, temp, lapT, w)
	sphops.StrainSquared(p, vel, strain, w)

	// The momentum equation's operator outputs, from the same pool: only
	// a panel that runs the reference ever holds them.
	vec := func() *field.Vector { return &field.Vector{R: w.Get(), T: w.Get(), P: w.Get()} }
	adv, gp, lap, gdv := vec(), vec(), vec(), vec()
	defer func() {
		for _, v := range [...]*field.Vector{adv, gp, lap, gdv} {
			w.Put(v.R, v.T, v.P)
		}
	}()

	sphops.DivTensorVF(p, vel, u.F, adv, w)
	sphops.Grad(p, u.P, gp, w)
	sphops.LapVector(p, vel, lap, w)
	if sync != nil {
		sync(divV)
	}
	sphops.Grad(p, divV, gdv, w)

	gamma, mu, kappa, eta, g0 := prm.Gamma, prm.Mu, prm.Kappa, prm.Eta, prm.G0
	_, ntP, _ := p.Padded()

	// The final update loop, range-split over phi: every k writes only
	// its own rows of out, so the parallel form is bit-identical.
	p.Par.For(p.Np, func(klo, khi int) {
		for k := h + klo; k < h+khi; k++ {
			for j := h; j < h+p.Nt; j++ {
				idx := k*ntP + j
				omR, omT, omP := pl.OmR[idx], pl.OmT[idx], pl.OmP[idx]

				rho := u.Rho.Row(j, k)
				pp := u.P.Row(j, k)
				vr := vel.R.Row(j, k)
				vt := vel.T.Row(j, k)
				vp := vel.P.Row(j, k)
				br := pl.B.R.Row(j, k)
				bt := pl.B.T.Row(j, k)
				bp := pl.B.P.Row(j, k)
				jr := jv.R.Row(j, k)
				jt := jv.T.Row(j, k)
				jp := jv.P.Row(j, k)

				oRho := out.Rho.Row(j, k)
				oP := out.P.Row(j, k)
				oFr := out.F.R.Row(j, k)
				oFt := out.F.T.Row(j, k)
				oFp := out.F.P.Row(j, k)
				oAr := out.A.R.Row(j, k)
				oAt := out.A.T.Row(j, k)
				oAp := out.A.P.Row(j, k)

				dF := divF.Row(j, k)
				dV := divV.Row(j, k)
				vg := vgp.Row(j, k)
				lT := lapT.Row(j, k)
				st := strain.Row(j, k)
				advR := adv.R.Row(j, k)
				advT := adv.T.Row(j, k)
				advP := adv.P.Row(j, k)
				gpR := gp.R.Row(j, k)
				gpT := gp.T.Row(j, k)
				gpP := gp.P.Row(j, k)
				lapR := lap.R.Row(j, k)
				lapTc := lap.T.Row(j, k)
				lapP := lap.P.Row(j, k)
				gdvR := gdv.R.Row(j, k)
				gdvT := gdv.T.Row(j, k)
				gdvP := gdv.P.Row(j, k)

				for i := h; i < h+p.Nr; i++ {
					// Continuity, eq. (2).
					oRho[i] = -dF[i]

					// Lorentz force j x B.
					fLr := jt[i]*bp[i] - jp[i]*bt[i]
					fLt := jp[i]*br[i] - jr[i]*bp[i]
					fLp := jr[i]*bt[i] - jt[i]*br[i]

					// Gravity (radial) and Coriolis 2 rho v x Omega.
					gR := -g0 * p.InvR2[i]
					corR := 2 * rho[i] * (vt[i]*omP - vp[i]*omT)
					corT := 2 * rho[i] * (vp[i]*omR - vr[i]*omP)
					corP := 2 * rho[i] * (vr[i]*omT - vt[i]*omR)

					// Momentum, eq. (3).
					oFr[i] = -advR[i] - gpR[i] + fLr + rho[i]*gR + corR +
						mu*(lapR[i]+gdvR[i]/3)
					oFt[i] = -advT[i] - gpT[i] + fLt + corT +
						mu*(lapTc[i]+gdvT[i]/3)
					oFp[i] = -advP[i] - gpP[i] + fLp + corP +
						mu*(lapP[i]+gdvP[i]/3)

					// Pressure, eq. (4).
					jsq := jr[i]*jr[i] + jt[i]*jt[i] + jp[i]*jp[i]
					oP[i] = -vg[i] - gamma*pp[i]*dV[i] +
						(gamma-1)*(kappa*lT[i]+eta*jsq+2*mu*st[i])

					// Induction, eq. (5): dA/dt = -E = v x B - eta j.
					oAr[i] = vt[i]*bp[i] - vp[i]*bt[i] - eta*jr[i]
					oAt[i] = vp[i]*br[i] - vr[i]*bp[i] - eta*jt[i]
					oAp[i] = vr[i]*bt[i] - vt[i]*br[i] - eta*jp[i]
				}
			}
		}
	})
	n := int64(p.Nr) * int64(p.Nt) * int64(p.Np)
	perfcount.AddFlops(n * 70)
	perfcount.AddVectorLoops(int64(p.Nt)*int64(p.Np), n)
}
