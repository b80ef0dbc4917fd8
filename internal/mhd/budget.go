package mhd

import "repro/internal/sphops"

// Budget decomposes the system's energy exchange channels, integrated
// over the shell with the overset ownership weights:
//
//	BuoyancyWork       = integral of rho g . v        (potential -> kinetic)
//	LorentzWork        = integral of v . (j x B)      (kinetic -> magnetic, negated)
//	JouleHeat          = integral of eta j^2          (magnetic -> heat)
//	ViscousDissipation = integral of Phi = 2 mu S     (kinetic -> heat)
//
// For the confined magnetic boundary (no Poynting flux through the
// walls) the magnetic energy obeys
//
//	d(Em)/dt = -LorentzWork - JouleHeat
//
// which TestMagneticEnergyBalance verifies against the measured d(Em)/dt.
//
//yyvet:ignore reach oracle for TestBudgetSigns and TestPooledEnergyBalance
type Budget struct {
	//yyvet:ignore knob read by TestBudgetSigns, the oracle's consumer
	BuoyancyWork float64
	//yyvet:ignore knob read by TestMagneticEnergyBalance and TestPooledEnergyBalance
	LorentzWork float64
	//yyvet:ignore knob read by TestMagneticEnergyBalance, TestBudgetSigns and TestPooledEnergyBalance
	JouleHeat float64
	//yyvet:ignore knob read by TestBudgetSigns, the oracle's consumer
	ViscousDissipation float64
}

// ComputeBudget evaluates the energy channels for the current state.
//
//yyvet:ignore reach oracle for TestBudgetSigns and TestPooledEnergyBalance
func ComputeBudget(sv *Solver) Budget {
	var b Budget
	for _, pl := range sv.Panels {
		ComputeVTB(pl, &pl.U)
		ComputeJ(pl)
		p := pl.Patch
		w := pl.W
		strain := w.Get()
		sphops.StrainSquared(p, pl.V, strain, w)
		h := p.H
		_, ntP, _ := p.Padded()
		for k := h; k < h+p.Np; k++ {
			for j := h; j < h+p.Nt; j++ {
				own := pl.Own[k*ntP+j]
				if own <= 0 {
					continue
				}
				rho := pl.U.Rho.Row(j, k)
				vr := pl.V.R.Row(j, k)
				vt := pl.V.T.Row(j, k)
				vp := pl.V.P.Row(j, k)
				br := pl.B.R.Row(j, k)
				bt := pl.B.T.Row(j, k)
				bp := pl.B.P.Row(j, k)
				jr := pl.J.R.Row(j, k)
				jt := pl.J.T.Row(j, k)
				jp := pl.J.P.Row(j, k)
				st := strain.Row(j, k)
				for i := h; i < h+p.Nr; i++ {
					wq := own * p.CellVolume(i, j, k)
					gR := -sv.Prm.G0 * p.InvR2[i]
					b.BuoyancyWork += wq * rho[i] * gR * vr[i]
					// v . (j x B)
					fLr := jt[i]*bp[i] - jp[i]*bt[i]
					fLt := jp[i]*br[i] - jr[i]*bp[i]
					fLp := jr[i]*bt[i] - jt[i]*br[i]
					b.LorentzWork += wq * (vr[i]*fLr + vt[i]*fLt + vp[i]*fLp)
					jsq := jr[i]*jr[i] + jt[i]*jt[i] + jp[i]*jp[i]
					b.JouleHeat += wq * sv.Prm.Eta * jsq
					b.ViscousDissipation += wq * 2 * sv.Prm.Mu * st[i]
				}
			}
		}
		w.Put(strain)
	}
	return b
}
