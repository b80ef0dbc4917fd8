package sphops

import (
	"repro/internal/fd"
	"repro/internal/field"
	"repro/internal/grid"
)

// VDotGrad computes the advective derivative (v . grad) s of a scalar:
//
//	vr ds/dr + (vt/r) ds/dt + (vp/(r sin t)) ds/dp.
func VDotGrad(p *grid.Patch, v *field.Vector, s *field.Scalar, out *field.Scalar, w *Workspace) {
	dr := w.Get()
	dt := w.Get()
	dp := w.Get()
	defer w.Put(dr, dt, dp)
	fd.Deriv1R(p, s, dr)
	fd.Deriv1T(p, s, dt)
	fd.Deriv1P(p, s, dp)
	h := p.H
	sweep(p, 8, func(j, k int) {
		or := out.Row(j, k)
		vr := v.R.Row(j, k)
		vt := v.T.Row(j, k)
		vp := v.P.Row(j, k)
		a := dr.Row(j, k)
		b := dt.Row(j, k)
		c := dp.Row(j, k)
		ist := p.InvSinT[j]
		for i := h; i < h+p.Nr; i++ {
			ir := p.InvR[i]
			or[i] = vr[i]*a[i] + vt[i]*ir*b[i] + vp[i]*ir*ist*c[i]
		}
	})
}

// DivTensorVF computes the divergence of the momentum-flux tensor
// T_ab = v_a f_b, i.e. (div (v f))_b, the advection term of eq. (3).
// The spherical-tensor Christoffel corrections are
//
//	r:  - (vt ft + vp fp)/r
//	t:  + (vt fr)/r - cot(t) (vp fp)/r
//	p:  + (vp fr)/r + cot(t) (vp ft)/r
//
// on top of the scalar-flux divergence of each component flux (vr f_b,
// vt f_b, vp f_b).
func DivTensorVF(p *grid.Patch, v, f *field.Vector, out *field.Vector, w *Workspace) {
	pr := w.Get()
	pt := w.Get()
	pp := w.Get()
	dr := w.Get()
	dt := w.Get()
	dp := w.Get()
	defer w.Put(pr, pt, pp, dr, dt, dp)

	h := p.H
	for comp, fb := range f.Components() {
		// Products v_a * f_b for the three flux directions, over the full
		// padded arrays: the derivative stencils consume them at boundary
		// nodes and (at decomposition seams) at halo nodes.
		vrD, vtD, vpD := v.R.Data, v.T.Data, v.P.Data
		fbD := fb.Data
		prD, ptD, ppD := pr.Data, pt.Data, pp.Data
		p.Par.For(len(fbD), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				prD[i] = vrD[i] * fbD[i]
				ptD[i] = vtD[i] * fbD[i]
				ppD[i] = vpD[i] * fbD[i]
			}
		})
		countFull(fb, 3)
		fd.Deriv1R(p, pr, dr)
		fd.Deriv1T(p, pt, dt)
		fd.Deriv1P(p, pp, dp)

		outc := out.Components()[comp]
		sweep(p, 12, func(j, k int) {
			or := outc.Row(j, k)
			a := dr.Row(j, k)
			b := dt.Row(j, k)
			c := dp.Row(j, k)
			prr := pr.Row(j, k)
			ptr := pt.Row(j, k)
			vtR := v.T.Row(j, k)
			vpR := v.P.Row(j, k)
			frR := f.R.Row(j, k)
			ftR := f.T.Row(j, k)
			fpR := f.P.Row(j, k)
			cot := p.CotT[j]
			ist := p.InvSinT[j]
			for i := h; i < h+p.Nr; i++ {
				ir := p.InvR[i]
				// Scalar-flux divergence of (pr, pt, pp).
				div := a[i] + 2*prr[i]*ir + ir*(b[i]+cot*ptr[i]) + ir*ist*c[i]
				// Christoffel corrections per output component.
				switch comp {
				case 0:
					div -= (vtR[i]*ftR[i] + vpR[i]*fpR[i]) * ir
				case 1:
					div += (vtR[i]*frR[i] - cot*vpR[i]*fpR[i]) * ir
				case 2:
					div += (vpR[i]*frR[i] + cot*vpR[i]*ftR[i]) * ir
				}
				or[i] = div
			}
		})
	}
}

// StrainSquared computes S = e_ij e_ij - (1/3)(div v)^2, so that the
// viscous dissipation function of eq. (6) is Phi = 2 mu S. The strain-rate
// components in spherical coordinates are
//
//	e_rr = dvr/dr
//	e_tt = (1/r) dvt/dt + vr/r
//	e_pp = (1/(r sin t)) dvp/dp + vr/r + cot(t) vt/r
//	e_rt = (1/2)((1/r) dvr/dt + dvt/dr - vt/r)
//	e_rp = (1/2)((1/(r sin t)) dvr/dp + dvp/dr - vp/r)
//	e_tp = (1/2)((1/(r sin t)) dvt/dp + (1/r) dvp/dt - cot(t) vp/r)
func StrainSquared(p *grid.Patch, v *field.Vector, out *field.Scalar, w *Workspace) {
	drvr := w.Get()
	dtvt := w.Get()
	dpvp := w.Get()
	dtvr := w.Get()
	drvt := w.Get()
	dpvr := w.Get()
	drvp := w.Get()
	dpvt := w.Get()
	dtvp := w.Get()
	defer w.Put(drvr, dtvt, dpvp, dtvr, drvt, dpvr, drvp, dpvt, dtvp)
	fd.Deriv1R(p, v.R, drvr)
	fd.Deriv1T(p, v.T, dtvt)
	fd.Deriv1P(p, v.P, dpvp)
	fd.Deriv1T(p, v.R, dtvr)
	fd.Deriv1R(p, v.T, drvt)
	fd.Deriv1P(p, v.R, dpvr)
	fd.Deriv1R(p, v.P, drvp)
	fd.Deriv1P(p, v.T, dpvt)
	fd.Deriv1T(p, v.P, dtvp)

	h := p.H
	sweep(p, 40, func(j, k int) {
		or := out.Row(j, k)
		vr := v.R.Row(j, k)
		vt := v.T.Row(j, k)
		vp := v.P.Row(j, k)
		a := drvr.Row(j, k)
		b := dtvt.Row(j, k)
		c := dpvp.Row(j, k)
		d := dtvr.Row(j, k)
		e := drvt.Row(j, k)
		f := dpvr.Row(j, k)
		g := drvp.Row(j, k)
		q := dpvt.Row(j, k)
		s := dtvp.Row(j, k)
		cot := p.CotT[j]
		ist := p.InvSinT[j]
		for i := h; i < h+p.Nr; i++ {
			ir := p.InvR[i]
			err := a[i]
			ett := ir*b[i] + vr[i]*ir
			epp := ir*ist*c[i] + vr[i]*ir + cot*vt[i]*ir
			ert := 0.5 * (ir*d[i] + e[i] - vt[i]*ir)
			erp := 0.5 * (ir*ist*f[i] + g[i] - vp[i]*ir)
			etp := 0.5 * (ir*ist*q[i] + ir*s[i] - cot*vp[i]*ir)
			div := err + ett + epp
			or[i] = err*err + ett*ett + epp*epp +
				2*(ert*ert+erp*erp+etp*etp) - div*div/3
		}
	})
}

// Cross computes the pointwise cross product a x b in spherical
// components:
//
//	(a x b)_r = at bp - ap bt
//	(a x b)_t = ap br - ar bp
//	(a x b)_p = ar bt - at br
//
// evaluated over the full padded arrays so that boundary and halo nodes
// (when valid) carry consistent values for subsequent differentiation.
//
//yyvet:ignore reach ROADMAP 6i: only TestCrossAntisymmetric and TestCrossOrthogonal call it
func Cross(a, b, out *field.Vector) {
	ar, at, ap := a.R.Data, a.T.Data, a.P.Data
	br, bt, bp := b.R.Data, b.T.Data, b.P.Data
	or, ot, op := out.R.Data, out.T.Data, out.P.Data
	for i := range or {
		or[i] = at[i]*bp[i] - ap[i]*bt[i]
		ot[i] = ap[i]*br[i] - ar[i]*bp[i]
		op[i] = ar[i]*bt[i] - at[i]*br[i]
	}
	countFull(a.R, 9)
}

// MagSquared computes the pointwise squared magnitude |v|^2 over the full
// padded arrays.
//
//yyvet:ignore reach ROADMAP 6i: only TestMagSquared calls it
func MagSquared(v *field.Vector, out *field.Scalar) {
	vr, vt, vp := v.R.Data, v.T.Data, v.P.Data
	o := out.Data
	for i := range o {
		o[i] = vr[i]*vr[i] + vt[i]*vt[i] + vp[i]*vp[i]
	}
	countFull(out, 5)
}

func countFull(f *field.Scalar, fl int) {
	nr, nt, np := f.Padded()
	n := int64(nr) * int64(nt) * int64(np)
	rows := int64(nt) * int64(np)
	// Counted through the field package's conventions.
	countN(n, rows, int64(fl))
}
