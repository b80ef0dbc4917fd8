package mhd

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/overset"
	"repro/internal/sphops"
)

// Diagnostics are volume-integrated measures of the run, reduced over
// both panels with the ownership mask so the overlap region is counted
// once.
type Diagnostics struct {
	Time      float64
	Step      int
	Mass      float64 // integral of rho
	KineticE  float64 // integral of (1/2) rho v^2
	MagneticE float64 // integral of (1/2) B^2
	InternalE float64 // integral of p/(gamma-1)
	MaxV      float64 // max |v|
	MaxB      float64 // max |B|
}

// String formats one diagnostics line.
func (d Diagnostics) String() string {
	return fmt.Sprintf("step=%6d t=%.5f mass=%.6g Ek=%.6g Em=%.6g Ei=%.6g maxV=%.4g maxB=%.4g",
		d.Step, d.Time, d.Mass, d.KineticE, d.MagneticE, d.InternalE, d.MaxV, d.MaxB)
}

// Diagnose computes the global diagnostics of the current state.
func (sv *Solver) Diagnose() Diagnostics {
	d := Diagnostics{Time: sv.Time, Step: sv.Step}
	for _, pl := range sv.Panels {
		ComputeB(pl, &pl.U)
		pd := PanelDiagnostics(pl, sv.Prm)
		d.Mass += pd.Mass
		d.KineticE += pd.KineticE
		d.MagneticE += pd.MagneticE
		d.InternalE += pd.InternalE
		if pd.MaxV > d.MaxV {
			d.MaxV = pd.MaxV
		}
		if pd.MaxB > d.MaxB {
			d.MaxB = pd.MaxB
		}
	}
	return d
}

// PanelDiagnostics reduces one panel with its ownership weights,
// dividing v = F/ρ where it reads it. ComputeB must have run for the
// panel.
func PanelDiagnostics(pl *Panel, prm Params) Diagnostics {
	p := pl.Patch
	h := p.H
	_, ntP, _ := p.Padded()
	var d Diagnostics
	for k := h; k < h+p.Np; k++ {
		for j := h; j < h+p.Nt; j++ {
			own := pl.Own[k*ntP+j]
			if own <= 0 {
				continue
			}
			rho := pl.U.Rho.Row(j, k)
			pres := pl.U.P.Row(j, k)
			fr := pl.U.F.R.Row(j, k)
			ft := pl.U.F.T.Row(j, k)
			fp := pl.U.F.P.Row(j, k)
			br := pl.B.R.Row(j, k)
			bt := pl.B.T.Row(j, k)
			bp := pl.B.P.Row(j, k)
			for i := h; i < h+p.Nr; i++ {
				w := own * p.CellVolume(i, j, k)
				vr, vt, vp := fr[i]/rho[i], ft[i]/rho[i], fp[i]/rho[i]
				v2 := vr*vr + vt*vt + vp*vp
				b2 := br[i]*br[i] + bt[i]*bt[i] + bp[i]*bp[i]
				d.Mass += w * rho[i]
				d.KineticE += 0.5 * w * rho[i] * v2
				d.MagneticE += 0.5 * w * b2
				d.InternalE += w * pres[i] / (prm.Gamma - 1)
				if v2 > d.MaxV*d.MaxV {
					d.MaxV = math.Sqrt(v2)
				}
				if b2 > d.MaxB*d.MaxB {
					d.MaxB = math.Sqrt(b2)
				}
			}
		}
	}
	return d
}

// OverlapDisagreement measures the "double solution" of the overset grid:
// the maximum relative difference between the pressure held on one panel
// and the bilinear sample of the partner panel at the same physical
// points, over the overlap region (away from the rims). The paper reports
// this difference stays within discretization error, so no blending is
// needed.
//
// The Yin<->Yang image points and their bilinear donor weights are pure
// functions of the grid spec, so they come from a cached
// overset.OverlapTable built once per spec instead of being recomputed
// on every call; the sampled values are bit-identical to the recomputed
// path (pinned by a test in internal/overset).
func OverlapDisagreement(sv *Solver) float64 {
	yin := sv.Panels[grid.Yin]
	yang := sv.Panels[grid.Yang]
	p := yin.Patch
	h := p.H
	var maxRel float64
	scale := yin.U.P.InteriorMaxAbs()
	if scale <= 0 {
		return 0
	}
	tab := overset.OverlapTableFor(sv.Spec)
	for _, s := range tab.Samples {
		j, k := s.J+h, s.K+h
		for i := h + 1; i < h+p.Nr-1; i++ {
			got := s.E.Sample(yang.U.P, h, i)
			rel := math.Abs(got-yin.U.P.At(i, j, k)) / scale
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel
}

// NusseltOuter returns the Nusselt number at the outer wall: the total
// conductive heat flux through r = RO divided by the flux the pure
// conduction profile would carry. Nu = 1 for the conduction state and
// rises as convection takes over the heat transport.
//
//yyvet:ignore reach ROADMAP 1b: second onset indicator of the regime map
func (sv *Solver) NusseltOuter() float64 {
	pf := NewProfile(sv.Prm, sv.Spec.RI, sv.Spec.RO)
	// Conduction reference: -K dT/dr * 4 pi r^2 = 4 pi K b (independent
	// of radius for the a + b/r profile).
	ref := 4 * math.Pi * (pf.T(sv.Spec.RI) - pf.T(sv.Spec.RO)) /
		(1/sv.Spec.RI - 1/sv.Spec.RO)
	//yyvet:ignore float-eq division-by-exact-zero guard on a sign-indefinite reference flux
	if ref == 0 {
		return math.NaN()
	}
	var flux float64
	for _, pl := range sv.Panels {
		p := pl.Patch
		t := func(i, j, k int) float64 { return pl.U.P.At(i, j, k) / pl.U.Rho.At(i, j, k) }
		h := p.H
		_, ntP, _ := p.Padded()
		iw := h + p.Nr - 1
		ro := p.R[iw]
		for k := h; k < h+p.Np; k++ {
			for j := h; j < h+p.Nt; j++ {
				own := pl.Own[k*ntP+j]
				if own <= 0 {
					continue
				}
				wq := 1.0
				if j == h || j == h+p.Nt-1 {
					wq *= 0.5
				}
				if k == h || k == h+p.Np-1 {
					wq *= 0.5
				}
				// One-sided second-order dT/dr at the outer wall.
				dTdr := (3*t(iw, j, k) - 4*t(iw-1, j, k) + t(iw-2, j, k)) / (2 * p.Dr)
				flux += -own * wq * dTdr * ro * ro * p.SinT[j] * p.Dt * p.Dp
			}
		}
	}
	return flux / ref
}

// sphopsDiv computes div B into out (test/diagnostic helper).
func sphopsDiv(pl *Panel, out *field.Scalar) {
	sphops.Div(pl.Patch, pl.B, out, pl.W)
}

// DivBMax returns the maximum |div B| over the panel's owned interior
// nodes (radial walls excluded, where the one-sided context dominates).
// ComputeB must have run for the panel. It allocates a scratch field
// per call, so it belongs on the diagnostic cadence, not the step path;
// the observability layer records it as the per-step solenoidal-quality
// gauge.
func DivBMax(pl *Panel) float64 {
	div := pl.Patch.NewScalar()
	sphopsDiv(pl, div)
	p := pl.Patch
	h := p.H
	_, ntP, _ := p.Padded()
	var m float64
	for k := h; k < h+p.Np; k++ {
		for j := h; j < h+p.Nt; j++ {
			if pl.Own[k*ntP+j] <= 0 {
				continue
			}
			row := div.Row(j, k)
			for i := h + 1; i < h+p.Nr-1; i++ {
				if a := math.Abs(row[i]); a > m {
					m = a
				}
			}
		}
	}
	return m
}
