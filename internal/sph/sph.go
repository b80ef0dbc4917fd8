// Package sph provides the spherical-harmonic and magnetic-moment
// diagnostics used to monitor the dynamo: the growth, strength and tilt
// of the dipole component of the generated field, the quantity whose
// reversals the group's earlier work followed (Li, Sato and Kageyama
// 2002; Kageyama et al. 1999) and which section V of the paper names as
// the long-time goal of the runs.
package sph

import (
	"math"

	"repro/internal/coords"
	"repro/internal/grid"
	"repro/internal/mhd"
)

// SurfaceCoeffs are the real degree-1 spherical-harmonic coefficients
// of a scalar sampled on the sphere, in the real basis {Y10, Y11c, Y11s}
// with Schmidt-like normalization: the projections of f onto the basis
// functions below. The basis is orthogonal, so other degrees in f do not
// leak into them.
type SurfaceCoeffs struct {
	Y10, Y11c, Y11s float64
}

// basis lists the real harmonics and the normalization integrals
// int B^2 dOmega used to project.
var basis = []struct {
	name string
	fn   func(th, ph float64) float64
	norm float64
}{
	{"Y10", func(th, ph float64) float64 { return math.Cos(th) }, 4 * math.Pi / 3},
	{"Y11c", func(th, ph float64) float64 { return math.Sin(th) * math.Cos(ph) }, 4 * math.Pi / 3},
	{"Y11s", func(th, ph float64) float64 { return math.Sin(th) * math.Sin(ph) }, 4 * math.Pi / 3},
}

// AnalyzeSurface projects a per-panel sampling function onto the basis.
// sample(panel, j, k) must return the scalar at the panel's angular node
// (j, k) in padded indices; the projection weights each node with the
// panel ownership partition so the overlap counts once.
func AnalyzeSurface(sv *mhd.Solver, sample func(pl *mhd.Panel, j, k int) float64) SurfaceCoeffs {
	var raw [3]float64
	for _, pl := range sv.Panels {
		p := pl.Patch
		h := p.H
		_, ntP, _ := p.Padded()
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
				w := own * wq * p.SinT[j] * p.Dt * p.Dp
				v := sample(pl, j, k)
				// Geographic angles of this node.
				th, ph := p.Theta[j], p.Phi[k]
				if p.Panel == grid.Yang {
					th, ph = coords.YinYangAngles(th, ph)
				}
				for bi, b := range basis {
					raw[bi] += w * v * b.fn(th, ph)
				}
			}
		}
	}
	for bi, b := range basis {
		raw[bi] /= b.norm
	}
	return SurfaceCoeffs{Y10: raw[0], Y11c: raw[1], Y11s: raw[2]}
}

// DipoleVector returns the degree-1 part as a Cartesian vector
// (Y11c, Y11s, Y10) — for a radial-field expansion this is proportional
// to the dipole axis.
func (c SurfaceCoeffs) DipoleVector() coords.Cartesian {
	return coords.Cartesian{X: c.Y11c, Y: c.Y11s, Z: c.Y10}
}

// DipoleTiltDeg returns the angle in degrees between the dipole axis and
// the rotation (z) axis; 0 means an axial dipole, 90 an equatorial one.
func (c SurfaceCoeffs) DipoleTiltDeg() float64 {
	v := c.DipoleVector()
	m := math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z)
	if m <= 0 {
		return 0
	}
	return math.Acos(clamp(v.Z/m, -1, 1)) * 180 / math.Pi
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MagneticMoment computes the magnetic dipole moment of the internal
// current distribution, m = (1/2) integral of r x j dV, in geographic
// Cartesian components. For the magnetically confined shell (Br pinned
// to zero at the walls) this is the natural measure of the dynamo's
// dipole: it grows as the dynamo amplifies the seed and flips sign at a
// polarity reversal. It recomputes B and the full-field J it reads.
func MagneticMoment(sv *mhd.Solver) coords.Cartesian {
	var m coords.Cartesian
	for _, pl := range sv.Panels {
		mhd.ComputeB(pl, &pl.U)
		mhd.ComputeJ(pl)
		p := pl.Patch
		h := p.H
		_, ntP, _ := p.Padded()
		for k := h; k < h+p.Np; k++ {
			for j := h; j < h+p.Nt; j++ {
				own := pl.Own[k*ntP+j]
				if own <= 0 {
					continue
				}
				th, ph := p.Theta[j], p.Phi[k]
				for i := h; i < h+p.Nr; i++ {
					w := own * p.CellVolume(i, j, k)
					// r x j with r = r rhat: r x j = r (rhat x j) =
					// r (-jp thetahat + jt phihat).
					rxj := coords.SphVec{
						VR: 0,
						VT: -p.R[i] * pl.J.P.At(i, j, k),
						VP: p.R[i] * pl.J.T.At(i, j, k),
					}
					c := coords.SphToCartVec(th, ph, rxj)
					if p.Panel == grid.Yang {
						c = coords.YinYang(c)
					}
					m.X += 0.5 * w * c.X
					m.Y += 0.5 * w * c.Y
					m.Z += 0.5 * w * c.Z
				}
			}
		}
	}
	return m
}

// MomentMagnitude returns |m|.
func MomentMagnitude(m coords.Cartesian) float64 {
	return math.Sqrt(m.X*m.X + m.Y*m.Y + m.Z*m.Z)
}
