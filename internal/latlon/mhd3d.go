package latlon

import (
	"fmt"
	"math"

	"repro/internal/coords"
	"repro/internal/mhd"
	"repro/internal/perfcount"
)

// MHD3D is the paper's predecessor: the full compressible-MHD geodynamo
// solver on the traditional latitude-longitude grid covering the whole
// sphere, with the special treatment the poles require — offset
// colatitude rows (no node on the axis), periodic longitude, and the
// cross-pole closure under which scalar fields and radial vector
// components continue smoothly while tangential vector components flip
// sign. Physics, wall conditions and the RK4 scheme match internal/mhd
// exactly, so the two discretizations can be cross-validated; the price
// of the poles — the collapsed stable time step and the first-order
// metric amplification near the axis — is measurable on the real
// equations (not just the surface model).
//
// This solver is a validation instrument: it favours clarity (per-point
// accessor closures) over speed.
type MHD3D struct {
	Nr, Nt, Np                int
	Prm                       mhd.Params
	Dr, Dt, Dp                float64
	R, Theta                  []float64
	sinT, cosT, cotT, invSinT []float64

	// State fields in the fixed order rho, p, fr, ft, fp, ar, at, ap.
	U [8][]float64
	// Derived fields.
	vr, vt, vp, tt, dv     []float64
	br, bt, bp, jr, jt, jp []float64

	u0, k, acc [8][]float64
}

// Field order indices into U.
const (
	iRho = iota
	iP
	iFr
	iFt
	iFp
	iAr
	iAt
	iAp
)

// NewMHD3D builds and initializes the lat-lon solver with the same
// hydrostatic conduction state and smooth global perturbation as
// mhd.InitPanel, so runs are directly comparable to the Yin-Yang solver.
// Np must be even (cross-pole closure pairs meridians 180 degrees apart).
func NewMHD3D(nr, nt, np int, prm mhd.Params, ic mhd.InitialConditions) (*MHD3D, error) {
	if nr < 5 || nt < 4 || np < 8 || np%2 != 0 {
		return nil, fmt.Errorf("latlon: bad 3-D grid %dx%dx%d (need nr>=5, nt>=4, even np>=8)", nr, nt, np)
	}
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	const ri, ro = 0.35, 1.0
	s := &MHD3D{
		Nr: nr, Nt: nt, Np: np, Prm: prm,
		Dr: (ro - ri) / float64(nr-1),
		Dt: math.Pi / float64(nt),
		Dp: 2 * math.Pi / float64(np),
	}
	s.R = make([]float64, nr)
	for i := range s.R {
		s.R[i] = ri + float64(i)*s.Dr
	}
	s.Theta = make([]float64, nt)
	s.sinT = make([]float64, nt)
	s.cosT = make([]float64, nt)
	s.cotT = make([]float64, nt)
	s.invSinT = make([]float64, nt)
	for j := range s.Theta {
		th := (float64(j) + 0.5) * s.Dt
		s.Theta[j] = th
		sn, cs := math.Sincos(th)
		s.sinT[j] = sn
		s.cosT[j] = cs
		s.cotT[j] = cs / sn
		s.invSinT[j] = 1 / sn
	}
	n := nr * nt * np
	for f := 0; f < 8; f++ {
		s.U[f] = make([]float64, n)
		s.u0[f] = make([]float64, n)
		s.k[f] = make([]float64, n)
		s.acc[f] = make([]float64, n)
	}
	for _, p := range []*[]float64{&s.vr, &s.vt, &s.vp, &s.tt, &s.dv, &s.br, &s.bt, &s.bp, &s.jr, &s.jt, &s.jp} {
		*p = make([]float64, n)
	}
	s.initState(ri, ro, ic)
	s.applyWallBC()
	return s, nil
}

// initState matches mhd.InitPanel: hydrostatic conduction profile, the
// same deterministic global perturbation, and the same windowed
// uniform-Bz seed potential.
func (s *MHD3D) initState(ri, ro float64, ic mhd.InitialConditions) {
	pf := mhd.NewProfile(s.Prm, ri, ro)
	pert := mhd.NewGlobalPerturbation(ic.Modes, ic.Seed)
	for k := 0; k < s.Np; k++ {
		phi := s.Phi3D(k)
		for j := 0; j < s.Nt; j++ {
			th := s.Theta[j]
			for i := 0; i < s.Nr; i++ {
				r := s.R[i]
				pos := coords.Spherical{R: r, Theta: th, Phi: phi}.ToCartesian()
				rho := pf.Rho(r)
				w := mhd.WallWindow(r, ri, ro)
				dT := ic.PerturbAmp * w * pert.At(pos)
				id := s.idx(i, j, k)
				s.U[iRho][id] = rho
				s.U[iP][id] = rho * (pf.T(r) + dT)
				aCart := coords.Cartesian{X: -pos.Y, Y: pos.X, Z: 0}
				scale := 0.5 * ic.SeedBAmp * w
				av := coords.CartToSphVec(th, phi, coords.Cartesian{
					X: scale * aCart.X, Y: scale * aCart.Y, Z: scale * aCart.Z,
				})
				s.U[iAr][id] = av.VR
				s.U[iAt][id] = av.VT
				s.U[iAp][id] = av.VP
			}
		}
	}
}

// Phi3D returns the longitude of column k in (-pi, pi].
func (s *MHD3D) Phi3D(k int) float64 { return -math.Pi + float64(k)*s.Dp }

func (s *MHD3D) idx(i, j, k int) int { return (k*s.Nt+j)*s.Nr + i }

// at reads field f at (i, j, k) applying the periodic longitude closure
// and the cross-pole closure with the field's parity.
func (s *MHD3D) at(f []float64, par float64, i, j, k int) float64 {
	sign := 1.0
	if j < 0 {
		j = -1 - j
		k += s.Np / 2
		sign = par
	} else if j >= s.Nt {
		j = 2*s.Nt - 1 - j
		k += s.Np / 2
		sign = par
	}
	k %= s.Np
	if k < 0 {
		k += s.Np
	}
	return sign * f[(k*s.Nt+j)*s.Nr+i]
}

// Angular first/second derivatives via the closures.
func (s *MHD3D) dTh(f []float64, par float64, i, j, k int) float64 {
	return (s.at(f, par, i, j+1, k) - s.at(f, par, i, j-1, k)) / (2 * s.Dt)
}
func (s *MHD3D) d2Th(f []float64, par float64, i, j, k int) float64 {
	return (s.at(f, par, i, j+1, k) - 2*f[s.idx(i, j, k)] + s.at(f, par, i, j-1, k)) / (s.Dt * s.Dt)
}
func (s *MHD3D) dPh(f []float64, par float64, i, j, k int) float64 {
	return (s.at(f, par, i, j, k+1) - s.at(f, par, i, j, k-1)) / (2 * s.Dp)
}
func (s *MHD3D) d2Ph(f []float64, par float64, i, j, k int) float64 {
	return (s.at(f, par, i, j, k+1) - 2*f[s.idx(i, j, k)] + s.at(f, par, i, j, k-1)) / (s.Dp * s.Dp)
}

// Radial derivatives: centered inside, second-order one-sided at walls.
func (s *MHD3D) dR(f []float64, i, j, k int) float64 {
	switch {
	case i == 0:
		return (-3*f[s.idx(0, j, k)] + 4*f[s.idx(1, j, k)] - f[s.idx(2, j, k)]) / (2 * s.Dr)
	case i == s.Nr-1:
		return (3*f[s.idx(i, j, k)] - 4*f[s.idx(i-1, j, k)] + f[s.idx(i-2, j, k)]) / (2 * s.Dr)
	default:
		return (f[s.idx(i+1, j, k)] - f[s.idx(i-1, j, k)]) / (2 * s.Dr)
	}
}
func (s *MHD3D) d2R(f []float64, i, j, k int) float64 {
	switch {
	case i == 0:
		return (f[s.idx(0, j, k)] - 2*f[s.idx(1, j, k)] + f[s.idx(2, j, k)]) / (s.Dr * s.Dr)
	case i == s.Nr-1:
		return (f[s.idx(i, j, k)] - 2*f[s.idx(i-1, j, k)] + f[s.idx(i-2, j, k)]) / (s.Dr * s.Dr)
	default:
		return (f[s.idx(i+1, j, k)] - 2*f[s.idx(i, j, k)] + f[s.idx(i-1, j, k)]) / (s.Dr * s.Dr)
	}
}

// computeDerived fills v = f/rho, T = p/rho and B = curl A, then
// j = curl B, over all nodes.
func (s *MHD3D) computeDerived(u *[8][]float64) {
	n := len(s.vr)
	for id := 0; id < n; id++ {
		rho := u[iRho][id]
		s.vr[id] = u[iFr][id] / rho
		s.vt[id] = u[iFt][id] / rho
		s.vp[id] = u[iFp][id] / rho
		s.tt[id] = u[iP][id] / rho
	}
	for k := 0; k < s.Np; k++ {
		for j := 0; j < s.Nt; j++ {
			ir := 0.0
			cot := s.cotT[j]
			ist := s.invSinT[j]
			for i := 0; i < s.Nr; i++ {
				id := s.idx(i, j, k)
				ir = 1 / s.R[i]
				ar, at, ap := u[iAr], u[iAt], u[iAp]
				s.br[id] = ir*(s.dTh(ap, -1, i, j, k)+cot*ap[id]) - ir*ist*s.dPh(at, -1, i, j, k)
				s.bt[id] = ir*ist*s.dPh(ar, 1, i, j, k) - s.dR(ap, i, j, k) - ap[id]*ir
				s.bp[id] = s.dR(at, i, j, k) + at[id]*ir - ir*s.dTh(ar, 1, i, j, k)
			}
		}
	}
	for k := 0; k < s.Np; k++ {
		for j := 0; j < s.Nt; j++ {
			cot := s.cotT[j]
			ist := s.invSinT[j]
			for i := 0; i < s.Nr; i++ {
				id := s.idx(i, j, k)
				ir := 1 / s.R[i]
				s.jr[id] = ir*(s.dTh(s.bp, -1, i, j, k)+cot*s.bp[id]) - ir*ist*s.dPh(s.bt, -1, i, j, k)
				s.jt[id] = ir*ist*s.dPh(s.br, 1, i, j, k) - s.dR(s.bp, i, j, k) - s.bp[id]*ir
				s.jp[id] = s.dR(s.bt, i, j, k) + s.bt[id]*ir - ir*s.dTh(s.br, 1, i, j, k)
			}
		}
	}
	for k := 0; k < s.Np; k++ {
		for j := 0; j < s.Nt; j++ {
			cot := s.cotT[j]
			ist := s.invSinT[j]
			for i := 0; i < s.Nr; i++ {
				id := s.idx(i, j, k)
				ir := 1 / s.R[i]
				s.dv[id] = s.dR(s.vr, i, j, k) + 2*s.vr[id]*ir +
					ir*(s.dTh(s.vt, -1, i, j, k)+cot*s.vt[id]) +
					ir*ist*s.dPh(s.vp, -1, i, j, k)
			}
		}
	}
	perfcount.AddFlops(int64(n) * 60)
	perfcount.AddVectorLoops(int64(s.Nt*s.Np), int64(n))
}

// rhs evaluates the full MHD right-hand side (eqs. 2-5 of the paper)
// into out, at every node (wall-node values are later overridden by the
// boundary conditions).
func (s *MHD3D) rhs(u *[8][]float64, out *[8][]float64) {
	s.computeDerived(u)
	gamma, mu, kappa, eta, g0 := s.Prm.Gamma, s.Prm.Mu, s.Prm.Kappa, s.Prm.Eta, s.Prm.G0
	om := s.Prm.Omega

	for k := 0; k < s.Np; k++ {
		for j := 0; j < s.Nt; j++ {
			cot := s.cotT[j]
			ist := s.invSinT[j]
			ist2 := ist * ist
			cost := s.cosT[j]
			// Rotation vector along the geographic axis in local
			// spherical components (Omega_phi = 0 on the lat-lon grid).
			omR := om * s.cosT[j]
			omT := -om * s.sinT[j]
			for i := 0; i < s.Nr; i++ {
				id := s.idx(i, j, k)
				ir := 1 / s.R[i]
				ir2 := ir * ir
				rho := u[iRho][id]
				pp := u[iP][id]
				vrv, vtv, vpv := s.vr[id], s.vt[id], s.vp[id]
				divV := s.dv[id]

				// Continuity.
				divF := s.dR(u[iFr], i, j, k) + 2*u[iFr][id]*ir +
					ir*(s.dTh(u[iFt], -1, i, j, k)+cot*u[iFt][id]) +
					ir*ist*s.dPh(u[iFp], -1, i, j, k)
				out[iRho][id] = -divF

				// Advection via div(v f_b) = (div v) f_b + (v.grad) f_b
				// plus the spherical Christoffel corrections.
				gradDot := func(fb []float64, par float64) float64 {
					return vrv*s.dR(fb, i, j, k) +
						vtv*ir*s.dTh(fb, par, i, j, k) +
						vpv*ir*ist*s.dPh(fb, par, i, j, k)
				}
				advR := divV*u[iFr][id] + gradDot(u[iFr], 1) -
					(vtv*u[iFt][id]+vpv*u[iFp][id])*ir
				advT := divV*u[iFt][id] + gradDot(u[iFt], -1) +
					(vtv*u[iFr][id]-cot*vpv*u[iFp][id])*ir
				advP := divV*u[iFp][id] + gradDot(u[iFp], -1) +
					(vpv*u[iFr][id]+cot*vpv*u[iFt][id])*ir

				// Pressure gradient.
				gpR := s.dR(u[iP], i, j, k)
				gpT := ir * s.dTh(u[iP], 1, i, j, k)
				gpP := ir * ist * s.dPh(u[iP], 1, i, j, k)

				// Lorentz force.
				fLr := s.jt[id]*s.bp[id] - s.jp[id]*s.bt[id]
				fLt := s.jp[id]*s.br[id] - s.jr[id]*s.bp[id]
				fLp := s.jr[id]*s.bt[id] - s.jt[id]*s.br[id]

				// Viscous force: lap v with the spherical coupling terms
				// plus (1/3) grad(div v).
				lapS := func(f []float64, par float64) float64 {
					return s.d2R(f, i, j, k) + 2*ir*s.dR(f, i, j, k) +
						ir2*(s.d2Th(f, par, i, j, k)+cot*s.dTh(f, par, i, j, k)) +
						ir2*ist2*s.d2Ph(f, par, i, j, k)
				}
				lapR := lapS(s.vr, 1) - 2*ir2*(vrv+s.dTh(s.vt, -1, i, j, k)+cot*vtv+ist*s.dPh(s.vp, -1, i, j, k))
				lapT := lapS(s.vt, -1) + ir2*(2*s.dTh(s.vr, 1, i, j, k)-ist2*vtv-2*cost*ist2*s.dPh(s.vp, -1, i, j, k))
				lapP := lapS(s.vp, -1) + ir2*(2*ist*s.dPh(s.vr, 1, i, j, k)+2*cost*ist2*s.dPh(s.vt, -1, i, j, k)-ist2*vpv)
				gdvR := s.dR(s.dv, i, j, k)
				gdvT := ir * s.dTh(s.dv, 1, i, j, k)
				gdvP := ir * ist * s.dPh(s.dv, 1, i, j, k)

				// Coriolis 2 rho v x Omega (Omega_phi = 0).
				corR := 2 * rho * (-vpv * omT)
				corT := 2 * rho * (vpv * omR)
				corP := 2 * rho * (vrv*omT - vtv*omR)

				gR := -g0 * ir2

				out[iFr][id] = -advR - gpR + fLr + rho*gR + corR + mu*(lapR+gdvR/3)
				out[iFt][id] = -advT - gpT + fLt + corT + mu*(lapT+gdvT/3)
				out[iFp][id] = -advP - gpP + fLp + corP + mu*(lapP+gdvP/3)

				// Pressure: advection, compression, conduction, Joule and
				// viscous heating.
				vgp := vrv*gpR + vtv*gpT + vpv*gpP
				lapTT := lapS(s.tt, 1)
				jsq := s.jr[id]*s.jr[id] + s.jt[id]*s.jt[id] + s.jp[id]*s.jp[id]

				// Strain-rate dissipation Phi = 2 mu (e_ij e_ij - div^2/3).
				err2 := s.dR(s.vr, i, j, k)
				ett := ir*s.dTh(s.vt, -1, i, j, k) + vrv*ir
				epp := ir*ist*s.dPh(s.vp, -1, i, j, k) + vrv*ir + cot*vtv*ir
				ert := 0.5 * (ir*s.dTh(s.vr, 1, i, j, k) + s.dR(s.vt, i, j, k) - vtv*ir)
				erp := 0.5 * (ir*ist*s.dPh(s.vr, 1, i, j, k) + s.dR(s.vp, i, j, k) - vpv*ir)
				etp := 0.5 * (ir*ist*s.dPh(s.vt, -1, i, j, k) + ir*s.dTh(s.vp, -1, i, j, k) - cot*vpv*ir)
				strain := err2*err2 + ett*ett + epp*epp + 2*(ert*ert+erp*erp+etp*etp) - divV*divV/3

				out[iP][id] = -vgp - gamma*pp*divV +
					(gamma-1)*(kappa*lapTT+eta*jsq+2*mu*strain)

				// Induction.
				out[iAr][id] = vtv*s.bp[id] - vpv*s.bt[id] - eta*s.jr[id]
				out[iAt][id] = vpv*s.br[id] - vrv*s.bp[id] - eta*s.jt[id]
				out[iAp][id] = vrv*s.bt[id] - vtv*s.br[id] - eta*s.jp[id]
			}
		}
	}
	n := int64(len(s.vr))
	perfcount.AddFlops(n * 200)
	perfcount.AddVectorLoops(int64(s.Nt*s.Np), n)
}

// applyWallBC imposes the wall conditions of the confined configuration:
// f = 0, A = 0, p = rho*T_wall at both spheres.
func (s *MHD3D) applyWallBC() {
	const tOut = 1.0
	tIn := s.Prm.TIn
	for k := 0; k < s.Np; k++ {
		for j := 0; j < s.Nt; j++ {
			for _, wl := range [2]struct {
				i int
				t float64
			}{{0, tIn}, {s.Nr - 1, tOut}} {
				id := s.idx(wl.i, j, k)
				s.U[iFr][id] = 0
				s.U[iFt][id] = 0
				s.U[iFp][id] = 0
				s.U[iAr][id] = 0
				s.U[iAt][id] = 0
				s.U[iAp][id] = 0
				s.U[iP][id] = s.U[iRho][id] * wl.t
			}
		}
	}
}

// Advance performs one classical RK4 step, matching mhd.Solver.Advance.
func (s *MHD3D) Advance(dt float64) {
	n := len(s.U[0])
	for f := 0; f < 8; f++ {
		copy(s.u0[f], s.U[f])
		for i := range s.acc[f] {
			s.acc[f][i] = 0
		}
	}
	type stage struct{ stepCoeff, accCoeff float64 }
	stages := []stage{{0.5, 1}, {0.5, 2}, {1, 2}, {0, 1}}
	for si, stg := range stages {
		s.rhs(&s.U, &s.k)
		for f := 0; f < 8; f++ {
			for i := 0; i < n; i++ {
				s.acc[f][i] += stg.accCoeff * s.k[f][i]
			}
		}
		if si < len(stages)-1 {
			for f := 0; f < 8; f++ {
				for i := 0; i < n; i++ {
					s.U[f][i] = s.u0[f][i] + stg.stepCoeff*dt*s.k[f][i]
				}
			}
			s.applyWallBC()
		}
	}
	for f := 0; f < 8; f++ {
		for i := 0; i < n; i++ {
			s.U[f][i] = s.u0[f][i] + dt/6*s.acc[f][i]
		}
	}
	s.applyWallBC()
}

// MaxStableDt is the explicit limit including the near-pole collapse:
// the smallest physical spacing is dphi*sin(theta_0)*ri.
func (s *MHD3D) MaxStableDt(safety float64) float64 {
	s.computeDerived(&s.U)
	var vmax float64
	for id := range s.vr {
		cs2 := s.Prm.Gamma * math.Abs(s.tt[id])
		va2 := (s.br[id]*s.br[id] + s.bt[id]*s.bt[id] + s.bp[id]*s.bp[id]) /
			math.Max(s.U[iRho][id], 1e-12)
		sp := math.Sqrt(s.vr[id]*s.vr[id]+s.vt[id]*s.vt[id]+s.vp[id]*s.vp[id]) +
			math.Sqrt(cs2+va2)
		if sp > vmax {
			vmax = sp
		}
	}
	if vmax <= 0 {
		vmax = 1
	}
	ri := s.R[0]
	minDx := math.Min(s.Dr, ri*math.Min(s.Dt, s.Dp*s.sinT[0]))
	dtAdv := minDx / vmax
	diff := math.Max(s.Prm.Mu, math.Max(s.Prm.Kappa, s.Prm.Eta))
	dtDiff := math.Inf(1)
	if diff > 0 {
		dtDiff = minDx * minDx / (4 * diff)
	}
	return safety * math.Min(dtAdv, dtDiff)
}
