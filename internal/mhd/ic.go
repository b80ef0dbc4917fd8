package mhd

import (
	"math"

	"repro/internal/coords"
	"repro/internal/field"
	"repro/internal/grid"
)

// InitialConditions configure the start of a run: the hydrostatic
// conduction state plus a random temperature perturbation and an
// infinitesimally small seed of magnetic field (paper, section III).
type InitialConditions struct {
	PerturbAmp float64 // amplitude of the temperature perturbation
	SeedBAmp   float64 // amplitude of the magnetic seed field
	Modes      int     // number of random Fourier modes in the perturbation
	Seed       uint64  // deterministic seed for the random phases
}

// DefaultIC returns the standard start: small random temperature
// perturbation and a much smaller magnetic seed.
func DefaultIC() InitialConditions {
	return InitialConditions{PerturbAmp: 1e-2, SeedBAmp: 1e-4, Modes: 8, Seed: 7}
}

// Profile is the spherically symmetric hydrostatic conduction base state:
// T solves Laplace's equation between the fixed-temperature walls and rho
// balances pressure against central gravity, with rho(ro) = T(ro) = 1.
type Profile struct {
	RI, RO float64
	a, b   float64 // T(r) = a + b/r
	prm    Params
}

// NewProfile builds the base state for the given shell and parameters.
func NewProfile(prm Params, ri, ro float64) *Profile {
	// T(ri) = TIn, T(ro) = 1.
	b := (prm.TIn - 1) / (1/ri - 1/ro)
	a := 1 - b/ro
	return &Profile{RI: ri, RO: ro, a: a, b: b, prm: prm}
}

// T returns the conduction temperature at radius r.
func (pf *Profile) T(r float64) float64 { return pf.a + pf.b/r }

// dTdr returns the conduction temperature gradient at radius r.
func (pf *Profile) dTdr(r float64) float64 { return -pf.b / (r * r) }

// Rho returns the hydrostatic density at radius r, integrating
// d(rho)/dr = -rho (g0/r^2 + dT/dr)/T inward or outward from rho(ro)=1
// with fine fourth-order Runge-Kutta substeps.
func (pf *Profile) Rho(r float64) float64 {
	const steps = 256
	x := pf.RO
	y := 1.0
	hstep := (r - pf.RO) / steps
	//yyvet:ignore float-eq integration span is empty only when r equals RO exactly
	if hstep == 0 {
		return y
	}
	f := func(r, rho float64) float64 {
		return -rho * (pf.prm.G0/(r*r) + pf.dTdr(r)) / pf.T(r)
	}
	for n := 0; n < steps; n++ {
		k1 := f(x, y)
		k2 := f(x+hstep/2, y+hstep/2*k1)
		k3 := f(x+hstep/2, y+hstep/2*k2)
		k4 := f(x+hstep, y+hstep*k3)
		y += hstep / 6 * (k1 + 2*k2 + 2*k3 + k4)
		x += hstep
	}
	return y
}

// P returns the hydrostatic pressure rho*T at radius r.
func (pf *Profile) P(r float64) float64 { return pf.Rho(r) * pf.T(r) }

// perturbation is a smooth, globally defined pseudo-random scalar field:
// a superposition of plane-wave modes with deterministic pseudo-random
// wave vectors and phases. Being a function of physical (Cartesian)
// position, it is automatically consistent between the Yin and Yang
// panels and between serial and decomposed runs.
type perturbation struct {
	kvec  []coords.Cartesian
	phase []float64
	amp   []float64
}

func newPerturbation(modes int, seed uint64) *perturbation {
	p := &perturbation{}
	s := seed
	next := func() float64 {
		// splitmix64
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53) // [0,1)
	}
	for m := 0; m < modes; m++ {
		k := 2 + 4*next() // wavenumber magnitude range
		// Random direction.
		ct := 2*next() - 1
		st := math.Sqrt(1 - ct*ct)
		ph := 2 * math.Pi * next()
		p.kvec = append(p.kvec, coords.Cartesian{
			X: k * st * math.Cos(ph), Y: k * st * math.Sin(ph), Z: k * ct,
		})
		p.phase = append(p.phase, 2*math.Pi*next())
		p.amp = append(p.amp, 0.5+next())
	}
	return p
}

// At evaluates the perturbation at physical position c, normalized to be
// O(1).
func (p *perturbation) At(c coords.Cartesian) float64 {
	var s, norm float64
	for m := range p.kvec {
		k := p.kvec[m]
		s += p.amp[m] * math.Sin(k.X*c.X+k.Y*c.Y+k.Z*c.Z+p.phase[m])
		norm += p.amp[m]
	}
	if norm <= 0 {
		return 0
	}
	return s / norm
}

// window vanishes smoothly at both walls; used to confine perturbations
// and seed fields away from the boundaries.
func window(r, ri, ro float64) float64 {
	x := (r - ri) / (ro - ri)
	if x <= 0 || x >= 1 {
		return 0
	}
	return math.Sin(math.Pi*x) * math.Sin(math.Pi*x)
}

// conductionProfiles samples the hydrostatic conduction state once per
// padded radius of the patch.
func conductionProfiles(p *grid.Patch, prm Params) (rho, temp []float64) {
	s := p.Spec
	pf := NewProfile(prm, s.RI, s.RO)
	nrP, _, _ := p.Padded()
	rho = make([]float64, nrP)
	temp = make([]float64, nrP)
	for i := range rho {
		r := math.Max(p.R[i], 0.1*s.RI) // halos can poke slightly inward
		rho[i] = pf.Rho(r)
		temp[i] = pf.T(r)
	}
	return rho, temp
}

// FillConductionState sets every padded node of the panel to the
// unperturbed conduction state: rho and p from the radial profile, no
// flow, no field — what InitPanel leaves in the padding whatever the
// initial conditions, since perturbation and seed are windowed to the
// shell. It is the state of a panel built to be restored into: the
// restore overwrites the interior and the constraints rebuild what the
// stencils read, while the padding no one writes stays finite (derived
// fields divide by rho over whole arrays) and equal to a fresh start's.
// It costs two array fills, against InitPanel's trigonometry per node.
func FillConductionState(pl *Panel, prm Params) {
	p := pl.Patch
	rho, temp := conductionProfiles(p, prm)
	pres := make([]float64, len(rho))
	for i := range pres {
		pres[i] = rho[i] * temp[i]
	}
	_, ntP, npP := p.Padded()
	for k := 0; k < npP; k++ {
		for j := 0; j < ntP; j++ {
			copy(pl.U.Rho.Row(j, k), rho)
			copy(pl.U.P.Row(j, k), pres)
		}
	}
}

// InitPanel fills one panel's state with the perturbed conduction state.
// All padded nodes (halos included) are filled so that derived pointwise
// quantities remain finite everywhere.
func InitPanel(pl *Panel, prm Params, ic InitialConditions) {
	p := pl.Patch
	s := p.Spec
	pert := newPerturbation(ic.Modes, ic.Seed)

	nrP, ntP, npP := p.Padded()
	rhoProf, tProf := conductionProfiles(p, prm)
	wProf := make([]float64, nrP)
	for i := 0; i < nrP; i++ {
		wProf[i] = window(p.R[i], s.RI, s.RO)
	}

	for k := 0; k < npP; k++ {
		for j := 0; j < ntP; j++ {
			for i := 0; i < nrP; i++ {
				c := physPosition(p.Panel, p.R[i], p.Theta[j], p.Phi[k])
				rho := rhoProf[i]
				dT := ic.PerturbAmp * wProf[i] * pert.At(c)
				pl.U.Rho.Set(i, j, k, rho)
				pl.U.P.Set(i, j, k, rho*(tProf[i]+dT))
				pl.U.F.R.Set(i, j, k, 0)
				pl.U.F.T.Set(i, j, k, 0)
				pl.U.F.P.Set(i, j, k, 0)

				// Seed vector potential: a windowed uniform-Bz potential
				// A = (eps/2) w(r) zhat x x, expressed in the local frame.
				aCart := coords.Cartesian{X: -c.Y, Y: c.X, Z: 0}
				scale := 0.5 * ic.SeedBAmp * wProf[i]
				if p.Panel == grid.Yang {
					aCart = coords.YinYang(aCart)
				}
				av := coords.CartToSphVec(p.Theta[j], p.Phi[k], coords.Cartesian{
					X: scale * aCart.X, Y: scale * aCart.Y, Z: scale * aCart.Z,
				})
				pl.U.A.R.Set(i, j, k, av.VR)
				pl.U.A.T.Set(i, j, k, av.VT)
				pl.U.A.P.Set(i, j, k, av.VP)
			}
		}
	}
}

// physPosition returns the physical (Yin-frame) Cartesian position of a
// node given in a panel's own spherical coordinates.
func physPosition(panel grid.Panel, r, theta, phi float64) coords.Cartesian {
	c := coords.Spherical{R: r, Theta: theta, Phi: phi}.ToCartesian()
	if panel == grid.Yang {
		c = coords.YinYang(c)
	}
	return c
}

// fillDerivedT computes T = p/rho over the full padded arrays.
func fillDerivedT(u *State, t *field.Scalar) {
	t.Quot(u.P, u.Rho)
}

// GlobalPerturbation is the deterministic, globally defined random-mode
// perturbation, exposed so alternative solvers (e.g. the lat-lon
// baseline) can start from exactly the same initial state.
type GlobalPerturbation = perturbation

// NewGlobalPerturbation builds the perturbation for the given mode count
// and seed.
func NewGlobalPerturbation(modes int, seed uint64) *GlobalPerturbation {
	return newPerturbation(modes, seed)
}

// WallWindow exposes the smooth wall window used by the initial
// conditions.
func WallWindow(r, ri, ro float64) float64 { return window(r, ri, ro) }
