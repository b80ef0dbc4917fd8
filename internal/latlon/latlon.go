// Package latlon implements the baseline the paper's yycore code was
// converted from: finite differences on the traditional full
// latitude-longitude spherical grid, including the special treatment the
// poles require. The paper's motivation for the Yin-Yang grid is exactly
// this package's pathology: the coordinate singularity and the grid
// convergence near the poles degrade both the numerics (the explicit
// time step collapses with the longitudinal spacing dphi*sin(theta)) and
// the efficiency.
//
// The package provides a spherical-surface advection-diffusion solver on
// both grids — the full lat-lon grid with pole closure, and the Yin-Yang
// pair with overset rim interpolation — so the two discretizations of
// the same equation can be compared head to head (ablations A1 and A3 of
// DESIGN.md).
package latlon

import (
	"fmt"
	"math"

	"repro/internal/perfcount"
)

// SurfaceGrid is a full-sphere latitude-longitude surface grid. The
// colatitude rows are offset by half a spacing so no node sits exactly on
// a pole (theta_j = (j+1/2) pi/Nt); longitude is periodic with Np nodes.
// Np must be even so that the cross-pole closure can pair each meridian
// with the one 180 degrees away.
type SurfaceGrid struct {
	Nt, Np  int
	Dt, Dp  float64
	Theta   []float64
	SinT    []float64
	CotT    []float64
	InvSinT []float64
}

// NewSurfaceGrid builds the grid; Np must be even and both extents at
// least 4.
func NewSurfaceGrid(nt, np int) (*SurfaceGrid, error) {
	if nt < 4 || np < 4 || np%2 != 0 {
		return nil, fmt.Errorf("latlon: need nt,np >= 4 and even np, got %dx%d", nt, np)
	}
	g := &SurfaceGrid{
		Nt: nt, Np: np,
		Dt: math.Pi / float64(nt),
		Dp: 2 * math.Pi / float64(np),
	}
	g.Theta = make([]float64, nt)
	g.SinT = make([]float64, nt)
	g.CotT = make([]float64, nt)
	g.InvSinT = make([]float64, nt)
	for j := 0; j < nt; j++ {
		th := (float64(j) + 0.5) * g.Dt
		g.Theta[j] = th
		s, c := math.Sincos(th)
		g.SinT[j] = s
		g.CotT[j] = c / s
		g.InvSinT[j] = 1 / s
	}
	return g, nil
}

// Field is a scalar on the surface grid, indexed j*Np + k.
type Field []float64

// NewField allocates a zeroed field for the grid.
func (g *SurfaceGrid) NewField() Field { return make(Field, g.Nt*g.Np) }

func mod(k, n int) int {
	k %= n
	if k < 0 {
		k += n
	}
	return k
}

// northOf returns the value one row toward theta- of (j, k): an ordinary
// neighbour for j > 0, and the cross-pole closure for the first row —
// the grid line continues over the pole onto the meridian 180 degrees
// away. This is the "special care at the poles" of the paper.
func (g *SurfaceGrid) northOf(f Field, j, k int) float64 {
	if j > 0 {
		return f[(j-1)*g.Np+k]
	}
	return f[0*g.Np+mod(k+g.Np/2, g.Np)]
}

// southOf is the theta+ analogue of northOf.
func (g *SurfaceGrid) southOf(f Field, j, k int) float64 {
	if j < g.Nt-1 {
		return f[(j+1)*g.Np+k]
	}
	return f[(g.Nt-1)*g.Np+mod(k+g.Np/2, g.Np)]
}

// Laplacian computes the surface (unit-sphere) Laplacian
//
//	lap f = d2f/dt2 + cot(t) df/dt + (1/sin^2 t) d2f/dp2
//
// with second-order central differences, the periodic longitude closure,
// and the cross-pole closure in colatitude.
func (g *SurfaceGrid) Laplacian(f, out Field) {
	idt2 := 1 / (g.Dt * g.Dt)
	idt := 1 / (2 * g.Dt)
	idp2 := 1 / (g.Dp * g.Dp)
	for j := 0; j < g.Nt; j++ {
		cot := g.CotT[j]
		is2 := g.InvSinT[j] * g.InvSinT[j]
		for k := 0; k < g.Np; k++ {
			c := f[j*g.Np+k]
			n := g.northOf(f, j, k)
			s := g.southOf(f, j, k)
			e := f[j*g.Np+mod(k+1, g.Np)]
			w := f[j*g.Np+mod(k-1, g.Np)]
			out[j*g.Np+k] = (n-2*c+s)*idt2 + cot*(s-n)*idt + (e-2*c+w)*is2*idp2
		}
	}
	n := int64(g.Nt * g.Np)
	perfcount.AddFlops(n * 12)
	// Longitude is the natural inner (vectorizable) dimension here.
	perfcount.AddVectorLoops(int64(g.Nt), n)
	perfcount.AddScalarOps(int64(g.Nt) * 4) // pole-row bookkeeping
}

// SolidRotationAdvect computes -(u . grad) f for solid-body rotation
// about the polar axis with unit angular velocity: u_phi = sin(theta),
// so -(u.grad) f = -df/dphi.
func (g *SurfaceGrid) SolidRotationAdvect(f, out Field) {
	idp := 1 / (2 * g.Dp)
	for j := 0; j < g.Nt; j++ {
		for k := 0; k < g.Np; k++ {
			e := f[j*g.Np+mod(k+1, g.Np)]
			w := f[j*g.Np+mod(k-1, g.Np)]
			out[j*g.Np+k] = -(e - w) * idp
		}
	}
	n := int64(g.Nt * g.Np)
	perfcount.AddFlops(n * 3)
	perfcount.AddVectorLoops(int64(g.Nt), n)
}

// MaxStableDt returns the explicit stability limit of the combined
// advection-diffusion step. Near the poles the physical longitudinal
// spacing is dphi*sin(theta) while the advecting velocity stays finite,
// and the diffusive limit collapses like (dphi sin theta)^2 — this is
// the pole pathology that throttles the whole grid.
func (g *SurfaceGrid) MaxStableDt(kappa, uMax float64) float64 {
	minSpacing := g.Dp * g.SinT[0] // first off-pole row
	if g.Dt < minSpacing {
		minSpacing = g.Dt
	}
	dt := math.Inf(1)
	if uMax > 0 {
		dt = minSpacing / uMax
	}
	if kappa > 0 {
		// The diffusive limit is set by the smallest spacing; CFL-like
		// constant 1/4 for the 2-D five-point stencil.
		if d := minSpacing * minSpacing / (4 * kappa); d < dt {
			dt = d
		}
	}
	return dt
}

// HeatSolver advances df/dt = kappa lap f - adv*(u.grad) f with RK4 on
// the lat-lon surface grid.
type HeatSolver struct {
	G     *SurfaceGrid
	Kappa float64
	Adv   float64 // solid-rotation advection strength (0 = pure diffusion)
	F     Field

	k1, k2, k3, k4, tmp, scratch Field
}

// NewHeatSolver allocates a solver with a zero field.
func NewHeatSolver(g *SurfaceGrid, kappa, adv float64) *HeatSolver {
	return &HeatSolver{
		G: g, Kappa: kappa, Adv: adv, F: g.NewField(),
		k1: g.NewField(), k2: g.NewField(), k3: g.NewField(), k4: g.NewField(),
		tmp: g.NewField(), scratch: g.NewField(),
	}
}

func (s *HeatSolver) rhs(f, out Field) {
	s.G.Laplacian(f, out)
	for i := range out {
		out[i] *= s.Kappa
	}
	//yyvet:ignore float-eq Adv is a config value: exactly zero means advection disabled, any other value takes the advection path
	if s.Adv != 0 {
		s.G.SolidRotationAdvect(f, s.scratch)
		for i := range out {
			out[i] += s.Adv * s.scratch[i]
		}
	}
	perfcount.AddFlops(int64(2 * len(out)))
}

// Step advances one RK4 step of size dt.
func (s *HeatSolver) Step(dt float64) {
	g := s.G
	s.rhs(s.F, s.k1)
	for i := range s.tmp {
		s.tmp[i] = s.F[i] + dt/2*s.k1[i]
	}
	s.rhs(s.tmp, s.k2)
	for i := range s.tmp {
		s.tmp[i] = s.F[i] + dt/2*s.k2[i]
	}
	s.rhs(s.tmp, s.k3)
	for i := range s.tmp {
		s.tmp[i] = s.F[i] + dt*s.k3[i]
	}
	s.rhs(s.tmp, s.k4)
	for i := range s.F {
		s.F[i] += dt / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
	}
	perfcount.AddFlops(int64(10 * g.Nt * g.Np))
}

// SetFromFunc fills the field from a function of (theta, phi).
func (s *HeatSolver) SetFromFunc(fn func(theta, phi float64) float64) {
	g := s.G
	for j := 0; j < g.Nt; j++ {
		for k := 0; k < g.Np; k++ {
			s.F[j*g.Np+k] = fn(g.Theta[j], float64(k)*g.Dp-math.Pi)
		}
	}
}
