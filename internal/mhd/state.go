package mhd

import (
	"math"

	"repro/internal/coords"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/sphops"
)

// State bundles the basic variables of the simulation on one panel:
// mass density rho, pressure p, mass flux density F = rho*v, and the
// magnetic vector potential A.
type State struct {
	Rho, P *field.Scalar
	F, A   *field.Vector
}

// NewState allocates a zeroed state of shape s.
func NewState(s field.Shape) State {
	return State{
		Rho: field.NewScalar(s),
		P:   field.NewScalar(s),
		F:   field.NewVector(s),
		A:   field.NewVector(s),
	}
}

// Scalars returns the eight scalar fields of the state in a fixed order
// (rho, p, Fr, Ft, Fp, Ar, At, Ap), used by halo exchange and I/O.
func (st *State) Scalars() [8]*field.Scalar {
	return [8]*field.Scalar{
		st.Rho, st.P,
		st.F.R, st.F.T, st.F.P,
		st.A.R, st.A.T, st.A.P,
	}
}

// Panel holds everything one component grid needs to evaluate the MHD
// right-hand side: the patch geometry, the state, scratch storage, and
// precomputed per-node rotation-vector components and ownership weights.
type Panel struct {
	Patch *grid.Patch
	U     State // current state

	// Runge-Kutta storage: the stage's start state and accumulated
	// right-hand sides. The right-hand side itself never exists as a
	// full field; stage holds it a few φ-slices at a time.
	u0, acc State
	stage   stager
	cols    regionCols // RHSDivV's and RHSUpdate's region sweep

	// B = curl A, rebuilt by ComputeB before each evaluation.
	B *field.Vector

	// V = F/ρ and T = P/ρ as full fields, for diagnostics and exports
	// only: nil until ComputeVTB first fills them. The step divides
	// them a φ-slice at a time where it reads them (vtRing) and never
	// reads these.
	V *field.Vector
	T *field.Scalar

	// J is the current density curl B as a full field, for diagnostics
	// only: nil until RHSCurlJ (or ComputeJ) first fills it. The step
	// evaluates j a φ-slice at a time and never reads J.
	J *field.Vector

	// div v, computed by RHSDivV each evaluation. A dedicated field
	// rather than workspace scratch because a decomposed rank exchanges
	// its seam halos (the aux exchange) between computing it and
	// differentiating it for the compressive viscous force.
	DivV *field.Scalar

	// Scratch of the kernels: per-worker radial rows while stepping,
	// full fields only for the reference and diagnostic operators.
	W *sphops.Workspace

	// Rotation vector Omega in this panel's local spherical components,
	// indexed [k*ntPadded + j] (independent of radius).
	OmR, OmT, OmP []float64

	// Ownership weight per angular node, same indexing: a partition of
	// unity across the overset pair used for global reductions. Outside
	// the overlap the weight is 1; inside, it blends smoothly with the
	// partner so the two weights of any physical point sum to exactly 1.
	Own []float64
}

// NewPanel builds a panel solver block for the given patch and rotation
// rate. The patch may be a full panel or a decomposed sub-block.
func NewPanel(p *grid.Patch, omega float64) *Panel {
	pl := &Panel{
		Patch: p,
		U:     NewState(p.Shape),
		u0:    NewState(p.Shape),
		acc:   NewState(p.Shape),
		B:     p.NewVector(),
		DivV:  p.NewScalar(),
		W:     sphops.NewWorkspace(p),
	}
	pl.stage.init(pl)
	pl.cols.init(pl)
	pl.precomputeOmega(omega)
	pl.precomputeOwnership()
	return pl
}

// precomputeOmega stores the local spherical components of the rotation
// vector. Omega points along the geographic (Yin) z axis; in the Yang
// frame the same physical vector is obtained with the Yin<->Yang map.
// This is the only place the two panels differ: every solver routine is
// panel-agnostic, as the paper emphasizes.
func (pl *Panel) precomputeOmega(omega float64) {
	p := pl.Patch
	_, ntP, npP := p.Padded()
	n := ntP * npP
	pl.OmR = make([]float64, n)
	pl.OmT = make([]float64, n)
	pl.OmP = make([]float64, n)
	omCart := coords.Cartesian{X: 0, Y: 0, Z: omega}
	if p.Panel == grid.Yang {
		omCart = coords.YinYang(omCart)
	}
	for k := 0; k < npP; k++ {
		for j := 0; j < ntP; j++ {
			s := coords.CartToSphVec(p.Theta[j], p.Phi[k], omCart)
			pl.OmR[k*ntP+j] = s.VR
			pl.OmT[k*ntP+j] = s.VT
			pl.OmP[k*ntP+j] = s.VP
		}
	}
}

// precomputeOwnership builds a partition of unity over the overset pair
// for global reductions: each angular node is weighted by its rim
// distance relative to the rim distance of its image in the partner
// panel, so the weights of the same physical point on the two panels sum
// to exactly 1. The blend is smooth across the overlap, which keeps the
// two-grid quadrature second-order accurate; the rule is symmetric under
// the Yin<->Yang map.
func (pl *Panel) precomputeOwnership() {
	p := pl.Patch
	_, ntP, npP := p.Padded()
	pl.Own = make([]float64, ntP*npP)
	for k := 0; k < npP; k++ {
		for j := 0; j < ntP; j++ {
			dOwn := math.Max(rimDistance(p.Theta[j], p.Phi[k]), 0)
			ti, pi := coords.YinYangAngles(p.Theta[j], p.Phi[k])
			dOther := math.Max(rimDistance(ti, pi), 0)
			switch {
			case dOwn <= 0 && dOther <= 0:
				pl.Own[k*ntP+j] = 0.5
			default:
				pl.Own[k*ntP+j] = dOwn / (dOwn + dOther)
			}
		}
	}
}

// rimDistance returns the angular distance from (theta, phi) to the patch
// rim; negative if outside the patch footprint.
func rimDistance(theta, phi float64) float64 {
	dt := min4(theta-grid.ThetaMin, grid.ThetaMax-theta,
		phi-grid.PhiMin, grid.PhiMax-phi)
	return dt
}

func min4(a, b, c, d float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	if d < m {
		m = d
	}
	return m
}
