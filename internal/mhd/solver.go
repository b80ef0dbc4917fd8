package mhd

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/overset"
	"repro/internal/par"
)

// Solver is the serial two-panel Yin-Yang geodynamo solver: it advances
// the coupled MHD states of the Yin and Yang component grids with the
// classical fourth-order Runge-Kutta scheme, imposing physical wall
// boundary conditions and the overset internal boundary condition after
// every stage.
type Solver struct {
	Prm    Params
	Spec   grid.Spec
	IC     InitialConditions
	Panels [2]*Panel // indexed by grid.Yin, grid.Yang

	ex   *overset.Exchanger
	Time float64
	Step int
}

// NewSolver builds a solver for the given grid spec and parameters and
// initializes it with the perturbed conduction state, using the paper's
// bilinear rim interpolation. It is the fresh-start entry point; a
// solver about to be overwritten from a checkpoint is built with
// NewBlankSolver.
func NewSolver(s grid.Spec, prm Params, ic InitialConditions) (*Solver, error) {
	sv, err := newStatelessSolver(s, prm)
	if err != nil {
		return nil, err
	}
	sv.IC = ic
	for _, pl := range sv.Panels {
		InitPanel(pl, prm, ic)
	}
	sv.applyConstraints()
	return sv, nil
}

// NewBlankSolver is the restore path's constructor: a solver in the
// unperturbed conduction state (FillConductionState) with no initial
// condition evaluated and no constraint exchange run, as NewPanel +
// FillConductionState is for one decomposed block. The caller must
// overwrite the whole interior and call ApplyConstraints before
// stepping, as snapshot.Interior.Solver does.
func NewBlankSolver(s grid.Spec, prm Params) (*Solver, error) {
	sv, err := newStatelessSolver(s, prm)
	if err != nil {
		return nil, err
	}
	for _, pl := range sv.Panels {
		FillConductionState(pl, prm)
	}
	return sv, nil
}

// newStatelessSolver builds everything of a solver that does not depend
// on the state — geometry, rotation vector, workspaces, the bilinear
// overset exchanger — and leaves the state arrays zeroed.
func newStatelessSolver(s grid.Spec, prm Params) (*Solver, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	plan, err := overset.PlanFor(s)
	if err != nil {
		return nil, err
	}
	const halo = 1
	sv := &Solver{Prm: prm, Spec: s}
	for _, panel := range []grid.Panel{grid.Yin, grid.Yang} {
		sv.Panels[panel] = NewPanel(grid.NewPatch(s, panel, halo), prm.Omega)
	}
	sv.ex = overset.NewExchanger(plan, halo)
	return sv, nil
}

// SetPool routes the stencil and overset kernels of both panels through
// the worker pool (nil restores serial kernels). All routed kernels are
// bit-identical to their serial forms, so SetPool never changes
// results, only wall-clock time. The solver does not own the pool: the
// caller creates it once per rank and closes it after the run.
func (sv *Solver) SetPool(pool *par.Pool) {
	for _, pl := range sv.Panels {
		pl.Patch.Par = pool
	}
	sv.ex.SetPool(pool)
}

// ApplyConstraints re-imposes the wall and overset internal boundary
// conditions on the current state — the halo-rebuilding step a restored
// checkpoint needs, since checkpoints carry only the interior (the
// padded rim values are always a pure function of it).
func (sv *Solver) ApplyConstraints() { sv.applyConstraints() }

// applyConstraints imposes wall boundary conditions and the Yin-Yang
// internal boundary condition on the current state of both panels. The
// walls are re-imposed after the exchange because rim columns include the
// wall nodes.
func (sv *Solver) applyConstraints() {
	for _, pl := range sv.Panels {
		ApplyWallBC(pl, sv.Prm)
	}
	yin, yang := sv.Panels[grid.Yin], sv.Panels[grid.Yang]
	sv.ex.ExchangeScalar(yin.U.Rho, yang.U.Rho)
	sv.ex.ExchangeScalar(yin.U.P, yang.U.P)
	sv.ex.ExchangeVector(yin.U.F, yang.U.F)
	sv.ex.ExchangeVector(yin.U.A, yang.U.A)
	for _, pl := range sv.Panels {
		ApplyWallBC(pl, sv.Prm)
	}
}

// Advance performs one classical RK4 step of size dt (AdvanceRK4), with
// boundary conditions and the overset exchange applied after every
// stage update,
// following the paper's use of interpolation as the internal boundary
// condition of each component grid.
func (sv *Solver) Advance(dt float64) {
	AdvanceRK4(dt, sv.Panels[:], func(pl *Panel, k *State) {
		ComputeVTB(pl, &pl.U)
		FinishRHS(pl, sv.Prm, &pl.U, k, nil)
	}, sv.applyConstraints)
	sv.Time += dt
	sv.Step++
}

// PanelMaxSpeed returns the fastest characteristic speed on the panel:
// flow speed plus the fast magnetosonic speed sqrt(cs^2 + vA^2).
// ComputeVTB must have run for the panel. The reduction is tiled over
// the patch worker pool with deterministic per-tile partial maxima
// combined in fixed tile order; because max is exact (comparison, not
// accumulation), the result is bit-identical to the serial scan.
func PanelMaxSpeed(pl *Panel, prm Params) float64 {
	p := pl.Patch
	h := p.H
	return p.Par.ReduceMax(p.Np, func(klo, khi int) float64 {
		var vmax float64
		for k := h + klo; k < h+khi; k++ {
			for j := h; j < h+p.Nt; j++ {
				rho := pl.U.Rho.Row(j, k)
				tt := pl.T.Row(j, k)
				vr := pl.V.R.Row(j, k)
				vt := pl.V.T.Row(j, k)
				vp := pl.V.P.Row(j, k)
				br := pl.B.R.Row(j, k)
				bt := pl.B.T.Row(j, k)
				bp := pl.B.P.Row(j, k)
				for i := h; i < h+p.Nr; i++ {
					cs2 := prm.Gamma * math.Abs(tt[i])
					va2 := (br[i]*br[i] + bt[i]*bt[i] + bp[i]*bp[i]) / math.Max(rho[i], 1e-12)
					sp := math.Sqrt(vr[i]*vr[i]+vt[i]*vt[i]+vp[i]*vp[i]) +
						math.Sqrt(cs2+va2)
					if sp > vmax {
						vmax = sp
					}
				}
			}
		}
		return vmax
	})
}

// MinGridSpacing returns the smallest physical node distance of the
// global grid a patch belongs to. On the Yin-Yang patch the longitudinal
// spacing bottoms out at sin(ThetaMin), so this is resolution-uniform.
func MinGridSpacing(s grid.Spec) float64 {
	return math.Min(s.Dr(), s.RI*s.MinAngularSpacing())
}

// StableDT combines the advective and diffusive limits for the given
// maximum signal speed and grid spacing.
func StableDT(prm Params, minDx, vmax, safety float64) float64 {
	if vmax <= 0 {
		vmax = 1
	}
	dtAdv := minDx / vmax
	diff := math.Max(prm.Mu, math.Max(prm.Kappa, prm.Eta))
	dtDiff := math.Inf(1)
	if diff > 0 {
		dtDiff = minDx * minDx / (4 * diff)
	}
	return safety * math.Min(dtAdv, dtDiff)
}

// EstimateDT returns a stable explicit time step: the CFL limit of the
// fastest characteristic (sound + flow + Alfven speed) over the smallest
// grid distance, shrunk by the safety factor, and also bounded by the
// diffusive limits of the three dissipation constants.
func (sv *Solver) EstimateDT(safety float64) float64 {
	var vmax float64
	for _, pl := range sv.Panels {
		ComputeVTB(pl, &pl.U)
		if v := PanelMaxSpeed(pl, sv.Prm); v > vmax {
			vmax = v
		}
	}
	return StableDT(sv.Prm, MinGridSpacing(sv.Spec), vmax, safety)
}

// CheckFinite returns an error if any interior state value is NaN or Inf.
func (sv *Solver) CheckFinite() error {
	for _, pl := range sv.Panels {
		for vi, s := range pl.U.Scalars() {
			bad := false
			s.EachInteriorRow(func(i0 int, row []float64) {
				for _, v := range row {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						bad = true
					}
				}
			})
			if bad {
				return fmt.Errorf("mhd: non-finite value in %s variable %d at step %d",
					pl.Patch.Panel, vi, sv.Step)
			}
		}
	}
	return nil
}
