package snapshot

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mhd"
)

// Interior is the layout-neutral content of a v2 checkpoint: the grid
// spec, the physical parameters, the clock, and each panel's eight
// state scalars as interior-only slabs — no halos, no decomposition
// imprint. A checkpoint written by a world of any shape deserializes to
// the same Interior, which any other world shape can then scatter
// against its own layout (decomp.ScatterInterior); that is what makes
// campaign restarts elastic. It is also a campaign's committed-state
// type in memory: ranks gather into one (decomp.GatherInterior), the
// sinks encode it, and the next segment scatters the same object.
type Interior struct {
	Spec grid.Spec
	Prm  mhd.Params
	Time float64
	Step int
	// Fields[panel][s] holds scalar s of the panel in the on-disk
	// payload order: radial rows of Spec.Nr values, theta-major within
	// a phi slice (row (j, k) begins at ((k*Spec.Nt)+j)*Spec.Nr).
	Fields [2][8][]float64
}

// NewInterior allocates the zeroed slabs of a grid, for a caller that
// fills them row by row.
func NewInterior(spec grid.Spec, prm mhd.Params) *Interior {
	in := &Interior{Spec: spec, Prm: prm}
	for pi := range in.Fields {
		for si := range in.Fields[pi] {
			in.Fields[pi][si] = make([]float64, spec.Nr*spec.Nt*spec.Np)
		}
	}
	return in
}

// InteriorOf copies a solver's interior state into the layout-neutral
// form, exactly as WriteCheckpoint would serialize it.
func InteriorOf(sv *mhd.Solver) *Interior {
	in := NewInterior(sv.Spec, sv.Prm)
	in.Capture(sv)
	return in
}

// Clone returns a deep copy of in.
func (in *Interior) Clone() *Interior {
	cp := NewInterior(in.Spec, in.Prm)
	cp.Time, cp.Step = in.Time, in.Step
	for pi := range in.Fields {
		for si := range in.Fields[pi] {
			copy(cp.Fields[pi][si], in.Fields[pi][si])
		}
	}
	return cp
}

// Capture overwrites in, which must hold the solver's grid, with the
// solver's interior state and clock.
func (in *Interior) Capture(sv *mhd.Solver) {
	in.Prm, in.Time, in.Step = sv.Prm, sv.Time, sv.Step
	for pi, pl := range sv.Panels {
		for si, s := range pl.U.Scalars() {
			slab := in.Fields[pi][si]
			pos := 0
			s.EachInteriorRow(func(_ int, row []float64) {
				pos += copy(slab[pos:], row)
			})
		}
	}
}

func (in *Interior) checkShape() error {
	for pi := range in.Fields {
		for _, slab := range in.Fields[pi] {
			if len(slab) != in.Spec.Nr*in.Spec.Nt*in.Spec.Np {
				return fmt.Errorf("snapshot: interior slab of %d values for %dx%dx%d grid",
					len(slab), in.Spec.Nr, in.Spec.Nt, in.Spec.Np)
			}
		}
	}
	return nil
}

// Solver rebuilds a serial solver from the interior state: halos, rims
// and walls are re-established by a constraint application, so the
// result is bit-identical to the solver the checkpoint was written
// from.
func (in *Interior) Solver() (*mhd.Solver, error) {
	if err := in.checkShape(); err != nil {
		return nil, err
	}
	sv, err := mhd.NewBlankSolver(in.Spec, in.Prm)
	if err != nil {
		return nil, fmt.Errorf("snapshot: rebuilding solver: %w", err)
	}
	for pi, pl := range sv.Panels {
		for si, s := range pl.U.Scalars() {
			slab := in.Fields[pi][si]
			pos := 0
			s.EachInteriorRow(func(_ int, row []float64) {
				pos += copy(row, slab[pos:])
			})
		}
	}
	sv.Time = in.Time
	sv.Step = in.Step
	sv.ApplyConstraints()
	return sv, nil
}

// CheckFinite returns an error if any state value is NaN or Inf — what
// mhd.Solver.CheckFinite reports of the solver the interior came from.
func (in *Interior) CheckFinite() error {
	for pi := range in.Fields {
		for si, slab := range in.Fields[pi] {
			for _, v := range slab {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("snapshot: non-finite value in %s variable %d at step %d",
						grid.Panel(pi), si, in.Step)
				}
			}
		}
	}
	return nil
}

// Row returns the interior radial row (j, k) of the given panel and
// scalar (all indices 0-based interior coordinates).
func (in *Interior) Row(panel, scalar, j, k int) []float64 {
	off := ((k * in.Spec.Nt) + j) * in.Spec.Nr
	return in.Fields[panel][scalar][off : off+in.Spec.Nr]
}
