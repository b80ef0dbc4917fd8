package overset

import (
	"math"
	"sync"

	"repro/internal/coords"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/perfcount"
)

// --- Shared plan cache ----------------------------------------------
//
// An exchange plan is a pure function of the grid spec and is immutable
// after construction, yet every solver (and, in a decomposed run, every
// rank) used to rebuild it from scratch — recomputing the Yin<->Yang
// transform and the bilinear weights of every rim node each time.
// PlanFor memoizes the plans per spec so the weights are computed once
// per process per grid.

var planCache sync.Map // grid.Spec -> *Plan

// PlanFor returns the shared exchange plan for spec, building it on
// first use. The returned plan is read-only; callers must not mutate
// it. Sharing one plan across solvers and concurrent ranks is safe.
func PlanFor(s grid.Spec) (*Plan, error) {
	if v, ok := planCache.Load(s); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(s)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(s, p)
	return v.(*Plan), nil
}

// --- Cached arbitrary-point sampling --------------------------------

// SampleEntry caches the donor cell and bilinear weights InterpAt
// derives from an angular point, so repeated sampling at the same point
// (diagnostics, visualization, the overlap "double solution" scan) does
// not recompute the coordinate transform and the weights every call.
type SampleEntry struct {
	DJ, DK int // global lower-corner donor node indices
	// W holds the bilinear weights for donors (DJ,DK), (DJ+1,DK),
	// (DJ,DK+1), (DJ+1,DK+1), in InterpAt's summation order.
	W [4]float64
}

// MakeSampleEntry computes the entry InterpAt would use for a sample of
// a full-panel field of spec s at (theta, phi).
func MakeSampleEntry(s grid.Spec, theta, phi float64) SampleEntry {
	dt, dp := s.Dt(), s.Dp()
	fj := (theta - grid.ThetaMin) / dt
	fk := (phi - grid.PhiMin) / dp
	dj := clampInt(int(math.Floor(fj)), 0, s.Nt-2)
	dk := clampInt(int(math.Floor(fk)), 0, s.Np-2)
	aj := fj - float64(dj)
	ak := fk - float64(dk)
	return SampleEntry{
		DJ: dj,
		DK: dk,
		W: [4]float64{
			(1 - aj) * (1 - ak),
			aj * (1 - ak),
			(1 - aj) * ak,
			aj * ak,
		},
	}
}

// Sample evaluates the cached bilinear interpolant of full-panel field
// f (halo width h) at padded radial index i. The products and the sum
// run in the same order as InterpAt, so the result is bit-identical to
// the recomputed path.
func (se SampleEntry) Sample(f *field.Scalar, h, i int) float64 {
	perfcount.AddScalarOps(7)
	return se.W[0]*f.At(i, se.DJ+h, se.DK+h) +
		se.W[1]*f.At(i, se.DJ+1+h, se.DK+h) +
		se.W[2]*f.At(i, se.DJ+h, se.DK+1+h) +
		se.W[3]*f.At(i, se.DJ+1+h, se.DK+1+h)
}

// --- Overlap diagnostic table ---------------------------------------

// OverlapSample is one cached node of the overlap "double solution"
// scan: the receiving panel's own global angular node (J, K) plus the
// donor entry for its image on the partner panel.
type OverlapSample struct {
	J, K int // global angular node indices on the receiving panel
	E    SampleEntry
}

// OverlapTable caches, once per grid spec, every interior angular node
// whose Yin<->Yang image lies strictly inside the partner footprint
// (sampling interpolates, never extrapolates), together with the donor
// weights of the image. mhd.OverlapDisagreement walks this table
// instead of recomputing the transform and the weights per node per
// call. The samples appear in the scan order of the original loop
// (k outer, j inner), so a table-driven scan visits nodes in the same
// order as a recomputed one.
type OverlapTable struct {
	Samples []OverlapSample
}

// NewOverlapTable builds the overlap sample table for spec s.
func NewOverlapTable(s grid.Spec) *OverlapTable {
	dt, dp := s.Dt(), s.Dp()
	tab := &OverlapTable{}
	for k := 1; k < s.Np-1; k++ {
		for j := 1; j < s.Nt-1; j++ {
			theta := grid.ThetaMin + float64(j)*dt
			phi := grid.PhiMin + float64(k)*dp
			td, pd := coords.YinYangAngles(theta, phi)
			if !grid.Contains(td, pd, 0) ||
				td < grid.ThetaMin+dt || td > grid.ThetaMax-dt ||
				pd < grid.PhiMin+dp || pd > grid.PhiMax-dp {
				continue
			}
			tab.Samples = append(tab.Samples, OverlapSample{
				J: j, K: k, E: MakeSampleEntry(s, td, pd),
			})
		}
	}
	return tab
}

var overlapCache sync.Map // grid.Spec -> *OverlapTable

// OverlapTableFor returns the shared overlap table for spec, building
// it on first use. The table is read-only after construction.
func OverlapTableFor(s grid.Spec) *OverlapTable {
	if v, ok := overlapCache.Load(s); ok {
		return v.(*OverlapTable)
	}
	v, _ := overlapCache.LoadOrStore(s, NewOverlapTable(s))
	return v.(*OverlapTable)
}
