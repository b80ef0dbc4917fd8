// Package overset implements the internal boundary condition of the
// Yin-Yang grid: the nodes on the angular rim of each component grid take
// their values by bilinear interpolation from the partner grid, following
// the general overset (Chimera) methodology.
//
// Because the Yin->Yang and Yang->Yin coordinate transforms are the same
// map (eq. 1), a single interpolation plan describes both directions: any
// interaction from a grid point on Yin to a grid point on Yang is exactly
// the same as that from Yang to Yin. The plan is purely horizontal — a
// rim node receives a full radial column from the partner's surrounding
// four columns — so the interpolation inner loop runs over the radial
// (vectorization) dimension.
package overset

import (
	"fmt"
	"math"

	"repro/internal/coords"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/perfcount"
)

// NodeID identifies a rim node by its global angular indices on the
// receiving panel.
type NodeID struct {
	J, K int // global node indices in theta and phi
}

// Target couples one receiver rim node with its donor cell on the partner
// panel, in global angular indices.
type Target struct {
	Recv NodeID // receiver rim node
	// DJ, DK are the global indices of the donor cell's lower corner;
	// the cell spans nodes (DJ..DJ+1) x (DK..DK+1).
	DJ, DK int
	// W holds the bilinear weights for donors (DJ,DK), (DJ+1,DK),
	// (DJ,DK+1), (DJ+1,DK+1).
	W [4]float64
	// Rot rotates interpolated tangential vector components from the
	// donor frame into the receiver frame.
	Rot coords.VecRotation
}

// RimNodes lists the global angular indices of the internal-boundary rim
// of a panel: the first and last rows in theta and columns in phi.
func RimNodes(s grid.Spec) []NodeID {
	var nodes []NodeID
	for k := 0; k < s.Np; k++ {
		nodes = append(nodes, NodeID{0, k}, NodeID{s.Nt - 1, k})
	}
	for j := 1; j < s.Nt-1; j++ {
		nodes = append(nodes, NodeID{j, 0}, NodeID{j, s.Np - 1})
	}
	return nodes
}

// MakeTarget builds the donor cell, weights and rotation for a single rim
// node. It returns an error if the node's image falls outside the partner
// panel (which cannot happen for the basic Yin-Yang grid; the check guards
// grid-construction bugs).
func MakeTarget(s grid.Spec, n NodeID) (Target, error) {
	dt, dp := s.Dt(), s.Dp()
	theta := grid.ThetaMin + float64(n.J)*dt
	phi := grid.PhiMin + float64(n.K)*dp
	td, pd := coords.YinYangAngles(theta, phi)
	const tol = 1e-9
	if !grid.Contains(td, pd, tol) {
		return Target{}, fmt.Errorf("overset: rim node %+v maps to (%v,%v) outside partner", n, td, pd)
	}
	// Donor cell containing (td, pd). The cell is clamped away from the
	// partner's own rim rows/columns: the boundary curves of the two
	// panels cross at isolated points, and there the containing cell
	// would abut partner rim nodes, making rim values depend on partner
	// rim values (an implicit coupling). Clamping to interior donors
	// turns those few targets into one-cell linear extrapolations, which
	// keeps the exchange fully explicit at the same (second) order.
	fj := (td - grid.ThetaMin) / dt
	fk := (pd - grid.PhiMin) / dp
	dj := clampInt(int(math.Floor(fj)), 1, s.Nt-3)
	dk := clampInt(int(math.Floor(fk)), 1, s.Np-3)
	aj := fj - float64(dj)
	ak := fk - float64(dk)
	t := Target{
		Recv: n,
		DJ:   dj,
		DK:   dk,
		W: [4]float64{
			(1 - aj) * (1 - ak),
			aj * (1 - ak),
			(1 - aj) * ak,
			aj * ak,
		},
		Rot: coords.RotationAt(td, pd),
	}
	return t, nil
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Plan holds the full set of interpolation targets for one direction of
// the exchange; the identical plan serves the other direction.
type Plan struct {
	Spec    grid.Spec
	Targets []Target
}

// NewPlan builds the serial full-panel exchange plan for spec s.
func NewPlan(s grid.Spec) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	nodes := RimNodes(s)
	p := &Plan{Spec: s, Targets: make([]Target, 0, len(nodes))}
	for _, n := range nodes {
		t, err := MakeTarget(s, n)
		if err != nil {
			return nil, err
		}
		p.Targets = append(p.Targets, t)
	}
	return p, nil
}

// gatherScalar interpolates the donor columns for target t from donor
// field df (whose patch has halo h and zero offsets, i.e. a full panel)
// into buf, one value per padded radial index.
func gatherScalar(df *field.Scalar, t Target, h int, buf []float64) {
	r0 := df.Row(t.DJ+h, t.DK+h)
	r1 := df.Row(t.DJ+1+h, t.DK+h)
	r2 := df.Row(t.DJ+h, t.DK+1+h)
	r3 := df.Row(t.DJ+1+h, t.DK+1+h)
	w := t.W
	for i := range buf {
		buf[i] = w[0]*r0[i] + w[1]*r1[i] + w[2]*r2[i] + w[3]*r3[i]
	}
}

// Exchanger applies the internal boundary condition between the two
// full-panel fields of a serial Yin-Yang solver. Both directions are
// gathered before either is scattered, so the exchange is symmetric and
// independent of panel order.
type Exchanger struct {
	plan *Plan
	h    int
	nrP  int
	pool *par.Pool
	// staging buffers: per target, one radial column (x3 for vectors)
	a, b [][3][]float64
}

// SetPool routes the gather (interpolation) loops through the worker
// pool; each target owns disjoint staging columns, so the parallel
// gather is bit-identical to the serial one. nil restores serial.
func (e *Exchanger) SetPool(pool *par.Pool) { e.pool = pool }

// NewExchanger builds an exchanger for full-panel fields with halo width
// h over the plan's spec.
func NewExchanger(plan *Plan, h int) *Exchanger {
	nrP := plan.Spec.Nr + 2*h
	e := &Exchanger{plan: plan, h: h, nrP: nrP}
	e.a = make([][3][]float64, len(plan.Targets))
	e.b = make([][3][]float64, len(plan.Targets))
	for i := range e.a {
		for c := 0; c < 3; c++ {
			e.a[i][c] = make([]float64, nrP)
			e.b[i][c] = make([]float64, nrP)
		}
	}
	return e
}

func (e *Exchanger) count(components int) {
	n := int64(len(e.plan.Targets)) * int64(e.nrP) * int64(components)
	perfcount.AddFlops(n * 7) // 4 mults + 3 adds per interpolated value
	perfcount.AddVectorLoops(int64(len(e.plan.Targets))*int64(components), n)
}

// ExchangeScalar sets the rim values of each panel's scalar field from
// the partner panel.
func (e *Exchanger) ExchangeScalar(yin, yang *field.Scalar) {
	h := e.h
	e.pool.For(len(e.plan.Targets), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := e.plan.Targets[i]
			gatherScalar(yang, t, h, e.a[i][0]) // Yin rim <- Yang donors
			gatherScalar(yin, t, h, e.b[i][0])  // Yang rim <- Yin donors
		}
	})
	for i, t := range e.plan.Targets {
		copy(yin.Row(t.Recv.J+h, t.Recv.K+h), e.a[i][0])
		copy(yang.Row(t.Recv.J+h, t.Recv.K+h), e.b[i][0])
	}
	e.count(1)
}

// ExchangeVector sets the rim values of each panel's vector field from
// the partner panel, rotating tangential components between the frames.
// The radial component is frame-invariant.
func (e *Exchanger) ExchangeVector(yin, yang *field.Vector) {
	e.pool.For(len(e.plan.Targets), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := e.plan.Targets[i]
			e.gatherVector(yang, t, e.a[i])
			e.gatherVector(yin, t, e.b[i])
		}
	})
	for i, t := range e.plan.Targets {
		e.scatterVector(yin, t, e.a[i])
		e.scatterVector(yang, t, e.b[i])
	}
	e.count(3)
	// Rotation: 4 flops per tangential pair per radial node.
	perfcount.AddFlops(int64(len(e.plan.Targets)) * int64(e.nrP) * 8)
}

func (e *Exchanger) gatherVector(dv *field.Vector, t Target, buf [3][]float64) {
	gatherScalar(dv.R, t, e.h, buf[0])
	gatherScalar(dv.T, t, e.h, buf[1])
	gatherScalar(dv.P, t, e.h, buf[2])
	// Rotate tangential components donor -> receiver in place.
	bt, bp := buf[1], buf[2]
	for i := range bt {
		bt[i], bp[i] = t.Rot.Apply(bt[i], bp[i])
	}
}

func (e *Exchanger) scatterVector(rv *field.Vector, t Target, buf [3][]float64) {
	h := e.h
	copy(rv.R.Row(t.Recv.J+h, t.Recv.K+h), buf[0])
	copy(rv.T.Row(t.Recv.J+h, t.Recv.K+h), buf[1])
	copy(rv.P.Row(t.Recv.J+h, t.Recv.K+h), buf[2])
}

// InterpAt evaluates the bilinear interpolant of full-panel field f of
// patch p at angular point (theta, phi) and padded radial index i. It is
// used by diagnostics and visualization to sample a panel at arbitrary
// angles; theta and phi must lie within the panel footprint.
//
//yyvet:ignore reach oracle for TestSampleEntryMatchesInterpAt
func InterpAt(p *grid.Patch, f *field.Scalar, theta, phi float64, i int) float64 {
	h := p.H
	fj := (theta - grid.ThetaMin) / p.Dt
	fk := (phi - grid.PhiMin) / p.Dp
	dj := clampInt(int(math.Floor(fj)), 0, p.Spec.Nt-2)
	dk := clampInt(int(math.Floor(fk)), 0, p.Spec.Np-2)
	aj := fj - float64(dj)
	ak := fk - float64(dk)
	perfcount.AddScalarOps(10)
	return (1-aj)*(1-ak)*f.At(i, dj+h, dk+h) +
		aj*(1-ak)*f.At(i, dj+1+h, dk+h) +
		(1-aj)*ak*f.At(i, dj+h, dk+1+h) +
		aj*ak*f.At(i, dj+1+h, dk+1+h)
}
