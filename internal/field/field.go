// Package field provides the three-dimensional scalar and vector fields
// used by the solver.
//
// Memory layout follows the paper's vectorization strategy: the radial
// index is innermost (unit stride) so that the innermost loops of every
// kernel sweep contiguously along r, the dimension the yycore code
// vectorized on the Earth Simulator. The radial extent is therefore chosen
// "just below the size (or doubled size) of the vector register" (255 or
// 511) in the paper's production runs.
//
// Fields carry a halo (ghost) frame of width H on every side. Interior
// indices run over [H, H+N) in each dimension; physical and internal
// (overset) boundary conditions fill the frame.
package field

import (
	"fmt"
	"math"

	"repro/internal/perfcount"
)

// Shape describes the interior extents of a field and its halo width.
type Shape struct {
	Nr, Nt, Np int // interior points in r, theta, phi
	H          int // halo width on each side (stencil radius)
}

// Padded returns the allocated extents including halos.
func (s Shape) Padded() (nr, nt, np int) {
	return s.Nr + 2*s.H, s.Nt + 2*s.H, s.Np + 2*s.H
}

// Len returns the number of allocated elements.
func (s Shape) Len() int {
	nr, nt, np := s.Padded()
	return nr * nt * np
}

// Valid reports whether the shape has positive extents and a non-negative
// halo.
func (s Shape) Valid() bool {
	return s.Nr > 0 && s.Nt > 0 && s.Np > 0 && s.H >= 0
}

// Scalar is a 3-D scalar field with halo frame, radial index innermost.
type Scalar struct {
	Shape
	Data []float64 // len == Shape.Len(); index (k*ntP + j)*nrP + i
	nrP  int       // padded radial extent (cached stride)
	ntP  int       // padded theta extent
}

// NewScalar allocates a zeroed scalar field of the given shape.
func NewScalar(s Shape) *Scalar {
	if !s.Valid() {
		panic(fmt.Sprintf("field: invalid shape %+v", s))
	}
	nr, nt, _ := s.Padded()
	return &Scalar{Shape: s, Data: make([]float64, s.Len()), nrP: nr, ntP: nt}
}

// Idx returns the linear index of padded coordinates (i, j, k); i is the
// radial index in [0, Nr+2H), j the colatitudinal, k the azimuthal.
func (f *Scalar) Idx(i, j, k int) int {
	return (k*f.ntP+j)*f.nrP + i
}

// At returns the value at padded coordinates (i, j, k).
func (f *Scalar) At(i, j, k int) float64 { return f.Data[f.Idx(i, j, k)] }

// Set stores v at padded coordinates (i, j, k).
func (f *Scalar) Set(i, j, k int, v float64) { f.Data[f.Idx(i, j, k)] = v }

// Row returns the contiguous radial row at (j, k) covering the full padded
// radial extent. Mutating the returned slice mutates the field.
func (f *Scalar) Row(j, k int) []float64 {
	base := f.Idx(0, j, k)
	return f.Data[base : base+f.nrP]
}

// Clone returns a deep copy.
//
//yyvet:ignore reach oracle for TestCombineMatchesSweeps
func (f *Scalar) Clone() *Scalar {
	g := NewScalar(f.Shape)
	copy(g.Data, f.Data)
	return g
}

// SameShape reports whether g has identical shape.
func (f *Scalar) SameShape(g *Scalar) bool { return f.Shape == g.Shape }

func (f *Scalar) mustMatch(gs ...*Scalar) {
	for _, g := range gs {
		if !f.SameShape(g) {
			panic(fmt.Sprintf("field: shape mismatch %+v vs %+v", f.Shape, g.Shape))
		}
	}
}

// CopyFrom copies g into f.
//
//yyvet:ignore reach oracle for TestCombineMatchesSweeps
func (f *Scalar) CopyFrom(g *Scalar) {
	f.mustMatch(g)
	copy(f.Data, g.Data)
}

// countSweep charges one full-array sweep with fl flops per element to the
// instrumentation counters. The sweep is modeled as one vector loop per
// radial row, trip count = padded radial extent, matching how the kernels
// below are written.
func (f *Scalar) countSweep(fl int) {
	n := int64(len(f.Data))
	rows := int64(n) / int64(f.nrP)
	perfcount.AddFlops(n * int64(fl))
	perfcount.AddVectorLoops(rows, n)
}

// AXPY sets f = f + a*g element-wise.
//
//yyvet:ignore reach oracle for TestCombineMatchesSweeps
func (f *Scalar) AXPY(a float64, g *Scalar) {
	f.mustMatch(g)
	fd, gd := f.Data, g.Data
	for i := range fd {
		fd[i] += a * gd[i]
	}
	f.countSweep(2)
}

// LinComb sets f = a*x + b*y element-wise.
//
//yyvet:ignore reach oracle for TestCombineMatchesSweeps
func (f *Scalar) LinComb(a float64, x *Scalar, b float64, y *Scalar) {
	f.mustMatch(x, y)
	fd, xd, yd := f.Data, x.Data, y.Data
	for i := range fd {
		fd[i] = a*xd[i] + b*yd[i]
	}
	f.countSweep(3)
}

// Add sets f = f + g element-wise.
func (f *Scalar) Add(g *Scalar) {
	f.mustMatch(g)
	fd, gd := f.Data, g.Data
	for i := range fd {
		fd[i] += gd[i]
	}
	f.countSweep(1)
}

// Quot sets f = x / y element-wise.
func (f *Scalar) Quot(x, y *Scalar) {
	f.mustMatch(x, y)
	fd, xd, yd := f.Data, x.Data, y.Data
	for i := range fd {
		fd[i] = xd[i] / yd[i]
	}
	f.countSweep(1)
}

// InteriorMaxAbs returns the maximum absolute interior value.
func (f *Scalar) InteriorMaxAbs() float64 {
	var m float64
	f.EachInteriorRow(func(i0 int, row []float64) {
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	})
	f.countInterior(1)
	return m
}

// EachInteriorRow calls fn for every interior (j, k) with the interior
// radial sub-row; i0 is the linear index of the row's first interior
// element within Data.
func (f *Scalar) EachInteriorRow(fn func(i0 int, row []float64)) {
	h := f.H
	for k := h; k < h+f.Np; k++ {
		for j := h; j < h+f.Nt; j++ {
			base := f.Idx(h, j, k)
			fn(base, f.Data[base:base+f.Nr])
		}
	}
}

func (f *Scalar) countInterior(fl int) {
	n := int64(f.Nr) * int64(f.Nt) * int64(f.Np)
	rows := int64(f.Nt) * int64(f.Np)
	perfcount.AddFlops(n * int64(fl))
	perfcount.AddVectorLoops(rows, n)
}

// Vector is a 3-D vector field with spherical components R (radial),
// T (colatitudinal), P (azimuthal).
type Vector struct {
	R, T, P *Scalar
}

// NewVector allocates a zeroed vector field.
func NewVector(s Shape) *Vector {
	return &Vector{R: NewScalar(s), T: NewScalar(s), P: NewScalar(s)}
}

// Components returns the three components in (R, T, P) order.
func (v *Vector) Components() [3]*Scalar { return [3]*Scalar{v.R, v.T, v.P} }
