// Package sphops implements the differential operators of vector calculus
// in spherical polar coordinates — gradient, divergence, curl, scalar and
// vector Laplacian, momentum-flux (tensor) divergence, advection, and the
// viscous dissipation function — discretized with the finite differences
// of package fd on Yin-Yang component patches.
//
// Because a component grid is nothing but a part of the latitude-longitude
// grid (paper, section II), the analytic metric forms of these operators
// in spherical coordinates apply verbatim on both the Yin and the Yang
// panel; the same routines serve both.
package sphops

import (
	"sync"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/perfcount"
)

// Workspace pools scratch for operator evaluation so repeated
// right-hand-side evaluations do not allocate: full-field scalars for
// the full-field operators, created on their first use, and sets of
// padded radial rows for the column-fused kernels.
type Workspace struct {
	patch *grid.Patch
	free  []*field.Scalar
	total int

	// Row sets recycled through a mutex-guarded free list: workers take
	// one set per pool range, not per column, so contention is nil.
	rowsMu sync.Mutex
	rows   [][]float64

	// The column-fused sweep in flight (sweepOn).
	sweep regionSweep
}

// NewWorkspace creates a scratch pool for fields shaped like p.
func NewWorkspace(p *grid.Patch) *Workspace {
	w := &Workspace{patch: p}
	w.sweep.w = w
	w.sweep.fn = w.sweep.tile
	return w
}

// Get returns a scratch scalar (contents unspecified).
func (w *Workspace) Get() *field.Scalar {
	if n := len(w.free); n > 0 {
		f := w.free[n-1]
		w.free = w.free[:n-1]
		return f
	}
	w.total++
	return w.patch.NewScalar()
}

// Put returns scratch scalars to the pool.
func (w *Workspace) Put(fs ...*field.Scalar) {
	w.free = append(w.free, fs...)
}

// Allocated reports how many scratch fields the pool ever created; useful
// for asserting that steady-state stepping does not grow the pool.
//
//yyvet:ignore reach oracle for TestPanelFootprint and TestWorkspaceReuse
func (w *Workspace) Allocated() int { return w.total }

// Rows hands a worker n padded radial rows in one backing slice
// (contents unspecified), recycling a returned set that is large enough
// and allocating only when none is.
func (w *Workspace) Rows(n int) []float64 {
	nrP, _, _ := w.patch.Padded()
	size := n * nrP
	w.rowsMu.Lock()
	defer w.rowsMu.Unlock()
	for i, r := range w.rows {
		if cap(r) >= size {
			last := len(w.rows) - 1
			w.rows[i] = w.rows[last]
			w.rows = w.rows[:last]
			return r[:size]
		}
	}
	return make([]float64, size)
}

// PutRows returns a set taken with Rows.
func (w *Workspace) PutRows(r []float64) {
	w.rowsMu.Lock()
	w.rows = append(w.rows, r)
	w.rowsMu.Unlock()
}

// countN charges n nodes across rows vector loops with fl flops per node.
func countN(n, rows, fl int64) {
	perfcount.AddFlops(n * fl)
	perfcount.AddVectorLoops(rows, n)
}

// sweep runs fn over every interior (j, k) pair and charges the counters
// with flopsPerNode flops for each interior node. fn must loop its inner
// radial index over [p.H, p.H+p.Nr). The phi range is split over the
// patch worker pool; distinct (j, k) pairs own disjoint output rows, so
// the parallel sweep is bit-identical to the serial one. fn must only
// write rows of its own (j, k).
func sweep(p *grid.Patch, flopsPerNode int, fn func(j, k int)) {
	h := p.H
	p.Par.For(p.Np, func(klo, khi int) {
		for k := h + klo; k < h+khi; k++ {
			for j := h; j < h+p.Nt; j++ {
				fn(j, k)
			}
		}
	})
	n := int64(p.Nr) * int64(p.Nt) * int64(p.Np)
	perfcount.AddFlops(n * int64(flopsPerNode))
	perfcount.AddVectorLoops(int64(p.Nt)*int64(p.Np), n)
}
