package mhd

import (
	"sync"

	"repro/internal/perfcount"
	"repro/internal/sphops"
)

// rk4Stages is the paper's classical fourth-order Runge-Kutta scheme as
// low-storage stages: evaluate the right-hand side k at the current U,
// accumulate accCoeff*k, and (unless it is the last stage) rebuild
// U = u0 + stepCoeff*dt*k. The last stage sets U = u0 + rk4Final*dt*acc.
var rk4Stages = [...]struct{ stepCoeff, accCoeff float64 }{{0.5, 1}, {0.5, 2}, {1, 2}, {0, 1}}

const rk4Final = 1.0 / 6.0

// Stage is one Runge-Kutta stage's fold of its right-hand side k into
// the state, applied point by point:
//
//	first stage:  u0 = U, acc = 0*u0 + 0*u0 + a*k, U = u0 + c*k
//	later stages: acc += a*k,                     U = u0 + c*k
//	last stage:   U = u0 + c*(acc + a*k)
//
// These are the expressions, in their order, of the separate copy,
// seed, accumulate, copy and add sweeps the fold replaces — the seed's
// signed zeros included — so the bits are theirs. The last stage does
// not store acc: nothing reads it before the next step reseeds it.
type Stage struct {
	first, last bool
	a, c        float64
}

// AdvanceRK4 performs one step of size dt on the panels, the one stage
// loop of both the serial solver and a decomposed rank. For every
// stage, rhs must bring the panel's right-hand side inputs up to date
// and end in RHSStage (or FinishStage), which evaluates k at pl.U and
// folds it into the state; constrain then re-imposes the boundary
// conditions on every panel's U:
//
//	k1 = R(u0)            u <- u0 + dt/2 k1
//	k2 = R(u)             u <- u0 + dt/2 k2
//	k3 = R(u)             u <- u0 + dt   k3
//	k4 = R(u)             u <- u0 + dt/6 (k1 + 2 k2 + 2 k3 + k4)
func AdvanceRK4(dt float64, pls []*Panel, rhs func(pl *Panel, st Stage), constrain func()) {
	last := len(rk4Stages) - 1
	for si, stg := range rk4Stages {
		st := Stage{first: si == 0, last: si == last, a: stg.accCoeff, c: stg.stepCoeff * dt}
		if st.last {
			st.c = rk4Final * dt
		}
		for _, pl := range pls {
			rhs(pl, st)
		}
		constrain()
	}
}

// ringSlots is the number of φ-slices of k a sweep tile holds in
// flight: the slice being evaluated and the one before it, and a third
// where a global φ edge's one-sided stencil reads two slices back. A
// tile's vtRing holds as many slices of V and T: the slice being
// evaluated and its two φ neighbours, or the three slices of a global
// φ edge's one-sided stencil.
const ringSlots = 3

// stager is a panel's single-sweep stage (RHSStage). The sweep
// evaluates the owned φ-slices in order and writes each slice's eight
// right-hand-side planes into a small ring instead of a full-field k;
// a slice is folded into U, u0 and acc as soon as the last slice whose
// stencils read its U has been evaluated, one slice behind the sweep.
// Ring planes are zero outside the owned window and never written
// there, so folding whole padded planes reproduces the combine's halo
// arithmetic. Each slice's current density is evaluated into the
// tile's jSlice just before the slice's columns, and V and T into the
// tile's vtRing one slice ahead of them, while U there is unfolded.
type stager struct {
	pl   *Panel
	prm  Params
	st   Stage
	curl sphops.CurlColumns // curl B, bound once for the panel's life
	// tileFn is tile bound once, so a pooled sweep hands it over
	// without allocating a closure.
	tileFn func(lo, hi int)
	plane  int       // doubles per φ-slice of one field
	zero   []float64 // a zero plane: the k of the φ-halo slices

	mu    sync.Mutex
	rings [][]float64 // free rings, ringSlots slices of 8 planes each

	// With a worker pool, a slice that a neighbouring tile reads is
	// evaluated into kept[d] and folded after the join; held marks
	// the slices of the current sweep.
	kept [][]float64
	held []bool
}

func (f *stager) init(pl *Panel) {
	nrP, ntP, _ := pl.Patch.Padded()
	f.pl = pl
	f.curl = sphops.BindCurl(pl.Patch, pl.B)
	f.tileFn = f.tile
	f.plane = ntP * nrP
	f.zero = make([]float64, f.plane)
	f.kept = make([][]float64, pl.Patch.Np)
	f.held = make([]bool, pl.Patch.Np)
}

// RHSStage is a stage's one sweep over the owned columns: the update
// of RHSUpdate, V, T and j = curl B included, with its outputs folded
// into the state by st instead of stored. ComputeB and RHSDivV must
// have run on every owned column, and at decomposition seams the B and
// div v halos must be current. Within the sweep U is read only on the
// column's own φ-slice and its φ neighbours (two back at a global φ
// edge), so a slice whose last reader has been evaluated is dead for
// the rest of the stage and folds at once. With a worker pool each tile's first and
// last slice, read by the neighbouring tiles, fold after the join, and
// the φ-halo slices, which a seamed block's edge columns read, fold
// last of all with k = 0. The result is bit for bit that of
// ComputeVTB, RHSCurlJ and RHSUpdate into full-field V, T, J and k
// followed by the fold over whole arrays, and the counters are charged
// the same.
func RHSStage(pl *Panel, prm Params, st Stage) {
	p := pl.Patch
	f := &pl.stage
	f.prm, f.st = prm, st
	p.Par.For(p.Np, f.tileFn)
	f.join()
	sphops.ChargeCurl(p, p.OwnedRegion())
	chargeVT(p)
}

// join folds what the tiles left for after the sweep — the slices
// another tile read, then the φ-halo slices — and charges the update
// and the fold (RHSStage charges the curl).
func (f *stager) join() {
	p := f.pl.Patch
	for d, held := range f.held {
		if held {
			f.fold(p.H+d, f.kept[d], f.plane)
			f.held[d] = false
		}
	}
	_, _, npP := p.Padded()
	for kk := 0; kk < npP; kk++ {
		if kk < p.H || kk >= p.H+p.Np {
			f.fold(kk, f.zero, 0)
		}
	}
	chargeRHSUpdate(p, p.OwnedRegion())
	f.charge()
}

// tile evaluates and folds the owned φ-slices [a, b) (offsets from the
// first owned slice).
func (f *stager) tile(a, b int) {
	pl := f.pl
	p := pl.Patch
	h := p.H
	nrP, _, _ := p.Padded()
	n8 := 8 * f.plane
	backing, s, js, vt := takeRHSRows(pl)
	ring := f.takeRing()
	vt.start(p, h+a)
	for d := a; d < b; d++ {
		out := ring[d%ringSlots*n8:][:n8]
		if f.shared(d, a, b) {
			if f.kept[d] == nil {
				f.kept[d] = make([]float64, n8)
			}
			out = f.kept[d]
			f.held[d] = true
		}
		vt.at(p, &pl.U, h+d, &s.vt)
		js.fill(&f.curl, h, h+p.Nt, h+d)
		var o outRows
		for j := h; j < h+p.Nt; j++ {
			for v := range o {
				o[v] = out[v*f.plane+j*nrP:][:nrP]
			}
			js.bind(&s, j)
			fusedRHSColumn(pl, f.prm, &pl.U, &o, &s, j, h+d)
		}
		for e := max(a, d-2); e <= d; e++ {
			if f.lastReader(e) == d && !f.shared(e, a, b) {
				f.fold(h+e, ring[e%ringSlots*n8:][:n8], f.plane)
			}
		}
	}
	f.putRing(ring)
	pl.W.PutRows(backing)
}

// firstReader and lastReader bound the owned φ-slices whose columns
// read U on owned slice d: the first and last slice near d whose
// vtReach covers d.
func (f *stager) firstReader(d int) int {
	for e := max(d-2, 0); ; e++ {
		if lo, hi := vtReach(f.pl.Patch, e); lo <= d && d <= hi {
			return e
		}
	}
}

func (f *stager) lastReader(d int) int {
	for e := min(d+2, f.pl.Patch.Np-1); ; e-- {
		if lo, hi := vtReach(f.pl.Patch, e); lo <= d && d <= hi {
			return e
		}
	}
}

// shared reports whether a slice of tile [a, b) is read by another
// tile, so that it must wait for the join.
func (f *stager) shared(d, a, b int) bool {
	return f.firstReader(d) < a || f.lastReader(d) >= b
}

func (f *stager) takeRing() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.rings); n > 0 {
		r := f.rings[n-1]
		f.rings = f.rings[:n-1]
		return r
	}
	return make([]float64, ringSlots*8*f.plane)
}

func (f *stager) putRing(r []float64) {
	f.mu.Lock()
	f.rings = append(f.rings, r)
	f.mu.Unlock()
}

// fold applies the stage to padded φ-slice kk of every state variable,
// with variable v's k plane at k[v*stride:].
func (f *stager) fold(kk int, k []float64, stride int) {
	pl := f.pl
	us, u0s, accs := pl.U.Scalars(), pl.u0.Scalars(), pl.acc.Scalars()
	lo, hi := kk*f.plane, (kk+1)*f.plane
	for v := range us {
		foldPlane(f.st, us[v].Data[lo:hi], u0s[v].Data[lo:hi], accs[v].Data[lo:hi], k[v*stride:][:f.plane])
	}
}

// foldPlane applies st to one plane.
func foldPlane(st Stage, u, u0, acc, k []float64) {
	u0, acc, k = u0[:len(u)], acc[:len(u)], k[:len(u)]
	a, c := st.a, st.c
	switch {
	case st.first:
		for i := range u {
			x := u[i]
			u0[i] = x
			acc[i] = 0*x + 0*x + a*k[i]
			u[i] = x + c*k[i]
		}
	case st.last:
		for i := range u {
			u[i] = u0[i] + c*(acc[i]+a*k[i])
		}
	default:
		for i := range u {
			acc[i] += a * k[i]
			u[i] = u0[i] + c*k[i]
		}
	}
}

// charge reports a stage's fold as the separate sweeps it replaces:
// the two-flop accumulate and add sweeps over the full padded arrays,
// plus the three-flop seed on the first stage.
func (f *stager) charge() {
	flops, sweeps := int64(4), int64(2)
	if f.st.first {
		flops, sweeps = 7, 3
	}
	pl := f.pl
	nrP, _, _ := pl.Patch.Padded()
	n := 8 * int64(len(pl.U.Rho.Data))
	rows := n / int64(nrP)
	perfcount.AddFlops(n * flops)
	perfcount.AddVectorLoops(rows*sweeps, n*sweeps)
}
