package mhd

import (
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/perfcount"
	"repro/internal/simd"
	"repro/internal/sphops"
)

// The fused right-hand side. FinishRHSReference (rhs_reference.go) makes
// roughly seventy separate full-field sweeps per evaluation: every
// derivative of every operator streams the whole patch through cache
// once, and every operator round-trips its combined result through a
// scratch field. The fused form instead visits each (j, k) column
// exactly once per phase. One pass per direction builds every
// derivative the column needs over shared input rows and accumulates
// each operator's directional metric terms in place (radial part, then
// += theta part, then += phi part — the exact association order of the
// reference combines), and a final loop forms the eight outputs with
// all remaining intermediates in registers. The arithmetic is the
// reference's statement for statement — same stencil expressions, same
// combine expressions, same rounding order — so the results are bitwise
// identical; the equivalence suite in rhs_reference_test.go pins that.
//
// The evaluation is split into two region-capable phases so a
// decomposed rank can overlap halo traffic with compute:
//
//	RHSDivV    div v -> pl.DivV  — no halo dependency (V is pointwise
//	                               in U, whose halos are current)
//	RHSUpdate  everything else   — needs B and DivV halos at its rim
//	                               columns
//
// Neither phase reads a full-field V = F/ρ or T = P/ρ: each tile divides
// them a φ-slice at a time into a ring of planes (vtRing), one slice
// ahead of the columns that read them. The update evaluates the current
// density j = curl B itself, one φ-slice at a time into a per-tile
// plane just before that slice's columns (jSlice): j is read only at
// its own column, so it never needs to exist as a full field. Each
// phase accepts a grid.Region; any disjoint cover of the owned columns
// (all at once, or interior then rim) produces identical bits.

// RHSCurlJ fills the full-field current density pl.J = curl B on the
// columns of reg, allocating pl.J on first use. The step never calls
// it — the update evaluates j a φ-slice at a time — but diagnostics
// and probes that want j as a field do. ComputeB must have run; at
// decomposition seams the rim columns read B halos.
func RHSCurlJ(pl *Panel, reg grid.Region) {
	if pl.J == nil {
		pl.J = pl.Patch.NewVector()
	}
	sphops.CurlOn(pl.Patch, reg, pl.B, pl.J, pl.W)
}

// RHSDivV fills pl.DivV = div v on the columns of reg, with v = F/ρ of
// pl.U divided a φ-slice at a time into each tile's ring. U's halos are
// current, so this phase has no halo-exchange dependency of its own;
// seam halos of pl.DivV itself are filled by the aux exchange (or the
// sync callback) before RHSUpdate differentiates them. The values are
// those of sphops.DivOn on the full field V, bit for bit, and so is the
// charge; the quotients are charged by the evaluation (RHSStage,
// FinishRHS).
func RHSDivV(pl *Panel, reg grid.Region) {
	rhsDivV(pl, &pl.U, reg)
}

func rhsDivV(pl *Panel, u *State, reg grid.Region) {
	c := &pl.cols
	c.u = u
	for _, rc := range reg {
		if !rc.Empty() {
			c.rc = rc
			pl.Patch.Par.For(rc.K1-rc.K0, c.divFn)
		}
	}
	c.u = nil
	sphops.ChargeDiv(pl.Patch, reg)
}

// regionCols is a panel's region sweep in flight (RHSDivV, RHSUpdate):
// the rectangle, the state and the output of the call, and its tile
// functions, bound once so a pooled sweep allocates nothing.
type regionCols struct {
	pl       *Panel
	rc       grid.Rect
	prm      Params
	u, out   *State
	div      sphops.DivColumns
	divFn    func(klo, khi int)
	updateFn func(klo, khi int)
}

func (c *regionCols) init(pl *Panel) {
	c.pl = pl
	c.div = sphops.BindDiv(pl.Patch)
	c.divFn = c.divTile
	c.updateFn = c.updateTile
}

// divTile is RHSDivV on the φ offsets [klo, khi) of the rectangle. It
// takes the same scratch as a sweep tile, so that a serial panel keeps
// one set: the ring's planes hold V alone, and the update's first rows
// are the divergence's scratch.
func (c *regionCols) divTile(klo, khi int) {
	pl, rc := c.pl, c.rc
	backing, _, _, ring := takeRHSRows(pl)
	ring.comps = 3
	nrP, _, _ := pl.Patch.Padded()
	scratch := backing[:sphops.DivRows*nrP]
	var v sphops.SliceRows
	ring.start(pl.Patch, rc.K0+klo)
	for k := rc.K0 + klo; k < rc.K0+khi; k++ {
		ring.at(pl.Patch, c.u, k, &v)
		for j := rc.J0; j < rc.J1; j++ {
			c.div.Column(j, k, &v, scratch, pl.DivV.Row(j, k))
		}
	}
	pl.W.PutRows(backing)
}

// updateTile is RHSUpdate on the φ offsets [klo, khi) of the rectangle.
func (c *regionCols) updateTile(klo, khi int) {
	pl, rc := c.pl, c.rc
	backing, s, js, ring := takeRHSRows(pl)
	outs := c.out.Scalars()
	var o outRows
	ring.start(pl.Patch, rc.K0+klo)
	for k := rc.K0 + klo; k < rc.K0+khi; k++ {
		ring.at(pl.Patch, c.u, k, &s.vt)
		js.fill(&pl.stage.curl, rc.J0, rc.J1, k)
		for j := rc.J0; j < rc.J1; j++ {
			for v, f := range outs {
				o[v] = f.Row(j, k)
			}
			js.bind(&s, j)
			fusedRHSColumn(pl, c.prm, c.u, &o, &s, j, k)
		}
	}
	pl.W.PutRows(backing)
}

// rhsRows is the per-worker scratch of the fused update kernel: one
// padded radial row per derivative or per-operator directional
// accumulator of one (j, k) column. Fully combined quantities have no
// rows — they live in registers of the final loop.
type rhsRows struct {
	// First derivatives of p, feeding both v.grad p and grad p.
	dPr, dPt, dPp []float64
	// div F and lap T, accumulated radial -> theta -> phi.
	dF, lT []float64
	// First velocity derivatives, [component] per direction: shared by
	// the strain tensor and the vector-Laplacian coupling (the
	// reference computes them twice; the values are identical, so
	// sharing preserves the bits).
	vD1r, vD1t, vD1p [3][]float64
	// Scalar-Laplacian part of lap v and the tensor divergence
	// div(v f), [component], accumulated radial -> theta -> phi
	// (curvature/Christoffel corrections are applied in the final
	// loop, exactly where the reference applies them).
	lap, adv [3][]float64
	// Derivatives of div v for its gradient.
	gDr, gDt, gDp []float64
	// The current density j = curl B at the column, bound by the caller
	// before each column: rows of a sweep tile's jSlice, or of a
	// full-field J. Not part of the backing bindRHSRows lays out.
	jr, jt, jp []float64
	// V (components vR, vT, vP) and T (component tT) around the
	// column's φ-slice, bound by the caller before each slice: planes
	// of a sweep tile's vtRing, or full fields.
	vt sphops.SliceRows
}

// The components of a vtRing slice and of rhsRows.vt.
const (
	vR, vT, vP, tT = 0, 1, 2, 3
)

// The momentum-flux products v_a f_b have no rows at all: every stencil
// and metric term forms its products in place, each rounding exactly
// once — bit-identical to the reference's materialized product arrays,
// which also round each product exactly once before differencing.

const rhsRowCount = 23

// bindRHSRows lays the rows of one set over backing, rhsRowCount padded
// radial rows long.
func bindRHSRows(backing []float64, nrP int) rhsRows {
	next := func() []float64 {
		r := backing[:nrP:nrP]
		backing = backing[nrP:]
		return r
	}
	var s rhsRows
	s.dPr, s.dPt, s.dPp = next(), next(), next()
	s.dF, s.lT = next(), next()
	s.gDr, s.gDt, s.gDp = next(), next(), next()
	for c := 0; c < 3; c++ {
		s.vD1r[c], s.vD1t[c], s.vD1p[c] = next(), next(), next()
		s.lap[c], s.adv[c] = next(), next()
	}
	return s
}

// takeRHSRows takes one sweep tile's scratch from the panel workspace
// as one set of padded radial rows: the update's rows, a vtRing of V
// and T, then a jSlice. Return the backing with pl.W.PutRows.
func takeRHSRows(pl *Panel) (backing []float64, s rhsRows, js jSlice, ring vtRing) {
	nrP, ntP, _ := pl.Patch.Padded()
	plane := ntP * nrP
	backing = pl.W.Rows(rhsRowCount + 4*ringSlots*ntP + 3*ntP + sphops.CurlRows)
	rest := backing[rhsRowCount*nrP:]
	ring = vtRing{planes: rest[:4*ringSlots*plane], nrP: nrP, plane: plane, comps: 4}
	js = jSlice{rows: rest[4*ringSlots*plane:], nrP: nrP, plane: plane}
	return backing, bindRHSRows(backing, nrP), js, ring
}

// vtRing is a tile's V = F/ρ (comps 3) or V and T = P/ρ (comps 4) on
// ringSlots φ-slices: comps planes of ntP padded radial rows per slice,
// padded slice kk in slot kk % ringSlots. A column reads V and T on its
// own slice and its φ neighbours (two slices inward at a global φ
// edge), so a tile divides each slice once, from U, just before the
// first of its slices that reads it, and V and T never exist as full
// fields while stepping. The values are ComputeVTB's, bit for bit:
// IEEE division is correctly rounded wherever it runs.
type vtRing struct {
	planes            []float64
	nrP, plane, comps int
	next              int // the next padded slice to fill
}

// start readies the ring for a tile whose first slice is kk.
func (r *vtRing) start(p *grid.Patch, kk int) {
	lo, _ := vtReach(p, kk-p.H)
	r.next = p.H + lo
}

// at fills, from u, the slices that the columns of slice kk read and
// the ring does not hold yet, and binds v around kk.
func (r *vtRing) at(p *grid.Patch, u *State, kk int, v *sphops.SliceRows) {
	_, hi := vtReach(p, kk-p.H)
	num := [...]*field.Scalar{u.F.R, u.F.T, u.F.P, u.P}
	for ; r.next <= p.H+hi; r.next++ {
		lo := r.next * r.plane
		rho := u.Rho.Data[lo:][:r.plane]
		slot := r.planes[r.next%ringSlots*r.comps*r.plane:]
		for c := 0; c < r.comps; c++ {
			quot(slot[c*r.plane:][:r.plane], num[c].Data[lo:][:r.plane], rho)
		}
	}
	v.NrP = r.nrP
	for dk := -2; dk <= 2; dk++ {
		slot := r.planes[(kk+dk+ringSlots)%ringSlots*r.comps*r.plane:]
		for c := 0; c < r.comps; c++ {
			v.Plane[dk+2][c] = slot[c*r.plane:][:r.plane]
		}
	}
}

// vtReach bounds the owned φ-slices (offsets from the first owned
// slice) whose U, and so V and T, the columns of owned slice d read: its
// neighbours, except that the one-sided stencils at a global φ edge
// reach two slices in. It is the one statement of that reach:
// stager.firstReader and lastReader invert it.
func vtReach(p *grid.Patch, d int) (lo, hi int) {
	switch {
	case d == 0 && p.GlobalEdge(4):
		return 0, 2
	case d == p.Np-1 && p.GlobalEdge(5):
		return d - 2, d
	}
	return d - 1, d + 1
}

// quot sets dst = x / y, the first len(dst)&^3 points on quotLanes.
func quot(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	lo := 0
	if simd.AVX2 && len(dst) >= 4 {
		var a quotArgs
		a.n = len(dst) &^ 3
		a.dst, a.x, a.y = &dst[0], &x[0], &y[0]
		quotLanes(&a)
		lo = a.n
	}
	for i := lo; i < len(dst); i++ {
		dst[i] = x[i] / y[i]
	}
}

// chargeVT charges what the four full-field quotients of ComputeVTB
// charge, once per evaluation: one flop per padded point each.
func chargeVT(p *grid.Patch) {
	nrP, ntP, npP := p.Padded()
	n := int64(nrP) * int64(ntP) * int64(npP)
	perfcount.AddFlops(4 * n)
	perfcount.AddVectorLoops(4*n/int64(nrP), 4*n)
}

// jSlice is a sweep tile's current density j = curl B on one φ-slice:
// three planes (r, θ, φ) of ntP padded radial rows, followed by the
// curl's derivative rows. The update is j's only reader and reads it
// only at its own column, so a tile fills the planes of slice k just
// before that slice's columns and j never exists as a full field while
// stepping. The values are CurlOn's, bit for bit.
type jSlice struct {
	rows       []float64
	nrP, plane int
}

// fill evaluates j on the columns [j0, j1) of φ-slice k.
func (js *jSlice) fill(curl *sphops.CurlColumns, j0, j1, k int) {
	scratch := js.rows[3*js.plane:]
	for j := j0; j < j1; j++ {
		curl.Column(j, k, scratch, js.row(0, j), js.row(1, j), js.row(2, j))
	}
}

// row is component c's padded radial row of column j.
func (js *jSlice) row(c, j int) []float64 {
	return js.rows[c*js.plane+j*js.nrP:][:js.nrP]
}

// bind points the update's j rows at column j of the filled slice.
func (js *jSlice) bind(s *rhsRows, j int) {
	s.jr, s.jt, s.jp = js.row(0, j), js.row(1, j), js.row(2, j)
}

// RHSUpdate evaluates everything of the right-hand side at u except
// div v, which must be current on (at least) the columns of reg; V, T
// and j = curl B are evaluated here, slice by slice. At decomposition
// seams the rim columns differentiate B and pl.DivV halos, so the rim
// may only run after both halo exchanges. Writes out on the columns of
// reg only. A stepping solver runs the same columns through RHSStage
// instead, which folds them into the state as it goes.
func RHSUpdate(pl *Panel, prm Params, u, out *State, reg grid.Region) {
	p := pl.Patch
	c := &pl.cols
	c.prm, c.u, c.out = prm, u, out
	for _, rc := range reg {
		if !rc.Empty() {
			c.rc = rc
			p.Par.For(rc.K1-rc.K0, c.updateFn)
		}
	}
	c.u, c.out = nil, nil
	sphops.ChargeCurl(p, reg)
	chargeRHSUpdate(p, reg)
}

// outRows are the eight padded output rows of one column, in the order
// of State.Scalars: rows of a full-field k for RHSUpdate, of a ring
// plane for RHSStage.
type outRows [8][]float64

// chargeRHSUpdate reports the aggregate work of the fused update on a
// region: the per-node flop and per-column loop totals of the unfused
// sweeps it replaces (divF 18/4, v.grad p 17/4, lap T 28/6, strain 67/10,
// tensor divergence 72/15, grad p 12/4, lap v 123/24, grad div v 12/4,
// final update 70/1). The only deviation from the reference is that the
// flux products are charged on region nodes rather than padded nodes —
// sub-percent of the step total, within the profile gate's tolerance.
func chargeRHSUpdate(p *grid.Patch, reg grid.Region) {
	cols := int64(reg.Columns())
	n := cols * int64(p.Nr)
	perfcount.AddFlops(n * 419)
	perfcount.AddVectorLoops(cols*72, n*72)
}

// derivColumnR runs the radial pass of column (j, k): every radial
// derivative over the shared input rows, seeding the operator
// accumulators with their radial metric terms, with the one-sided
// closures at the global radial boundaries re-deriving the two boundary
// entries in straight-line code. Each value matches the reference
// expression for the radial part of its operator; the radial
// flux-product stencils form their products v_r f_b in place.
func derivColumnR(pl *Panel, u *State, s *rhsRows, j, k int) {
	p := pl.Patch
	h, n := p.H, p.Nr
	c1 := 1 / (2 * p.Dr)
	c2 := 1 / (p.Dr * p.Dr)

	ppR := u.P.Row(j, k)
	frR := u.F.R.Row(j, k)
	ftR := u.F.T.Row(j, k)
	fpR := u.F.P.Row(j, k)
	gR := pl.DivV.Row(j, k)
	tR := s.vt.Row(tT, j, 0)
	vrR := s.vt.Row(vR, j, 0)
	vtR := s.vt.Row(vT, j, 0)
	vpR := s.vt.Row(vP, j, 0)

	dP := s.dPr[h:][:n]
	dF := s.dF[h:][:n]
	gD := s.gDr[h:][:n]
	lT := s.lT[h:][:n]
	v1r, v1t, v1p := s.vD1r[0][h:][:n], s.vD1r[1][h:][:n], s.vD1r[2][h:][:n]
	l0, l1, l2 := s.lap[0][h:][:n], s.lap[1][h:][:n], s.lap[2][h:][:n]
	a0, a1, a2 := s.adv[0][h:][:n], s.adv[1][h:][:n], s.adv[2][h:][:n]
	invr := p.InvR[h:][:n]

	pp, pm := ppR[h+1:][:n], ppR[h-1:][:n]
	fpw, fm, fc := frR[h+1:][:n], frR[h-1:][:n], frR[h:][:n]
	gp, gm := gR[h+1:][:n], gR[h-1:][:n]
	tp, tm, tc := tR[h+1:][:n], tR[h-1:][:n], tR[h:][:n]
	vrp, vrm, vrc := vrR[h+1:][:n], vrR[h-1:][:n], vrR[h:][:n]
	vtp, vtm, vtc := vtR[h+1:][:n], vtR[h-1:][:n], vtR[h:][:n]
	vpp, vpm, vpc := vpR[h+1:][:n], vpR[h-1:][:n], vpR[h:][:n]
	tfp, tfm, tfc := ftR[h+1:][:n], ftR[h-1:][:n], ftR[h:][:n]
	pfp, pfm, pfc := fpR[h+1:][:n], fpR[h-1:][:n], fpR[h:][:n]
	lo := 0
	if simd.AVX2 {
		var a derivRArgs
		a.n, a.c1, a.c2 = n&^3, c1, c2
		a.invr, a.p, a.fr, a.ft, a.fp = &invr[0], &ppR[h], &frR[h], &ftR[h], &fpR[h]
		a.g, a.t, a.vr, a.vt, a.vp = &gR[h], &tR[h], &vrR[h], &vtR[h], &vpR[h]
		a.dP, a.dF, a.gD, a.lT, a.v1r = &dP[0], &dF[0], &gD[0], &lT[0], &v1r[0]
		a.v1t, a.v1p, a.l0, a.l1, a.l2 = &v1t[0], &v1p[0], &l0[0], &l1[0], &l2[0]
		a.a0, a.a1, a.a2 = &a0[0], &a1[0], &a2[0]
		derivRLanes(&a)
		lo = a.n
	}
	for i := lo; i < n; i++ {
		ir := invr[i]
		dP[i] = c1 * (pp[i] - pm[i])
		dF[i] = c1*(fpw[i]-fm[i]) + 2*fc[i]*ir
		gD[i] = c1 * (gp[i] - gm[i])
		ta, tb, t0 := tp[i], tm[i], tc[i]
		lT[i] = c2*(ta-2*t0+tb) + 2*ir*(c1*(ta-tb))
		va, vb, v0 := vrp[i], vrm[i], vrc[i]
		d1 := c1 * (va - vb)
		v1r[i] = d1
		l0[i] = c2*(va-2*v0+vb) + 2*ir*d1
		va, vb, v0 = vtp[i], vtm[i], vtc[i]
		d1 = c1 * (va - vb)
		v1t[i] = d1
		l1[i] = c2*(va-2*v0+vb) + 2*ir*d1
		va, vb, v0 = vpp[i], vpm[i], vpc[i]
		d1 = c1 * (va - vb)
		v1p[i] = d1
		l2[i] = c2*(va-2*v0+vb) + 2*ir*d1
		a0[i] = c1*((vrp[i]*fpw[i])-(vrm[i]*fm[i])) + 2*(vrc[i]*fc[i])*ir
		a1[i] = c1*((vrp[i]*tfp[i])-(vrm[i]*tfm[i])) + 2*(vrc[i]*tfc[i])*ir
		a2[i] = c1*((vrp[i]*pfp[i])-(vrm[i]*pfm[i])) + 2*(vrc[i]*pfc[i])*ir
	}

	if p.GlobalEdge(0) {
		i := h
		ir := p.InvR[i]
		s.dPr[i] = c1 * (-3*ppR[i] + 4*ppR[i+1] - ppR[i+2])
		s.dF[i] = c1*(-3*frR[i]+4*frR[i+1]-frR[i+2]) + 2*frR[i]*ir
		s.gDr[i] = c1 * (-3*gR[i] + 4*gR[i+1] - gR[i+2])
		s.lT[i] = c2*(tR[i]-2*tR[i+1]+tR[i+2]) +
			2*ir*(c1*(-3*tR[i]+4*tR[i+1]-tR[i+2]))
		d1 := c1 * (-3*vrR[i] + 4*vrR[i+1] - vrR[i+2])
		s.vD1r[0][i] = d1
		s.lap[0][i] = c2*(vrR[i]-2*vrR[i+1]+vrR[i+2]) + 2*ir*d1
		d1 = c1 * (-3*vtR[i] + 4*vtR[i+1] - vtR[i+2])
		s.vD1r[1][i] = d1
		s.lap[1][i] = c2*(vtR[i]-2*vtR[i+1]+vtR[i+2]) + 2*ir*d1
		d1 = c1 * (-3*vpR[i] + 4*vpR[i+1] - vpR[i+2])
		s.vD1r[2][i] = d1
		s.lap[2][i] = c2*(vpR[i]-2*vpR[i+1]+vpR[i+2]) + 2*ir*d1
		s.adv[0][i] = c1*(-3*(vrR[i]*frR[i])+4*(vrR[i+1]*frR[i+1])-(vrR[i+2]*frR[i+2])) +
			2*(vrR[i]*frR[i])*ir
		s.adv[1][i] = c1*(-3*(vrR[i]*ftR[i])+4*(vrR[i+1]*ftR[i+1])-(vrR[i+2]*ftR[i+2])) +
			2*(vrR[i]*ftR[i])*ir
		s.adv[2][i] = c1*(-3*(vrR[i]*fpR[i])+4*(vrR[i+1]*fpR[i+1])-(vrR[i+2]*fpR[i+2])) +
			2*(vrR[i]*fpR[i])*ir
	}
	if p.GlobalEdge(1) {
		i := h + n - 1
		ir := p.InvR[i]
		s.dPr[i] = c1 * (3*ppR[i] - 4*ppR[i-1] + ppR[i-2])
		s.dF[i] = c1*(3*frR[i]-4*frR[i-1]+frR[i-2]) + 2*frR[i]*ir
		s.gDr[i] = c1 * (3*gR[i] - 4*gR[i-1] + gR[i-2])
		s.lT[i] = c2*(tR[i]-2*tR[i-1]+tR[i-2]) +
			2*ir*(c1*(3*tR[i]-4*tR[i-1]+tR[i-2]))
		d1 := c1 * (3*vrR[i] - 4*vrR[i-1] + vrR[i-2])
		s.vD1r[0][i] = d1
		s.lap[0][i] = c2*(vrR[i]-2*vrR[i-1]+vrR[i-2]) + 2*ir*d1
		d1 = c1 * (3*vtR[i] - 4*vtR[i-1] + vtR[i-2])
		s.vD1r[1][i] = d1
		s.lap[1][i] = c2*(vtR[i]-2*vtR[i-1]+vtR[i-2]) + 2*ir*d1
		d1 = c1 * (3*vpR[i] - 4*vpR[i-1] + vpR[i-2])
		s.vD1r[2][i] = d1
		s.lap[2][i] = c2*(vpR[i]-2*vpR[i-1]+vpR[i-2]) + 2*ir*d1
		s.adv[0][i] = c1*(3*(vrR[i]*frR[i])-4*(vrR[i-1]*frR[i-1])+(vrR[i-2]*frR[i-2])) +
			2*(vrR[i]*frR[i])*ir
		s.adv[1][i] = c1*(3*(vrR[i]*ftR[i])-4*(vrR[i-1]*ftR[i-1])+(vrR[i-2]*ftR[i-2])) +
			2*(vrR[i]*ftR[i])*ir
		s.adv[2][i] = c1*(3*(vrR[i]*fpR[i])-4*(vrR[i-1]*fpR[i-1])+(vrR[i-2]*fpR[i-2])) +
			2*(vrR[i]*fpR[i])*ir
	}
}

// derivColumnT runs the colatitudinal pass of column (j, k): every
// theta derivative — the flux-product stencils form their neighbor
// products in place, each rounding exactly once as the reference's
// materialized product rows did — adding each operator's theta metric
// term to its accumulator. One boundary classification covers all
// fields.
func derivColumnT(pl *Panel, u *State, s *rhsRows, j, k int) {
	p := pl.Patch
	h, n := p.H, p.Nr
	c1 := 1 / (2 * p.Dt)
	c2 := 1 / (p.Dt * p.Dt)
	lo, hi := p.GlobalEdge(2), p.GlobalEdge(3)
	cot := p.CotT[j]

	dP := s.dPt[h:][:n]
	dF := s.dF[h:][:n]
	gD := s.gDt[h:][:n]
	lT := s.lT[h:][:n]
	v1r, v1t, v1p := s.vD1t[0][h:][:n], s.vD1t[1][h:][:n], s.vD1t[2][h:][:n]
	l0, l1, l2 := s.lap[0][h:][:n], s.lap[1][h:][:n], s.lap[2][h:][:n]
	a0, a1, a2 := s.adv[0][h:][:n], s.adv[1][h:][:n], s.adv[2][h:][:n]
	invr := p.InvR[h:][:n]
	invr2 := p.InvR2[h:][:n]

	w := func(sc *field.Scalar, jj int) []float64 { return sc.Row(jj, k)[h:][:n] }
	wv := func(c, jj int) []float64 { return s.vt.Row(c, jj, 0)[h:][:n] }
	switch {
	case lo && j == h:
		p0, p1, p2 := w(u.P, j), w(u.P, j+1), w(u.P, j+2)
		f0, f1, f2 := w(u.F.T, j), w(u.F.T, j+1), w(u.F.T, j+2)
		g0, g1, g2 := w(pl.DivV, j), w(pl.DivV, j+1), w(pl.DivV, j+2)
		t0, ta, tb := wv(tT, j), wv(tT, j+1), wv(tT, j+2)
		vr0, vr1, vr2 := wv(vR, j), wv(vR, j+1), wv(vR, j+2)
		vt0, vt1, vt2 := wv(vT, j), wv(vT, j+1), wv(vT, j+2)
		vp0, vp1, vp2 := wv(vP, j), wv(vP, j+1), wv(vP, j+2)
		fr0, fr1, fr2 := w(u.F.R, j), w(u.F.R, j+1), w(u.F.R, j+2)
		fp0, fp1, fp2 := w(u.F.P, j), w(u.F.P, j+1), w(u.F.P, j+2)
		for i := 0; i < n; i++ {
			ir := invr[i]
			ir2 := invr2[i]
			dP[i] = c1 * (-3*p0[i] + 4*p1[i] - p2[i])
			dF[i] += ir * ((c1 * (-3*f0[i] + 4*f1[i] - f2[i])) + cot*f0[i])
			gD[i] = c1 * (-3*g0[i] + 4*g1[i] - g2[i])
			lT[i] += ir2 * ((c2 * (t0[i] - 2*ta[i] + tb[i])) +
				cot*(c1*(-3*t0[i]+4*ta[i]-tb[i])))
			d1 := c1 * (-3*vr0[i] + 4*vr1[i] - vr2[i])
			v1r[i] = d1
			l0[i] += ir2 * ((c2 * (vr0[i] - 2*vr1[i] + vr2[i])) + cot*d1)
			d1 = c1 * (-3*vt0[i] + 4*vt1[i] - vt2[i])
			v1t[i] = d1
			l1[i] += ir2 * ((c2 * (vt0[i] - 2*vt1[i] + vt2[i])) + cot*d1)
			d1 = c1 * (-3*vp0[i] + 4*vp1[i] - vp2[i])
			v1p[i] = d1
			l2[i] += ir2 * ((c2 * (vp0[i] - 2*vp1[i] + vp2[i])) + cot*d1)
			a0[i] += ir * ((c1 * (-3*(vt0[i]*fr0[i]) + 4*(vt1[i]*fr1[i]) - (vt2[i] * fr2[i]))) + cot*(vt0[i]*fr0[i]))
			a1[i] += ir * ((c1 * (-3*(vt0[i]*f0[i]) + 4*(vt1[i]*f1[i]) - (vt2[i] * f2[i]))) + cot*(vt0[i]*f0[i]))
			a2[i] += ir * ((c1 * (-3*(vt0[i]*fp0[i]) + 4*(vt1[i]*fp1[i]) - (vt2[i] * fp2[i]))) + cot*(vt0[i]*fp0[i]))
		}
	case hi && j == h+p.Nt-1:
		p0, p1, p2 := w(u.P, j), w(u.P, j-1), w(u.P, j-2)
		f0, f1, f2 := w(u.F.T, j), w(u.F.T, j-1), w(u.F.T, j-2)
		g0, g1, g2 := w(pl.DivV, j), w(pl.DivV, j-1), w(pl.DivV, j-2)
		t0, ta, tb := wv(tT, j), wv(tT, j-1), wv(tT, j-2)
		vr0, vr1, vr2 := wv(vR, j), wv(vR, j-1), wv(vR, j-2)
		vt0, vt1, vt2 := wv(vT, j), wv(vT, j-1), wv(vT, j-2)
		vp0, vp1, vp2 := wv(vP, j), wv(vP, j-1), wv(vP, j-2)
		fr0, fr1, fr2 := w(u.F.R, j), w(u.F.R, j-1), w(u.F.R, j-2)
		fp0, fp1, fp2 := w(u.F.P, j), w(u.F.P, j-1), w(u.F.P, j-2)
		for i := 0; i < n; i++ {
			ir := invr[i]
			ir2 := invr2[i]
			dP[i] = c1 * (3*p0[i] - 4*p1[i] + p2[i])
			dF[i] += ir * ((c1 * (3*f0[i] - 4*f1[i] + f2[i])) + cot*f0[i])
			gD[i] = c1 * (3*g0[i] - 4*g1[i] + g2[i])
			lT[i] += ir2 * ((c2 * (t0[i] - 2*ta[i] + tb[i])) +
				cot*(c1*(3*t0[i]-4*ta[i]+tb[i])))
			d1 := c1 * (3*vr0[i] - 4*vr1[i] + vr2[i])
			v1r[i] = d1
			l0[i] += ir2 * ((c2 * (vr0[i] - 2*vr1[i] + vr2[i])) + cot*d1)
			d1 = c1 * (3*vt0[i] - 4*vt1[i] + vt2[i])
			v1t[i] = d1
			l1[i] += ir2 * ((c2 * (vt0[i] - 2*vt1[i] + vt2[i])) + cot*d1)
			d1 = c1 * (3*vp0[i] - 4*vp1[i] + vp2[i])
			v1p[i] = d1
			l2[i] += ir2 * ((c2 * (vp0[i] - 2*vp1[i] + vp2[i])) + cot*d1)
			a0[i] += ir * ((c1 * (3*(vt0[i]*fr0[i]) - 4*(vt1[i]*fr1[i]) + (vt2[i] * fr2[i]))) + cot*(vt0[i]*fr0[i]))
			a1[i] += ir * ((c1 * (3*(vt0[i]*f0[i]) - 4*(vt1[i]*f1[i]) + (vt2[i] * f2[i]))) + cot*(vt0[i]*f0[i]))
			a2[i] += ir * ((c1 * (3*(vt0[i]*fp0[i]) - 4*(vt1[i]*fp1[i]) + (vt2[i] * fp2[i]))) + cot*(vt0[i]*fp0[i]))
		}
	default:
		pp, pm := w(u.P, j+1), w(u.P, j-1)
		fpw, fm, fc := w(u.F.T, j+1), w(u.F.T, j-1), w(u.F.T, j)
		gp, gm := w(pl.DivV, j+1), w(pl.DivV, j-1)
		tp, tm, tc := wv(tT, j+1), wv(tT, j-1), wv(tT, j)
		vrp, vrm, vrc := wv(vR, j+1), wv(vR, j-1), wv(vR, j)
		vtp, vtm, vtc := wv(vT, j+1), wv(vT, j-1), wv(vT, j)
		vpp, vpm, vpc := wv(vP, j+1), wv(vP, j-1), wv(vP, j)
		frp, frm, frc := w(u.F.R, j+1), w(u.F.R, j-1), w(u.F.R, j)
		fpp, fpm, fpc := w(u.F.P, j+1), w(u.F.P, j-1), w(u.F.P, j)
		lo := 0
		if simd.AVX2 {
			var a derivTArgs
			a.n, a.c1, a.c2, a.cot = n&^3, c1, c2, cot
			a.invr, a.invr2 = &invr[0], &invr2[0]
			a.pp, a.pm, a.fpw, a.fm, a.fc = &pp[0], &pm[0], &fpw[0], &fm[0], &fc[0]
			a.gp, a.gm, a.tp, a.tm, a.tc = &gp[0], &gm[0], &tp[0], &tm[0], &tc[0]
			a.vrp, a.vrm, a.vrc, a.vtp, a.vtm = &vrp[0], &vrm[0], &vrc[0], &vtp[0], &vtm[0]
			a.vtc, a.vpp, a.vpm = &vtc[0], &vpp[0], &vpm[0]
			a.vpc, a.frp, a.frm, a.frc, a.fpp = &vpc[0], &frp[0], &frm[0], &frc[0], &fpp[0]
			a.fpm, a.fpc = &fpm[0], &fpc[0]
			a.dP, a.dF, a.gD, a.lT, a.v1r = &dP[0], &dF[0], &gD[0], &lT[0], &v1r[0]
			a.v1t, a.v1p, a.l0, a.l1, a.l2 = &v1t[0], &v1p[0], &l0[0], &l1[0], &l2[0]
			a.a0, a.a1, a.a2 = &a0[0], &a1[0], &a2[0]
			derivTLanes(&a)
			lo = a.n
		}
		for i := lo; i < n; i++ {
			ir := invr[i]
			ir2 := invr2[i]
			dP[i] = c1 * (pp[i] - pm[i])
			dF[i] += ir * ((c1 * (fpw[i] - fm[i])) + cot*fc[i])
			gD[i] = c1 * (gp[i] - gm[i])
			ta, tb, t0 := tp[i], tm[i], tc[i]
			lT[i] += ir2 * ((c2 * (ta - 2*t0 + tb)) + cot*(c1*(ta-tb)))
			va, vb, v0 := vrp[i], vrm[i], vrc[i]
			d1 := c1 * (va - vb)
			v1r[i] = d1
			l0[i] += ir2 * ((c2 * (va - 2*v0 + vb)) + cot*d1)
			va, vb, v0 = vtp[i], vtm[i], vtc[i]
			d1 = c1 * (va - vb)
			v1t[i] = d1
			l1[i] += ir2 * ((c2 * (va - 2*v0 + vb)) + cot*d1)
			va, vb, v0 = vpp[i], vpm[i], vpc[i]
			d1 = c1 * (va - vb)
			v1p[i] = d1
			l2[i] += ir2 * ((c2 * (va - 2*v0 + vb)) + cot*d1)
			a0[i] += ir * ((c1 * ((vtp[i] * frp[i]) - (vtm[i] * frm[i]))) + cot*(vtc[i]*frc[i]))
			a1[i] += ir * ((c1 * ((vtp[i] * fpw[i]) - (vtm[i] * fm[i]))) + cot*(vtc[i]*fc[i]))
			a2[i] += ir * ((c1 * ((vtp[i] * fpp[i]) - (vtm[i] * fpm[i]))) + cot*(vtc[i]*fpc[i]))
		}
	}
}

// derivColumnP runs the azimuthal pass of column (j, k), same structure
// as derivColumnT with the roles of j and k swapped, no first
// temperature derivative (lap T needs only the second), and the phi
// metric factors ir*ist / ir2*ist*ist.
func derivColumnP(pl *Panel, u *State, s *rhsRows, j, k int) {
	p := pl.Patch
	h, n := p.H, p.Nr
	c1 := 1 / (2 * p.Dp)
	c2 := 1 / (p.Dp * p.Dp)
	lo, hi := p.GlobalEdge(4), p.GlobalEdge(5)
	ist := p.InvSinT[j]

	dP := s.dPp[h:][:n]
	dF := s.dF[h:][:n]
	gD := s.gDp[h:][:n]
	lT := s.lT[h:][:n]
	v1r, v1t, v1p := s.vD1p[0][h:][:n], s.vD1p[1][h:][:n], s.vD1p[2][h:][:n]
	l0, l1, l2 := s.lap[0][h:][:n], s.lap[1][h:][:n], s.lap[2][h:][:n]
	a0, a1, a2 := s.adv[0][h:][:n], s.adv[1][h:][:n], s.adv[2][h:][:n]
	invr := p.InvR[h:][:n]
	invr2 := p.InvR2[h:][:n]

	w := func(sc *field.Scalar, kk int) []float64 { return sc.Row(j, kk)[h:][:n] }
	wv := func(c, kk int) []float64 { return s.vt.Row(c, j, kk-k)[h:][:n] }
	switch {
	case lo && k == h:
		p0, p1, p2 := w(u.P, k), w(u.P, k+1), w(u.P, k+2)
		f0, f1, f2 := w(u.F.P, k), w(u.F.P, k+1), w(u.F.P, k+2)
		g0, g1, g2 := w(pl.DivV, k), w(pl.DivV, k+1), w(pl.DivV, k+2)
		t0, ta, tb := wv(tT, k), wv(tT, k+1), wv(tT, k+2)
		vr0, vr1, vr2 := wv(vR, k), wv(vR, k+1), wv(vR, k+2)
		vt0, vt1, vt2 := wv(vT, k), wv(vT, k+1), wv(vT, k+2)
		vp0, vp1, vp2 := wv(vP, k), wv(vP, k+1), wv(vP, k+2)
		fr0, fr1, fr2 := w(u.F.R, k), w(u.F.R, k+1), w(u.F.R, k+2)
		ft0, ft1, ft2 := w(u.F.T, k), w(u.F.T, k+1), w(u.F.T, k+2)
		for i := 0; i < n; i++ {
			ir := invr[i]
			ir2 := invr2[i]
			dP[i] = c1 * (-3*p0[i] + 4*p1[i] - p2[i])
			dF[i] += ir * ist * (c1 * (-3*f0[i] + 4*f1[i] - f2[i]))
			gD[i] = c1 * (-3*g0[i] + 4*g1[i] - g2[i])
			lT[i] += ir2 * ist * ist * (c2 * (t0[i] - 2*ta[i] + tb[i]))
			d1 := c1 * (-3*vr0[i] + 4*vr1[i] - vr2[i])
			v1r[i] = d1
			l0[i] += ir2 * ist * ist * (c2 * (vr0[i] - 2*vr1[i] + vr2[i]))
			d1 = c1 * (-3*vt0[i] + 4*vt1[i] - vt2[i])
			v1t[i] = d1
			l1[i] += ir2 * ist * ist * (c2 * (vt0[i] - 2*vt1[i] + vt2[i]))
			d1 = c1 * (-3*vp0[i] + 4*vp1[i] - vp2[i])
			v1p[i] = d1
			l2[i] += ir2 * ist * ist * (c2 * (vp0[i] - 2*vp1[i] + vp2[i]))
			a0[i] += ir * ist * (c1 * (-3*(vp0[i]*fr0[i]) + 4*(vp1[i]*fr1[i]) - (vp2[i] * fr2[i])))
			a1[i] += ir * ist * (c1 * (-3*(vp0[i]*ft0[i]) + 4*(vp1[i]*ft1[i]) - (vp2[i] * ft2[i])))
			a2[i] += ir * ist * (c1 * (-3*(vp0[i]*f0[i]) + 4*(vp1[i]*f1[i]) - (vp2[i] * f2[i])))
		}
	case hi && k == h+p.Np-1:
		p0, p1, p2 := w(u.P, k), w(u.P, k-1), w(u.P, k-2)
		f0, f1, f2 := w(u.F.P, k), w(u.F.P, k-1), w(u.F.P, k-2)
		g0, g1, g2 := w(pl.DivV, k), w(pl.DivV, k-1), w(pl.DivV, k-2)
		t0, ta, tb := wv(tT, k), wv(tT, k-1), wv(tT, k-2)
		vr0, vr1, vr2 := wv(vR, k), wv(vR, k-1), wv(vR, k-2)
		vt0, vt1, vt2 := wv(vT, k), wv(vT, k-1), wv(vT, k-2)
		vp0, vp1, vp2 := wv(vP, k), wv(vP, k-1), wv(vP, k-2)
		fr0, fr1, fr2 := w(u.F.R, k), w(u.F.R, k-1), w(u.F.R, k-2)
		ft0, ft1, ft2 := w(u.F.T, k), w(u.F.T, k-1), w(u.F.T, k-2)
		for i := 0; i < n; i++ {
			ir := invr[i]
			ir2 := invr2[i]
			dP[i] = c1 * (3*p0[i] - 4*p1[i] + p2[i])
			dF[i] += ir * ist * (c1 * (3*f0[i] - 4*f1[i] + f2[i]))
			gD[i] = c1 * (3*g0[i] - 4*g1[i] + g2[i])
			lT[i] += ir2 * ist * ist * (c2 * (t0[i] - 2*ta[i] + tb[i]))
			d1 := c1 * (3*vr0[i] - 4*vr1[i] + vr2[i])
			v1r[i] = d1
			l0[i] += ir2 * ist * ist * (c2 * (vr0[i] - 2*vr1[i] + vr2[i]))
			d1 = c1 * (3*vt0[i] - 4*vt1[i] + vt2[i])
			v1t[i] = d1
			l1[i] += ir2 * ist * ist * (c2 * (vt0[i] - 2*vt1[i] + vt2[i]))
			d1 = c1 * (3*vp0[i] - 4*vp1[i] + vp2[i])
			v1p[i] = d1
			l2[i] += ir2 * ist * ist * (c2 * (vp0[i] - 2*vp1[i] + vp2[i]))
			a0[i] += ir * ist * (c1 * (3*(vp0[i]*fr0[i]) - 4*(vp1[i]*fr1[i]) + (vp2[i] * fr2[i])))
			a1[i] += ir * ist * (c1 * (3*(vp0[i]*ft0[i]) - 4*(vp1[i]*ft1[i]) + (vp2[i] * ft2[i])))
			a2[i] += ir * ist * (c1 * (3*(vp0[i]*f0[i]) - 4*(vp1[i]*f1[i]) + (vp2[i] * f2[i])))
		}
	default:
		pp, pm := w(u.P, k+1), w(u.P, k-1)
		fpw, fm := w(u.F.P, k+1), w(u.F.P, k-1)
		gp, gm := w(pl.DivV, k+1), w(pl.DivV, k-1)
		tp, tm, tc := wv(tT, k+1), wv(tT, k-1), wv(tT, k)
		vrp, vrm, vrc := wv(vR, k+1), wv(vR, k-1), wv(vR, k)
		vtp, vtm, vtc := wv(vT, k+1), wv(vT, k-1), wv(vT, k)
		vpp, vpm, vpc := wv(vP, k+1), wv(vP, k-1), wv(vP, k)
		frp, frm := w(u.F.R, k+1), w(u.F.R, k-1)
		ftp, ftm := w(u.F.T, k+1), w(u.F.T, k-1)
		lo := 0
		if simd.AVX2 {
			var a derivPArgs
			a.n, a.c1, a.c2, a.ist = n&^3, c1, c2, ist
			a.invr, a.invr2 = &invr[0], &invr2[0]
			a.pp, a.pm, a.fpw, a.fm, a.gp = &pp[0], &pm[0], &fpw[0], &fm[0], &gp[0]
			a.gm, a.tp, a.tm, a.tc = &gm[0], &tp[0], &tm[0], &tc[0]
			a.vrp, a.vrm, a.vrc, a.vtp, a.vtm = &vrp[0], &vrm[0], &vrc[0], &vtp[0], &vtm[0]
			a.vtc, a.vpp, a.vpm = &vtc[0], &vpp[0], &vpm[0]
			a.vpc, a.frp, a.frm, a.ftp, a.ftm = &vpc[0], &frp[0], &frm[0], &ftp[0], &ftm[0]
			a.dP, a.dF, a.gD, a.lT, a.v1r = &dP[0], &dF[0], &gD[0], &lT[0], &v1r[0]
			a.v1t, a.v1p, a.l0, a.l1, a.l2 = &v1t[0], &v1p[0], &l0[0], &l1[0], &l2[0]
			a.a0, a.a1, a.a2 = &a0[0], &a1[0], &a2[0]
			derivPLanes(&a)
			lo = a.n
		}
		for i := lo; i < n; i++ {
			ir := invr[i]
			ir2 := invr2[i]
			dP[i] = c1 * (pp[i] - pm[i])
			dF[i] += ir * ist * (c1 * (fpw[i] - fm[i]))
			gD[i] = c1 * (gp[i] - gm[i])
			ta, tb, t0 := tp[i], tm[i], tc[i]
			lT[i] += ir2 * ist * ist * (c2 * (ta - 2*t0 + tb))
			va, vb, v0 := vrp[i], vrm[i], vrc[i]
			d1 := c1 * (va - vb)
			v1r[i] = d1
			l0[i] += ir2 * ist * ist * (c2 * (va - 2*v0 + vb))
			va, vb, v0 = vtp[i], vtm[i], vtc[i]
			d1 = c1 * (va - vb)
			v1t[i] = d1
			l1[i] += ir2 * ist * ist * (c2 * (va - 2*v0 + vb))
			va, vb, v0 = vpp[i], vpm[i], vpc[i]
			d1 = c1 * (va - vb)
			v1p[i] = d1
			l2[i] += ir2 * ist * ist * (c2 * (va - 2*v0 + vb))
			a0[i] += ir * ist * (c1 * ((vpp[i] * frp[i]) - (vpm[i] * frm[i])))
			a1[i] += ir * ist * (c1 * ((vpp[i] * ftp[i]) - (vpm[i] * ftm[i])))
			a2[i] += ir * ist * (c1 * ((vpp[i] * fpw[i]) - (vpm[i] * fm[i])))
		}
	}
}

// fusedRHSColumn evaluates the full fused update for one (j, k) column:
// the flux-product rows, three direction passes building every
// derivative row and directional operator accumulation over shared
// inputs, then one loop producing all eight outputs, into the rows of
// o, with every remaining intermediate in registers. It reads j from
// the rows bound in s. Every arithmetic
// statement mirrors its full-field counterpart in ops.go / advect.go /
// rhs_reference.go, preserving rounding order; register-held float64s
// round identically to stored ones on every supported target.
func fusedRHSColumn(pl *Panel, prm Params, u *State, o *outRows, s *rhsRows, j, k int) {
	p := pl.Patch
	h := p.H
	nr := p.Nr
	cot := p.CotT[j]
	ist := p.InvSinT[j]
	m := p.InvSinT[j]

	vr := s.vt.Row(vR, j, 0)
	vt := s.vt.Row(vT, j, 0)
	vp := s.vt.Row(vP, j, 0)
	fr := u.F.R.Row(j, k)
	ft := u.F.T.Row(j, k)
	fp := u.F.P.Row(j, k)

	// All derivative rows and directional accumulations, one pass per
	// direction (the += order is radial, theta, phi — the reference's
	// term order). The momentum-flux stencils form their products
	// v_a f_b in place, each rounding exactly once — bit-identical to
	// differencing the reference's materialized product arrays.
	derivColumnR(pl, u, s, j, k)
	derivColumnT(pl, u, s, j, k)
	derivColumnP(pl, u, s, j, k)

	// The final loop: strain, curvature/Christoffel corrections, and
	// the update equations. All rows are re-sliced to length-tied
	// windows at the padded offset so the compiler drops bounds checks;
	// window index i is padded index h+i everywhere.
	w := func(r []float64) []float64 { return r[h:][:nr] }
	invr := w(p.InvR)
	invr2 := w(p.InvR2)
	vrw, vtw, vpw := w(vr), w(vt), w(vp)
	frw, ftw, fpw := w(fr), w(ft), w(fp)

	dPrw, dPtw, dPpw := w(s.dPr), w(s.dPt), w(s.dPp)
	dFw, lTw := w(s.dF), w(s.lT)
	drvr, dtvr, dpvr := w(s.vD1r[0]), w(s.vD1t[0]), w(s.vD1p[0])
	drvt, dtvt, dpvt := w(s.vD1r[1]), w(s.vD1t[1]), w(s.vD1p[1])
	drvp, dtvp, dpvp := w(s.vD1r[2]), w(s.vD1t[2]), w(s.vD1p[2])
	lap0, lap1, lap2 := w(s.lap[0]), w(s.lap[1]), w(s.lap[2])
	adv0, adv1, adv2 := w(s.adv[0]), w(s.adv[1]), w(s.adv[2])
	gDrw, gDtw, gDpw := w(s.gDr), w(s.gDt), w(s.gDp)

	gamma, mu, kappa, eta, g0 := prm.Gamma, prm.Mu, prm.Kappa, prm.Eta, prm.G0
	_, ntP, _ := p.Padded()
	idx := k*ntP + j
	omR, omT, omP := pl.OmR[idx], pl.OmT[idx], pl.OmP[idx]
	cost := p.CosT[j]
	ist2 := ist * ist

	rho := w(u.Rho.Row(j, k))
	pp := w(u.P.Row(j, k))
	br := w(pl.B.R.Row(j, k))
	bt := w(pl.B.T.Row(j, k))
	bp := w(pl.B.P.Row(j, k))
	jr, jt, jp := w(s.jr), w(s.jt), w(s.jp)
	dV := w(pl.DivV.Row(j, k))

	oRho, oP := w(o[0]), w(o[1])
	oFr, oFt, oFp := w(o[2]), w(o[3]), w(o[4])
	oAr, oAt, oAp := w(o[5]), w(o[6]), w(o[7])

	lo := 0
	if simd.AVX2 {
		var a updateArgs
		a.n, a.cot, a.ist, a.gamma, a.mu, a.kappa = nr&^3, cot, ist, gamma, mu, kappa
		a.eta, a.g0, a.omR, a.omT, a.omP = eta, g0, omR, omT, omP
		a.cost, a.ist2 = cost, ist2
		a.invr, a.invr2, a.vrw, a.vtw, a.vpw = &invr[0], &invr2[0], &vrw[0], &vtw[0], &vpw[0]
		a.frw, a.ftw, a.fpw = &frw[0], &ftw[0], &fpw[0]
		a.dPrw, a.dPtw, a.dPpw, a.dFw, a.lTw = &dPrw[0], &dPtw[0], &dPpw[0], &dFw[0], &lTw[0]
		a.drvr, a.dtvr, a.dpvr, a.drvt, a.dtvt = &drvr[0], &dtvr[0], &dpvr[0], &drvt[0], &dtvt[0]
		a.dpvt, a.drvp, a.dtvp, a.dpvp = &dpvt[0], &drvp[0], &dtvp[0], &dpvp[0]
		a.lap0, a.lap1, a.lap2, a.adv0, a.adv1 = &lap0[0], &lap1[0], &lap2[0], &adv0[0], &adv1[0]
		a.adv2, a.gDrw, a.gDtw, a.gDpw = &adv2[0], &gDrw[0], &gDtw[0], &gDpw[0]
		a.rho, a.pp, a.br, a.bt, a.bp = &rho[0], &pp[0], &br[0], &bt[0], &bp[0]
		a.jr, a.jt, a.jp, a.dV = &jr[0], &jt[0], &jp[0], &dV[0]
		a.oRho, a.oP, a.oFr, a.oFt, a.oFp = &oRho[0], &oP[0], &oFr[0], &oFt[0], &oFp[0]
		a.oAr, a.oAt, a.oAp = &oAr[0], &oAt[0], &oAp[0]
		updateLanes(&a)
		lo = a.n
	}
	for i := lo; i < nr; i++ {
		ir := invr[i]
		ir2 := invr2[i]

		// v.grad p (sphops.VDotGrad) and grad p (sphops.Grad).
		vg := vrw[i]*dPrw[i] + vtw[i]*ir*dPtw[i] + vpw[i]*ir*ist*dPpw[i]
		gpR := dPrw[i]
		gpT := dPtw[i] * ir
		gpP := dPpw[i] * (ir * m)

		// Strain dissipation S (sphops.StrainSquared).
		err := drvr[i]
		ett := ir*dtvt[i] + vrw[i]*ir
		epp := ir*ist*dpvp[i] + vrw[i]*ir + cot*vtw[i]*ir
		ert := 0.5 * (ir*dtvr[i] + drvt[i] - vtw[i]*ir)
		erp := 0.5 * (ir*ist*dpvr[i] + drvp[i] - vpw[i]*ir)
		etp := 0.5 * (ir*ist*dpvt[i] + ir*dtvp[i] - cot*vpw[i]*ir)
		sDiv := err + ett + epp
		st := err*err + ett*ett + epp*epp +
			2*(ert*ert+erp*erp+etp*etp) - sDiv*sDiv/3

		// Tensor-divergence Christoffel terms (sphops.DivTensorVF).
		advR := adv0[i]
		advR -= (vtw[i]*ftw[i] + vpw[i]*fpw[i]) * ir
		advT := adv1[i]
		advT += (vtw[i]*frw[i] - cot*vpw[i]*fpw[i]) * ir
		advP := adv2[i]
		advP += (vpw[i]*frw[i] + cot*vpw[i]*ftw[i]) * ir

		// Vector-Laplacian curvature coupling (sphops.LapVector).
		lapR := lap0[i]
		lapT := lap1[i]
		lapP := lap2[i]
		lapR -= 2 * ir2 * (vrw[i] + dtvt[i] + cot*vtw[i] + ist*dpvp[i])
		lapT += ir2 * (2*dtvr[i] - ist2*vtw[i] - 2*cost*ist2*dpvp[i])
		lapP += ir2 * (2*ist*dpvr[i] + 2*cost*ist2*dpvt[i] - ist2*vpw[i])

		// grad(div v) (sphops.Grad on pl.DivV).
		gdvR := gDrw[i]
		gdvT := gDtw[i] * ir
		gdvP := gDpw[i] * (ir * m)

		// Continuity, eq. (2).
		oRho[i] = -dFw[i]

		// Lorentz force j x B.
		fLr := jt[i]*bp[i] - jp[i]*bt[i]
		fLt := jp[i]*br[i] - jr[i]*bp[i]
		fLp := jr[i]*bt[i] - jt[i]*br[i]

		// Gravity (radial) and Coriolis 2 rho v x Omega.
		gR := -g0 * ir2
		corR := 2 * rho[i] * (vtw[i]*omP - vpw[i]*omT)
		corT := 2 * rho[i] * (vpw[i]*omR - vrw[i]*omP)
		corP := 2 * rho[i] * (vrw[i]*omT - vtw[i]*omR)

		// Momentum, eq. (3).
		oFr[i] = -advR - gpR + fLr + rho[i]*gR + corR +
			mu*(lapR+gdvR/3)
		oFt[i] = -advT - gpT + fLt + corT +
			mu*(lapT+gdvT/3)
		oFp[i] = -advP - gpP + fLp + corP +
			mu*(lapP+gdvP/3)

		// Pressure, eq. (4).
		jsq := jr[i]*jr[i] + jt[i]*jt[i] + jp[i]*jp[i]
		oP[i] = -vg - gamma*pp[i]*dV[i] +
			(gamma-1)*(kappa*lTw[i]+eta*jsq+2*mu*st)

		// Induction, eq. (5): dA/dt = -E = v x B - eta j.
		oAr[i] = vtw[i]*bp[i] - vpw[i]*bt[i] - eta*jr[i]
		oAt[i] = vpw[i]*br[i] - vrw[i]*bp[i] - eta*jt[i]
		oAp[i] = vrw[i]*bt[i] - vtw[i]*br[i] - eta*jp[i]
	}
}
