package sphops

import (
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/perfcount"
	"repro/internal/simd"
)

// Region-restricted, column-fused variants of the operators in ops.go.
// Where the full-field forms make one derivative sweep per term over the
// whole patch, these compute every derivative row and the metric combine
// for one (j, k) column in a single pass before moving to the next — the
// cache-blocking the fused right-hand side is built on — and touch only
// the columns of the given region, which is what lets a decomposed rank
// evaluate the interior while halo messages are still in flight and
// finish the rim afterwards.
//
// Each column's derivative rows depend only on the input field, never on
// another column's scratch, and the combine statements are copied from
// the full-field forms, so for any region cover the results are bitwise
// identical to the corresponding full-field sweep.

// colArgs carries one column-fused kernel call's operands and stencil
// constants to its per-column body: divColumn when div is set, else
// curlColumn into the rows of out. The bodies are called directly, not
// through a func value, so a serial sweep keeps colArgs on the stack.
type colArgs struct {
	p                  *grid.Patch
	v                  *field.Vector
	out                *field.Vector // CurlOn's output
	div                *field.Scalar // DivOn's output
	cr, ct, cp         float64
	loT, hiT, loP, hiP bool
}

func newColArgs(p *grid.Patch, v, out *field.Vector, div *field.Scalar) colArgs {
	return colArgs{
		p: p, v: v, out: out, div: div,
		cr: 1 / (2 * p.Dr), ct: 1 / (2 * p.Dt), cp: 1 / (2 * p.Dp),
		loT: p.GlobalEdge(2), hiT: p.GlobalEdge(3),
		loP: p.GlobalEdge(4), hiP: p.GlobalEdge(5),
	}
}

// sweepOn runs a's column body over every column of reg, handing each
// pool range one set of rows padded radial scratch rows from w. Each
// rectangle's phi extent is range-split over the patch worker pool;
// distinct (j, k) columns own disjoint output rows, and a body writes
// only its own column's output rows and the scratch rows, so the
// parallel form is bit-identical to the serial one. The rectangle and
// kernel in flight live in w, whose tile function is bound once, so
// neither a serial nor a pooled sweep allocates once w holds its row
// sets.
func sweepOn(reg grid.Region, w *Workspace, rows int, a colArgs) {
	sw := &w.sweep
	sw.a, sw.rows = a, rows
	for _, rc := range reg {
		if rc.Empty() {
			continue
		}
		sw.rc = rc
		a.p.Par.For(rc.K1-rc.K0, sw.fn)
	}
	sw.a = colArgs{}
}

// regionSweep is a workspace's sweep in flight: sweepOn's rectangle,
// kernel and row count, and fn, tile bound once at NewWorkspace.
type regionSweep struct {
	w    *Workspace
	rc   grid.Rect
	a    colArgs
	rows int
	fn   func(klo, khi int)
}

// tile runs the sweep's column body over the columns of its rectangle
// in phi offsets [klo, khi).
func (sw *regionSweep) tile(klo, khi int) {
	rc, a := sw.rc, &sw.a
	s := sw.w.Rows(sw.rows)
	var v SliceRows
	for k := rc.K0 + klo; k < rc.K0+khi; k++ {
		if a.div != nil {
			v.BindFields(k, a.v.R, a.v.T, a.v.P)
		}
		for j := rc.J0; j < rc.J1; j++ {
			if a.div != nil {
				divColumn(a, j, k, &v, s, a.div.Row(j, k))
			} else {
				curlColumn(a, j, k, s, a.out.R.Row(j, k), a.out.T.Row(j, k), a.out.P.Row(j, k))
			}
		}
	}
	sw.w.PutRows(s)
}

// SliceRows is the source a column body reads a field's rows from
// around φ-slice k: Plane[dk+2][c] holds component c on slice k+dk,
// one padded radial row of NrP values per θ index, for |dk| <= 2. A
// caller binds it to full fields (BindFields) or to planes of its own,
// such as a ring of slices it fills as a sweep advances.
type SliceRows struct {
	Plane [5][4][]float64
	NrP   int
}

// Row is component c's padded radial row of column j on slice k+dk.
func (v *SliceRows) Row(c, j, dk int) []float64 {
	return v.Plane[dk+2][c][j*v.NrP:][:v.NrP]
}

// BindFields points v at the fields fs, component c at fs[c], around
// padded φ-slice k; slices outside the padded arrays are left unbound.
func (v *SliceRows) BindFields(k int, fs ...*field.Scalar) {
	for c, f := range fs {
		nrP, ntP, npP := f.Padded()
		plane := ntP * nrP
		v.NrP = nrP
		for dk := -2; dk <= 2; dk++ {
			v.Plane[dk+2][c] = nil
			if kk := k + dk; kk >= 0 && kk < npP {
				v.Plane[dk+2][c] = f.Data[kk*plane:][:plane]
			}
		}
	}
}

// countOn charges the aggregate a region evaluation owes the counters:
// flopsPerNode flops on every region node across loopsPerColumn radial
// loops per column, matching what the full-field sweeps charge when the
// region covers the whole patch.
func countOn(p *grid.Patch, reg grid.Region, flopsPerNode, loopsPerColumn int) {
	cols := int64(reg.Columns())
	n := cols * int64(p.Nr)
	lpc := int64(loopsPerColumn)
	perfcount.AddFlops(n * int64(flopsPerNode))
	perfcount.AddVectorLoops(cols*lpc, n*lpc)
}

// DivOn computes Div over the columns of reg only (same metric form,
// bitwise-identical values). The angular derivative rows of a column
// are built by two stencil passes and the radial stencil is formed
// inside the combine itself, with the one-sided radial closures
// re-deriving the two global-boundary entries; every stencil and
// combine statement matches the full-field sweep, so the values are
// exact.
//
//yyvet:ignore reach oracle for TestSliceVTMatchesFullVT and the lane and MMS tests
func DivOn(p *grid.Patch, reg grid.Region, v *field.Vector, out *field.Scalar, w *Workspace) {
	sweepOn(reg, w, DivRows, newColArgs(p, v, nil, out))
	ChargeDiv(p, reg)
}

// DivRows is the number of padded radial scratch rows a divergence
// column needs: its two angular derivative rows.
const DivRows = 2

// ChargeDiv charges the counters what DivOn charges on reg, for a
// caller that evaluates the same columns through DivColumns.
func ChargeDiv(p *grid.Patch, reg grid.Region) {
	countOn(p, reg, 18, 4)
}

// DivColumns is DivOn's column body bound to one patch, for a caller
// that supplies the input field's rows itself (components 0, 1, 2 of a
// SliceRows are v_r, v_θ, v_φ) and takes the output a column at a time.
// It charges nothing (ChargeDiv does).
type DivColumns struct{ a colArgs }

// BindDiv binds the divergence body on p.
func BindDiv(p *grid.Patch) DivColumns {
	return DivColumns{newColArgs(p, nil, nil, nil)}
}

// Column writes div v at column (j, k), v bound around slice k, into
// the patch nodes [H, H+Nr) of the padded row out, bitwise as DivOn
// writes them, with s (DivRows padded rows) as scratch.
func (d *DivColumns) Column(j, k int, v *SliceRows, s, out []float64) {
	divColumn(&d.a, j, k, v, s, out)
}

// divColumn is DivOn's body for column (j, k), reading v's rows from v,
// with its two angular derivative rows in s and its output in the
// padded row orR.
func divColumn(a *colArgs, j, k int, v *SliceRows, s, orR []float64) {
	p := a.p
	h := p.H
	n := p.Nr
	cr, ct, cp := a.cr, a.ct, a.cp
	loT, hiT, loP, hiP := a.loT, a.hiT, a.loP, a.hiP
	nrP := n + 2*h
	dtr, dpr := s[:nrP], s[nrP:2*nrP]
	w := func(c, jj, dk int) []float64 { return v.Row(c, jj, dk)[h:][:n] }

	// Theta pass: d/dtheta of v_theta.
	{
		bw := dtr[h:][:n]
		switch {
		case loT && j == h:
			t0, t1, t2 := w(1, j, 0), w(1, j+1, 0), w(1, j+2, 0)
			for i := 0; i < n; i++ {
				bw[i] = ct * (-3*t0[i] + 4*t1[i] - t2[i])
			}
		case hiT && j == h+p.Nt-1:
			t0, t1, t2 := w(1, j, 0), w(1, j-1, 0), w(1, j-2, 0)
			for i := 0; i < n; i++ {
				bw[i] = ct * (3*t0[i] - 4*t1[i] + t2[i])
			}
		default:
			tP, tM := w(1, j+1, 0), w(1, j-1, 0)
			lo := 0
			if simd.AVX2 {
				lo = diffPair(ct, bw, tP, tM, nil, nil, nil)
			}
			for i := lo; i < n; i++ {
				bw[i] = ct * (tP[i] - tM[i])
			}
		}
	}

	// Phi pass: d/dphi of v_phi.
	{
		cw := dpr[h:][:n]
		switch {
		case loP && k == h:
			p0, p1, p2 := w(2, j, 0), w(2, j, 1), w(2, j, 2)
			for i := 0; i < n; i++ {
				cw[i] = cp * (-3*p0[i] + 4*p1[i] - p2[i])
			}
		case hiP && k == h+p.Np-1:
			p0, p1, p2 := w(2, j, 0), w(2, j, -1), w(2, j, -2)
			for i := 0; i < n; i++ {
				cw[i] = cp * (3*p0[i] - 4*p1[i] + p2[i])
			}
		default:
			pP, pM := w(2, j, 1), w(2, j, -1)
			lo := 0
			if simd.AVX2 {
				lo = diffPair(cp, cw, pP, pM, nil, nil, nil)
			}
			for i := lo; i < n; i++ {
				cw[i] = cp * (pP[i] - pM[i])
			}
		}
	}

	// Combine, with the radial stencil formed in place.
	vrR := v.Row(0, j, 0)
	vtR := v.Row(1, j, 0)
	or := orR[h:][:n]
	vr := vrR[h:][:n]
	vrp, vrm := vrR[h+1:][:n], vrR[h-1:][:n]
	vt := vtR[h:][:n]
	invr := p.InvR[h:][:n]
	db, dc := dtr[h:][:n], dpr[h:][:n]
	cot := p.CotT[j]
	ist := p.InvSinT[j]
	lo := 0
	if simd.AVX2 {
		var a divCombineArgs
		a.n, a.cr, a.cot, a.ist = n&^3, cr, cot, ist
		a.or, a.vr, a.vt, a.invr = &or[0], &vrR[h], &vt[0], &invr[0]
		a.db, a.dc = &db[0], &dc[0]
		divCombineLanes(&a)
		lo = a.n
	}
	for i := lo; i < n; i++ {
		ir := invr[i]
		or[i] = (cr * (vrp[i] - vrm[i])) + 2*vr[i]*ir + ir*(db[i]+cot*vt[i]) + ir*ist*dc[i]
	}
	if p.GlobalEdge(0) {
		i := h
		ir := p.InvR[i]
		orR[i] = (cr * (-3*vrR[i] + 4*vrR[i+1] - vrR[i+2])) + 2*vrR[i]*ir +
			ir*(dtr[i]+cot*vtR[i]) + ir*ist*dpr[i]
	}
	if p.GlobalEdge(1) {
		i := h + n - 1
		ir := p.InvR[i]
		orR[i] = (cr * (3*vrR[i] - 4*vrR[i-1] + vrR[i-2])) + 2*vrR[i]*ir +
			ir*(dtr[i]+cot*vtR[i]) + ir*ist*dpr[i]
	}
}

// CurlOn computes Curl over the columns of reg only (same metric form,
// bitwise-identical values). The six derivative rows of a column are
// built in one merged pass per direction — two stencils sharing each
// pass's input rows — before the combine; every stencil and combine
// statement matches the full-field sweep, so the values are exact.
func CurlOn(p *grid.Patch, reg grid.Region, v *field.Vector, out *field.Vector, w *Workspace) {
	sweepOn(reg, w, CurlRows, newColArgs(p, v, out, nil))
	ChargeCurl(p, reg)
}

// CurlRows is the number of padded radial scratch rows a curl column
// needs: its six derivative rows.
const CurlRows = 6

// ChargeCurl charges the counters what CurlOn charges on reg, for a
// caller that evaluates the same columns through CurlColumns.
func ChargeCurl(p *grid.Patch, reg grid.Region) {
	countOn(p, reg, 31, 7)
}

// CurlColumns is CurlOn's column body bound to one patch and input
// field, for a caller that evaluates the curl a column at a time into
// rows of its own instead of into a full field. Bind it once per sweep;
// it charges nothing (ChargeCurl does).
type CurlColumns struct{ a colArgs }

// BindCurl binds the curl of v on p.
func BindCurl(p *grid.Patch, v *field.Vector) CurlColumns {
	return CurlColumns{newColArgs(p, v, nil, nil)}
}

// Column writes curl v at column (j, k) into the patch nodes [H, H+Nr)
// of the padded rows r, t and ph, bitwise as CurlOn writes them, with s
// (CurlRows padded rows) as scratch.
func (c *CurlColumns) Column(j, k int, s, r, t, ph []float64) {
	curlColumn(&c.a, j, k, s, r, t, ph)
}

// curlColumn is CurlOn's body for column (j, k), with its six derivative
// rows in s and its output in the padded rows outR, outT, outP.
func curlColumn(cv *colArgs, j, k int, s, outR, outT, outP []float64) {
	p, v := cv.p, cv.v
	h := p.H
	n := p.Nr
	cr, ct, cp := cv.cr, cv.ct, cv.cp
	loT, hiT, loP, hiP := cv.loT, cv.hiT, cv.loP, cv.hiP
	nrP := n + 2*h
	a, b, c := s[:nrP], s[nrP:2*nrP], s[2*nrP:3*nrP]
	d, e, f := s[3*nrP:4*nrP], s[4*nrP:5*nrP], s[5*nrP:6*nrP]
	vtR := v.T.Row(j, k)
	vpR := v.P.Row(j, k)

	// Radial pass: d/dr of v_theta and v_phi.
	{
		ew, dw := e[h:][:n], d[h:][:n]
		tp, tm := vtR[h+1:][:n], vtR[h-1:][:n]
		pp, pm := vpR[h+1:][:n], vpR[h-1:][:n]
		lo := 0
		if simd.AVX2 {
			lo = diffPair(cr, ew, tp, tm, dw, pp, pm)
		}
		for i := lo; i < n; i++ {
			ew[i] = cr * (tp[i] - tm[i])
			dw[i] = cr * (pp[i] - pm[i])
		}
		if p.GlobalEdge(0) {
			i := h
			e[i] = cr * (-3*vtR[i] + 4*vtR[i+1] - vtR[i+2])
			d[i] = cr * (-3*vpR[i] + 4*vpR[i+1] - vpR[i+2])
		}
		if p.GlobalEdge(1) {
			i := h + n - 1
			e[i] = cr * (3*vtR[i] - 4*vtR[i-1] + vtR[i-2])
			d[i] = cr * (3*vpR[i] - 4*vpR[i-1] + vpR[i-2])
		}
	}

	// Theta pass: d/dtheta of v_phi and v_r.
	{
		aw, fw := a[h:][:n], f[h:][:n]
		switch {
		case loT && j == h:
			p0, p1, p2 := v.P.Row(j, k)[h:][:n], v.P.Row(j+1, k)[h:][:n], v.P.Row(j+2, k)[h:][:n]
			r0, r1, r2 := v.R.Row(j, k)[h:][:n], v.R.Row(j+1, k)[h:][:n], v.R.Row(j+2, k)[h:][:n]
			for i := 0; i < n; i++ {
				aw[i] = ct * (-3*p0[i] + 4*p1[i] - p2[i])
				fw[i] = ct * (-3*r0[i] + 4*r1[i] - r2[i])
			}
		case hiT && j == h+p.Nt-1:
			p0, p1, p2 := v.P.Row(j, k)[h:][:n], v.P.Row(j-1, k)[h:][:n], v.P.Row(j-2, k)[h:][:n]
			r0, r1, r2 := v.R.Row(j, k)[h:][:n], v.R.Row(j-1, k)[h:][:n], v.R.Row(j-2, k)[h:][:n]
			for i := 0; i < n; i++ {
				aw[i] = ct * (3*p0[i] - 4*p1[i] + p2[i])
				fw[i] = ct * (3*r0[i] - 4*r1[i] + r2[i])
			}
		default:
			pP, pM := v.P.Row(j+1, k)[h:][:n], v.P.Row(j-1, k)[h:][:n]
			rP, rM := v.R.Row(j+1, k)[h:][:n], v.R.Row(j-1, k)[h:][:n]
			lo := 0
			if simd.AVX2 {
				lo = diffPair(ct, aw, pP, pM, fw, rP, rM)
			}
			for i := lo; i < n; i++ {
				aw[i] = ct * (pP[i] - pM[i])
				fw[i] = ct * (rP[i] - rM[i])
			}
		}
	}

	// Phi pass: d/dphi of v_theta and v_r.
	{
		bw, cw := b[h:][:n], c[h:][:n]
		switch {
		case loP && k == h:
			t0, t1, t2 := v.T.Row(j, k)[h:][:n], v.T.Row(j, k+1)[h:][:n], v.T.Row(j, k+2)[h:][:n]
			r0, r1, r2 := v.R.Row(j, k)[h:][:n], v.R.Row(j, k+1)[h:][:n], v.R.Row(j, k+2)[h:][:n]
			for i := 0; i < n; i++ {
				bw[i] = cp * (-3*t0[i] + 4*t1[i] - t2[i])
				cw[i] = cp * (-3*r0[i] + 4*r1[i] - r2[i])
			}
		case hiP && k == h+p.Np-1:
			t0, t1, t2 := v.T.Row(j, k)[h:][:n], v.T.Row(j, k-1)[h:][:n], v.T.Row(j, k-2)[h:][:n]
			r0, r1, r2 := v.R.Row(j, k)[h:][:n], v.R.Row(j, k-1)[h:][:n], v.R.Row(j, k-2)[h:][:n]
			for i := 0; i < n; i++ {
				bw[i] = cp * (3*t0[i] - 4*t1[i] + t2[i])
				cw[i] = cp * (3*r0[i] - 4*r1[i] + r2[i])
			}
		default:
			tP, tM := v.T.Row(j, k+1)[h:][:n], v.T.Row(j, k-1)[h:][:n]
			rP, rM := v.R.Row(j, k+1)[h:][:n], v.R.Row(j, k-1)[h:][:n]
			lo := 0
			if simd.AVX2 {
				lo = diffPair(cp, bw, tP, tM, cw, rP, rM)
			}
			for i := lo; i < n; i++ {
				bw[i] = cp * (tP[i] - tM[i])
				cw[i] = cp * (rP[i] - rM[i])
			}
		}
	}

	orr := outR[h:][:n]
	otr := outT[h:][:n]
	opr := outP[h:][:n]
	vt := vtR[h:][:n]
	vp := vpR[h:][:n]
	invr := p.InvR[h:][:n]
	aw, bw, cw := a[h:][:n], b[h:][:n], c[h:][:n]
	dw, ew, fw := d[h:][:n], e[h:][:n], f[h:][:n]
	cot := p.CotT[j]
	ist := p.InvSinT[j]
	lo := 0
	if simd.AVX2 {
		var a curlCombineArgs
		a.n, a.cot, a.ist = n&^3, cot, ist
		a.orr, a.otr, a.opr, a.vt, a.vp = &orr[0], &otr[0], &opr[0], &vt[0], &vp[0]
		a.invr, a.aw, a.bw, a.cw = &invr[0], &aw[0], &bw[0], &cw[0]
		a.dw, a.ew, a.fw = &dw[0], &ew[0], &fw[0]
		curlCombineLanes(&a)
		lo = a.n
	}
	for i := lo; i < n; i++ {
		ir := invr[i]
		orr[i] = ir*(aw[i]+cot*vp[i]) - ir*ist*bw[i]
		otr[i] = ir*ist*cw[i] - dw[i] - vp[i]*ir
		opr[i] = ew[i] + vt[i]*ir - ir*fw[i]
	}
}
