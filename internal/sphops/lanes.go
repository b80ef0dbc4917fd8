package sphops

// Lane bodies. The interior radial loops of curlColumn and divColumn —
// the centered derivative passes and the combines — have 4-lane AVX2
// bodies in lanes_amd64.s, with the radius as the vector index. Each
// body covers the first n&^3 points of its loop and the Go loop
// finishes the row; the one-sided edge branches stay in Go. A body
// repeats its Go statements operand for operand, without fused
// multiply-add, so the bits are the same (DESIGN.md, "Lane kernels").
// simd.AVX2 selects them. Callers fill each args struct field by field,
// not as a composite literal: the compiler builds a literal whose
// operands can panic in a temporary and block-copies it, and the copy's
// wide loads of narrow stores stall store forwarding for longer than a
// short row's lane body runs.

// diffArgs is diffLanes' operand block: dst = c*(p - m) on n points.
type diffArgs struct {
	n         int
	c         float64
	dst, p, m *float64
}

// diff2Args is diff2Lanes' operand block: two centered differences
// with a shared constant, d1 = c*(p1 - m1) and d2 = c*(p2 - m2).
type diff2Args struct {
	n                      int
	c                      float64
	d1, p1, m1, d2, p2, m2 *float64
}

// diffPair runs the first n&^3 points of dst = c*(p - m) and, when dq
// is non-nil, of dq = c*(qp - qm) on the lane bodies, and returns how
// many points they covered.
func diffPair(c float64, dst, p, m, dq, qp, qm []float64) int {
	n := len(dst) &^ 3
	if dq == nil {
		var a diffArgs
		a.n, a.c = n, c
		a.dst, a.p, a.m = &dst[0], &p[0], &m[0]
		diffLanes(&a)
		return n
	}
	var a diff2Args
	a.n, a.c = n, c
	a.d1, a.p1, a.m1, a.d2, a.p2, a.m2 = &dst[0], &p[0], &m[0], &dq[0], &qp[0], &qm[0]
	diff2Lanes(&a)
	return n
}

// divCombineArgs is divCombineLanes' operand block: the rows of
// divColumn's combine, vr pointing at the column's first owned radius.
type divCombineArgs struct {
	n                int
	cr, cot, ist     float64
	or, vr, vt, invr *float64
	db, dc           *float64
}

// curlCombineArgs is curlCombineLanes' operand block: the rows of
// curlColumn's combine, named as there.
type curlCombineArgs struct {
	n                     int
	cot, ist              float64
	orr, otr, opr, vt, vp *float64
	invr, aw, bw, cw      *float64
	dw, ew, fw            *float64
}
