package mhd

// Lane bodies. The interior radial loops of the fused update — the
// derivColumnR loop, the interior cases of derivColumnT and
// derivColumnP, and fusedRHSColumn's final loop — and the quotients of
// a vtRing slice (quot) have 4-lane AVX2 bodies in lanes_amd64.s, with the radius as the vector index. Each
// body covers the first n&^3 points of its loop and the Go loop
// finishes the row; the one-sided edge branches stay in Go. A body
// repeats its Go statements operand for operand in Go's left-to-right
// association, with no fused multiply-add, so each lane rounds exactly
// as the scalar code does and the bits are the same (DESIGN.md, "Lane
// kernels"). simd.AVX2 selects them. Each body gets a stack-allocated
// args struct of row pointers, its point count and its loop constants;
// it broadcasts each constant across the four lanes itself. Callers fill
// the struct field by field, for the reason sphops/lanes.go gives.

// derivRArgs is derivRLanes' operand block. The input rows point at
// the column's first owned radius (padded index h); the body reads
// them at offsets -1, 0 and +1.
type derivRArgs struct {
	n                                         int
	c1, c2                                    float64
	invr, p, fr, ft, fp, g, t, vr, vt, vp     *float64
	dP, dF, gD, lT, v1r, v1t, v1p, l0, l1, l2 *float64
	a0, a1, a2                                *float64
}

// derivTArgs is derivTLanes' operand block: the rows of the interior
// case of derivColumnT, named as there.
type derivTArgs struct {
	n                                         int
	c1, c2, cot                               float64
	invr, invr2                               *float64
	pp, pm, fpw, fm, fc, gp, gm, tp, tm, tc   *float64
	vrp, vrm, vrc, vtp, vtm, vtc, vpp, vpm    *float64
	vpc, frp, frm, frc, fpp, fpm, fpc         *float64
	dP, dF, gD, lT, v1r, v1t, v1p, l0, l1, l2 *float64
	a0, a1, a2                                *float64
}

// derivPArgs is derivPLanes' operand block: the rows of the interior
// case of derivColumnP, named as there.
type derivPArgs struct {
	n                                         int
	c1, c2, ist                               float64
	invr, invr2                               *float64
	pp, pm, fpw, fm, gp, gm, tp, tm, tc       *float64
	vrp, vrm, vrc, vtp, vtm, vtc, vpp, vpm    *float64
	vpc, frp, frm, ftp, ftm                   *float64
	dP, dF, gD, lT, v1r, v1t, v1p, l0, l1, l2 *float64
	a0, a1, a2                                *float64
}

// updateArgs is updateLanes' operand block: the rows and constants of
// fusedRHSColumn's final loop, named as there.
type updateArgs struct {
	n                                                    int
	cot, ist, gamma, mu, kappa, eta, g0, omR, omT, omP   float64
	cost, ist2                                           float64
	invr, invr2, vrw, vtw, vpw, frw, ftw, fpw            *float64
	dPrw, dPtw, dPpw, dFw, lTw                           *float64
	drvr, dtvr, dpvr, drvt, dtvt, dpvt, drvp, dtvp, dpvp *float64
	lap0, lap1, lap2, adv0, adv1, adv2, gDrw, gDtw, gDpw *float64
	rho, pp, br, bt, bp, jr, jt, jp, dV                  *float64
	oRho, oP, oFr, oFt, oFp, oAr, oAt, oAp               *float64
}

// quotArgs is quotLanes' operand block: dst = x / y on n points.
type quotArgs struct {
	n         int
	dst, x, y *float64
}
