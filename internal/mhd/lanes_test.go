package mhd

import (
	"math"
	"testing"

	"repro/internal/abtest"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/simd"
)

// withLanes runs f with the lane bodies switched on or off, restoring
// the switch afterwards.
func withLanes(on bool, f func()) {
	prev := simd.AVX2
	simd.AVX2 = on
	defer func() { simd.AVX2 = prev }()
	f()
}

// sameBits reports whether a and b are the same float64 bit for bit,
// except that any two NaNs agree: the compiler may commute the operands
// of a scalar add or multiply, and with two NaN operands x86 returns
// the payload of the first.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// firstMismatch returns the first index where a and b differ under
// sameBits, or -1.
func firstMismatch(a, b []float64) int {
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// specials are the adversarial values sprinkled over the inputs.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072e-308, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead00000001),
}

// laneSolver returns a solver on an nr x nt grid advanced one step,
// with every input of the update (V, T, B, J and div v) current on both
// panels. With adversarial set, about one input value in eleven is then
// replaced by one of the specials.
func laneSolver(t *testing.T, nr, nt int, adversarial bool) *Solver {
	t.Helper()
	sv, err := NewSolver(grid.NewSpec(nr, nt), Default(), DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	sv.Advance(sv.EstimateDT(0.3))
	for pi, pl := range sv.Panels {
		ComputeVTB(pl, &pl.U)
		full := pl.Patch.OwnedRegion()
		RHSCurlJ(pl, full)
		RHSDivV(pl, full)
		if !adversarial {
			continue
		}
		u := &pl.U
		fields := []*field.Scalar{
			u.Rho, u.P, u.F.R, u.F.T, u.F.P, pl.V.R, pl.V.T, pl.V.P, pl.T,
			pl.B.R, pl.B.T, pl.B.P, pl.J.R, pl.J.T, pl.J.P, pl.DivV,
		}
		for fi, f := range fields {
			for n := range f.Data {
				h := math.Float64bits(pseudoVal(uint64(100*pi+fi), uint64(n)) + 0.5)
				if h%11 == 0 {
					f.Data[n] = specials[(h>>8)%uint64(len(specials))]
				}
			}
		}
	}
	return sv
}

// laneGrids are the radial sizes covering every n mod 4, and one too
// short for a single lane iteration, at a small angular size.
var laneGrids = []struct{ nr, nt int }{{3, 9}, {9, 9}, {10, 9}, {11, 9}, {12, 9}, {17, 9}, {33, 9}}

// TestLanesMatchGo compares every lane body of the fused update with
// the Go loop it mirrors, pass by pass, on every column of both panels
// of real states and of states salted with zeros of both signs,
// subnormals, infinities and NaNs, and the quotient body of the V/T
// ring on every φ-slice of the same states, numerators and densities
// salted alike.
func TestLanesMatchGo(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no lane bodies in this build or on this CPU")
	}
	for _, g := range laneGrids {
		for _, adversarial := range []bool{false, true} {
			sv := laneSolver(t, g.nr, g.nt, adversarial)
			for _, pl := range sv.Panels {
				comparePasses(t, sv.Prm, pl, g.nr, adversarial)
				compareQuot(t, pl, g.nr, adversarial)
			}
		}
	}
}

// compareQuot divides every φ-slice of the state's four V/T quotients
// through quot with and without the lane body, over the slice's whole
// padded plane and over lengths 1-7 of its start, and requires the
// same bits; a division has one NaN rule, so NaNs must agree too.
func compareQuot(t *testing.T, pl *Panel, nr int, adversarial bool) {
	t.Helper()
	u := &pl.U
	nrP, ntP, npP := pl.Patch.Padded()
	plane := nrP * ntP
	goOut, laneOut := make([]float64, plane), make([]float64, plane)
	for kk := 0; kk < npP; kk++ {
		rho := u.Rho.Data[kk*plane:][:plane]
		for c, x := range []*field.Scalar{u.F.R, u.F.T, u.F.P, u.P} {
			num := x.Data[kk*plane:][:plane]
			for _, n := range []int{plane, 1, 2, 3, 4, 5, 6, 7} {
				withLanes(false, func() { quot(goOut[:n], num, rho) })
				withLanes(true, func() { quot(laneOut[:n], num, rho) })
				for i := 0; i < n; i++ {
					if math.Float64bits(goOut[i]) != math.Float64bits(laneOut[i]) {
						t.Fatalf("Nr %d panel %v adversarial %v: quotient %d slice %d length %d point %d: %v / %v: Go %v, lanes %v",
							nr, pl.Patch.Panel, adversarial, c, kk, n, i, num[i], rho[i], goOut[i], laneOut[i])
					}
				}
			}
		}
	}
}

func comparePasses(t *testing.T, prm Params, pl *Panel, nr int, adversarial bool) {
	t.Helper()
	p := pl.Patch
	nrP, _, _ := p.Padded()
	u := &pl.U
	goRows := make([]float64, rhsRowCount*nrP)
	laneRows := make([]float64, rhsRowCount*nrP)
	sGo, sLane := bindRHSRows(goRows, nrP), bindRHSRows(laneRows, nrP)
	passes := []struct {
		name string
		run  func(s *rhsRows, j, k int)
	}{
		{"derivColumnR", func(s *rhsRows, j, k int) { derivColumnR(pl, u, s, j, k) }},
		{"derivColumnT", func(s *rhsRows, j, k int) { derivColumnT(pl, u, s, j, k) }},
		{"derivColumnP", func(s *rhsRows, j, k int) { derivColumnP(pl, u, s, j, k) }},
	}
	outGo, outLane := NewState(p.Shape), NewState(p.Shape)
	own := p.Owned()
	for k := own.K0; k < own.K1; k++ {
		bindFullVT(&sGo, pl, k)
		bindFullVT(&sLane, pl, k)
		for j := own.J0; j < own.J1; j++ {
			for _, ps := range passes {
				// The theta and phi passes accumulate onto the rows
				// they find: start both sides from the same rows.
				for n := range goRows {
					goRows[n] = pseudoVal(uint64(j), uint64(k*len(goRows)+n))
				}
				copy(laneRows, goRows)
				withLanes(false, func() { ps.run(&sGo, j, k) })
				withLanes(true, func() { ps.run(&sLane, j, k) })
				if n := firstMismatch(goRows, laneRows); n >= 0 {
					t.Fatalf("Nr %d panel %v adversarial %v: %s column (%d,%d): row %d point %d: Go %v, lanes %v",
						nr, p.Panel, adversarial, ps.name, j, k, n/nrP, n%nrP, goRows[n], laneRows[n])
				}
			}
			oGo, oLane := stateRows(&outGo, j, k), stateRows(&outLane, j, k)
			bindFullJ(&sGo, pl.J, j, k)
			bindFullJ(&sLane, pl.J, j, k)
			withLanes(false, func() { fusedRHSColumn(pl, prm, u, &oGo, &sGo, j, k) })
			withLanes(true, func() { fusedRHSColumn(pl, prm, u, &oLane, &sLane, j, k) })
		}
	}
	for fi, pair := range [][2]*field.Scalar{
		{outGo.Rho, outLane.Rho}, {outGo.P, outLane.P},
		{outGo.F.R, outLane.F.R}, {outGo.F.T, outLane.F.T}, {outGo.F.P, outLane.F.P},
		{outGo.A.R, outLane.A.R}, {outGo.A.T, outLane.A.T}, {outGo.A.P, outLane.A.P},
	} {
		if n := firstMismatch(pair[0].Data, pair[1].Data); n >= 0 {
			t.Fatalf("Nr %d panel %v adversarial %v: fusedRHSColumn output %d differs at %d: Go %v, lanes %v",
				nr, p.Panel, adversarial, fi, n, pair[0].Data[n], pair[1].Data[n])
		}
	}
}

// stateRows returns the rows of column (j, k) of every variable of st.
func stateRows(st *State, j, k int) outRows {
	var o outRows
	for v, f := range st.Scalars() {
		o[v] = f.Row(j, k)
	}
	return o
}

// TestLanesRatio prints how many times faster the lane bodies make
// each covered pass and a whole step on the 33x33 grid (Go time over
// lane time, median and quartiles of interleaved rounds). It asserts
// nothing: the figures are for a change's description.
func TestLanesRatio(t *testing.T) {
	skipTimingReport(t)
	if !simd.AVX2 {
		t.Skip("no lane bodies in this build or on this CPU")
	}
	sv := laneSolver(t, 33, 33, false)
	pl := sv.Panels[grid.Yin]
	p := pl.Patch
	nrP, _, _ := p.Padded()
	s := bindRHSRows(make([]float64, rhsRowCount*nrP), nrP)
	out := NewState(p.Shape)
	full := p.OwnedRegion()
	columns := func(body func(j, k int)) func() {
		return func() {
			own := p.Owned()
			for k := own.K0; k < own.K1; k++ {
				for j := own.J0; j < own.J1; j++ {
					body(j, k)
				}
			}
		}
	}
	dt := sv.EstimateDT(0.3)
	cases := []struct {
		name   string
		run    func()
		rounds int
	}{
		{"derivColumnR", columns(func(j, k int) { bindFullVT(&s, pl, k); derivColumnR(pl, &pl.U, &s, j, k) }), 41},
		{"derivColumnT", columns(func(j, k int) { bindFullVT(&s, pl, k); derivColumnT(pl, &pl.U, &s, j, k) }), 41},
		{"derivColumnP", columns(func(j, k int) { bindFullVT(&s, pl, k); derivColumnP(pl, &pl.U, &s, j, k) }), 41},
		{"RHSUpdate", func() { RHSUpdate(pl, sv.Prm, &pl.U, &out, full) }, 21},
		{"RHSCurlJ", func() { RHSCurlJ(pl, full) }, 41},
		{"RHSDivV", func() { RHSDivV(pl, full) }, 41},
		{"quot", func() { quot(pl.V.R.Data, pl.U.F.R.Data, pl.U.Rho.Data) }, 41},
		{"step", func() { sv.Advance(dt) }, 7},
	}
	for _, c := range cases {
		r := abtest.Interleave(
			func() { withLanes(false, c.run) },
			func() { withLanes(true, c.run) },
			c.rounds)
		t.Logf("%-13s Go/lanes %.2fx (q1 %.2f, q3 %.2f, %d rounds)", c.name, r.Median, r.Q1, r.Q3, c.rounds)
	}
}
