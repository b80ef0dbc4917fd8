package latlon

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/mhd"
)

func quiet3DParams() mhd.Params {
	return mhd.Params{Gamma: 5. / 3., Mu: 2e-3, Kappa: 2e-3, Eta: 2e-3, G0: 0, Omega: 0, TIn: 1}
}

func TestNewMHD3DValidation(t *testing.T) {
	if _, err := NewMHD3D(3, 8, 16, quiet3DParams(), mhd.InitialConditions{}); err == nil {
		t.Error("tiny nr accepted")
	}
	if _, err := NewMHD3D(9, 8, 15, quiet3DParams(), mhd.InitialConditions{}); err == nil {
		t.Error("odd np accepted")
	}
	if _, err := NewMHD3D(9, 8, 16, mhd.Params{Gamma: 0.5, TIn: 1}, mhd.InitialConditions{}); err == nil {
		t.Error("bad params accepted")
	}
}

// TestCrossPoleClosure: scalars continue evenly across the pole onto the
// meridian 180 degrees away; tangential components flip sign.
func TestCrossPoleClosure(t *testing.T) {
	s, err := NewMHD3D(9, 8, 16, quiet3DParams(), mhd.InitialConditions{})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, s.Nr*s.Nt*s.Np)
	for k := 0; k < s.Np; k++ {
		for j := 0; j < s.Nt; j++ {
			for i := 0; i < s.Nr; i++ {
				f[s.idx(i, j, k)] = float64(100*k + 10*j + i)
			}
		}
	}
	i, k := 3, 2
	across := f[s.idx(i, 0, (k+s.Np/2)%s.Np)]
	if got := s.at(f, 1, i, -1, k); got != across {
		t.Errorf("even closure: %v vs %v", got, across)
	}
	if got := s.at(f, -1, i, -1, k); got != -across {
		t.Errorf("odd closure: %v vs %v", got, -across)
	}
	// South pole.
	acrossS := f[s.idx(i, s.Nt-1, (k+s.Np/2)%s.Np)]
	if got := s.at(f, -1, i, s.Nt, k); got != -acrossS {
		t.Errorf("south odd closure: %v vs %v", got, -acrossS)
	}
	// Periodic longitude.
	if got := s.at(f, 1, i, 2, s.Np+1); got != f[s.idx(i, 2, 1)] {
		t.Error("longitude wrap failed")
	}
}

// TestQuiet3DEquilibrium: the uniform isothermal rest state stays put.
func TestQuiet3DEquilibrium(t *testing.T) {
	s, err := NewMHD3D(9, 8, 16, quiet3DParams(),
		mhd.InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Modes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dt := s.MaxStableDt(0.3)
	for n := 0; n < 4; n++ {
		s.Advance(dt)
	}
	s.Refresh()
	ek, em := s.Energies()
	if ek > 1e-20 || em != 0 {
		t.Errorf("quiet state moved: Ek=%g Em=%g", ek, em)
	}
}

// TestConduction3DNearEquilibrium: the stratified conduction state
// drifts only at truncation level, across the poles included.
func TestConduction3DNearEquilibrium(t *testing.T) {
	prm := mhd.Default()
	prm.Omega = 0
	s, err := NewMHD3D(13, 12, 24, prm,
		mhd.InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Modes: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dt := s.MaxStableDt(0.3)
	for n := 0; n < 6; n++ {
		s.Advance(dt)
	}
	s.Refresh()
	var vmax float64
	for id := range s.vr {
		v := math.Sqrt(s.vr[id]*s.vr[id] + s.vt[id]*s.vt[id] + s.vp[id]*s.vp[id])
		if v > vmax {
			vmax = v
		}
		if math.IsNaN(v) {
			t.Fatal("NaN velocity")
		}
	}
	if vmax > 5e-2 {
		t.Errorf("conduction spurious velocity %g", vmax)
	}
}

// TestPoleDtPenalty3D: on the full MHD equations, the lat-lon stable
// step is far below the Yin-Yang solver's at matched angular spacing —
// the motivation measured on the real system.
func TestPoleDtPenalty3D(t *testing.T) {
	prm := mhd.Default()
	ll, err := NewMHD3D(13, 24, 48, prm, mhd.DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	yy, err := mhd.NewSolver(grid.NewSpec(13, 13), prm, mhd.DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dtLL := ll.MaxStableDt(0.3)
	dtYY := yy.EstimateDT(0.3)
	if ratio := dtYY / dtLL; ratio < 3 {
		t.Errorf("Yin-Yang dt advantage only %.2fx on the full MHD system", ratio)
	}
}

// TestCrossSolverAgreement is the repository's strongest validation: two
// independent discretizations of the full compressible MHD system — the
// Yin-Yang overset solver and the lat-lon pole-closure solver — started
// from the same smooth initial state must evolve to the same fields
// within discretization error.
func TestCrossSolverAgreement(t *testing.T) {
	prm := mhd.Default()
	ic := mhd.DefaultIC()
	ic.SeedBAmp = 0.01

	yy, err := mhd.NewSolver(grid.NewSpec(17, 17), prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := NewMHD3D(17, 24, 48, prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	// Advance both to the same physical time with the (smaller) lat-lon
	// stable step.
	dt := math.Min(ll.MaxStableDt(0.3), yy.EstimateDT(0.3))
	const steps = 10
	for n := 0; n < steps; n++ {
		yy.Advance(dt)
		ll.Advance(dt)
	}
	ll.Refresh()

	// Compare temperature and radial velocity at mid-latitude probes.
	type probe struct{ r, th, ph float64 }
	probes := []probe{
		{0.6, 1.2, 0.4}, {0.7, 1.8, -1.0}, {0.5, 1.5, 2.2},
		{0.8, 1.0, -2.6}, {0.65, 2.0, 0.0},
	}
	sampYY := func(q string, p probe) float64 {
		pl := yy.Panels[0]
		mhd.ComputeVTB(pl, &pl.U)
		// Probes sit in the Yin panel interior.
		var worst float64
		_ = worst
		switch q {
		case "T":
			return sampleYin(yy, p.r, p.th, p.ph, func(pl *mhd.Panel, i, j, k int) float64 {
				return pl.T.At(i, j, k)
			})
		case "vr":
			return sampleYin(yy, p.r, p.th, p.ph, func(pl *mhd.Panel, i, j, k int) float64 {
				return pl.V.R.At(i, j, k)
			})
		}
		return 0
	}
	var tScale float64
	for _, p := range probes {
		v, _ := ll.SampleScalar("T", p.r, p.th, p.ph)
		if a := math.Abs(v - 1); a > tScale {
			tScale = a
		}
	}
	for _, p := range probes {
		a := sampYY("T", p)
		b, ok := ll.SampleScalar("T", p.r, p.th, p.ph)
		if !ok {
			t.Fatalf("probe %v outside lat-lon shell", p)
		}
		// Temperature contrast across the shell is O(1); demand
		// agreement to a percent of it.
		if math.Abs(a-b) > 0.02*(1+math.Abs(b)) {
			t.Errorf("T disagrees at %v: yy=%v ll=%v", p, a, b)
		}
		av := sampYY("vr", p)
		bv, _ := ll.SampleScalar("vr", p.r, p.th, p.ph)
		// Velocities are tiny at this stage; compare on the velocity
		// scale of the run.
		if math.Abs(av-bv) > 0.15*(1e-4+math.Max(math.Abs(av), math.Abs(bv))) {
			t.Errorf("vr disagrees at %v: yy=%g ll=%g", p, av, bv)
		}
	}
	_ = tScale
}

// sampleYin trilinearly samples a Yin-panel node quantity at a point in
// the Yin interior.
func sampleYin(sv *mhd.Solver, r, th, ph float64, val func(pl *mhd.Panel, i, j, k int) float64) float64 {
	pl := sv.Panels[0]
	p := pl.Patch
	h := p.H
	fi := (r - p.Spec.RI) / p.Dr
	i0 := clampI(int(math.Floor(fi)), 0, p.Spec.Nr-2)
	ai := fi - float64(i0)
	fj := (th - grid.ThetaMin) / p.Dt
	j0 := clampI(int(math.Floor(fj)), 0, p.Spec.Nt-2)
	aj := fj - float64(j0)
	fk := (ph - grid.PhiMin) / p.Dp
	k0 := clampI(int(math.Floor(fk)), 0, p.Spec.Np-2)
	ak := fk - float64(k0)
	var v float64
	for di := 0; di <= 1; di++ {
		wi := 1 - ai
		if di == 1 {
			wi = ai
		}
		for dj := 0; dj <= 1; dj++ {
			wj := 1 - aj
			if dj == 1 {
				wj = aj
			}
			for dk := 0; dk <= 1; dk++ {
				wk := 1 - ak
				if dk == 1 {
					wk = ak
				}
				v += wi * wj * wk * val(pl, i0+di+h, j0+dj+h, k0+dk+h)
			}
		}
	}
	return v
}

// TestMagneticDecay3D: resistive decay is monotone on the lat-lon grid
// too, and its rate is comparable to the Yin-Yang solver's.
func TestMagneticDecay3D(t *testing.T) {
	prm := quiet3DParams()
	prm.Eta = 0.02
	ic := mhd.InitialConditions{PerturbAmp: 0, SeedBAmp: 0.05, Modes: 0, Seed: 1}

	ll, err := NewMHD3D(13, 16, 32, prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	ll.Refresh()
	_, em0 := ll.Energies()
	if em0 <= 0 {
		t.Fatal("no seed energy")
	}
	dt := ll.MaxStableDt(0.25)
	const steps = 10
	prev := em0
	for n := 0; n < steps; n++ {
		ll.Advance(dt)
		ll.Refresh()
		_, em := ll.Energies()
		if em > prev*(1+1e-9) {
			t.Fatalf("magnetic energy grew: %g -> %g", prev, em)
		}
		prev = em
	}
	rateLL := math.Log(em0/prev) / (float64(steps) * dt)

	yy, err := mhd.NewSolver(grid.NewSpec(13, 13), prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	em0YY := yy.Diagnose().MagneticE
	dtYY := yy.EstimateDT(0.25)
	for n := 0; n < steps; n++ {
		yy.Advance(dtYY)
	}
	rateYY := math.Log(em0YY/yy.Diagnose().MagneticE) / (float64(steps) * dtYY)

	if rateLL <= 0 || rateYY <= 0 {
		t.Fatalf("rates: ll %g yy %g", rateLL, rateYY)
	}
	if r := rateLL / rateYY; r < 0.6 || r > 1.7 {
		t.Errorf("decay rates differ too much: ll %g vs yy %g", rateLL, rateYY)
	}
}

// SampleScalar trilinearly samples a derived quantity ("T", "rho", "p",
// "vr") at spherical point (r, theta, phi); derived fields must be
// current (call Refresh first).
func (s *MHD3D) SampleScalar(name string, r, theta, phi float64) (float64, bool) {
	var f []float64
	switch name {
	case "T":
		f = s.tt
	case "rho":
		f = s.U[iRho]
	case "p":
		f = s.U[iP]
	case "vr":
		f = s.vr
	default:
		return 0, false
	}
	if r < s.R[0] || r > s.R[s.Nr-1] {
		return 0, false
	}
	fi := (r - s.R[0]) / s.Dr
	i0 := clampI(int(math.Floor(fi)), 0, s.Nr-2)
	ai := fi - float64(i0)
	fj := theta/s.Dt - 0.5
	j0 := clampI(int(math.Floor(fj)), 0, s.Nt-2)
	aj := fj - float64(j0)
	fk := (phi + math.Pi) / s.Dp
	k0 := int(math.Floor(fk))
	ak := fk - float64(k0)
	val := 0.0
	for di := 0; di <= 1; di++ {
		wi := 1 - ai
		if di == 1 {
			wi = ai
		}
		for dj := 0; dj <= 1; dj++ {
			wj := 1 - aj
			if dj == 1 {
				wj = aj
			}
			for dk := 0; dk <= 1; dk++ {
				wk := 1 - ak
				if dk == 1 {
					wk = ak
				}
				kk := (k0 + dk) % s.Np
				if kk < 0 {
					kk += s.Np
				}
				val += wi * wj * wk * f[s.idx(i0+di, j0+dj, kk)]
			}
		}
	}
	return val, true
}

// Refresh recomputes the derived fields from the current state.
func (s *MHD3D) Refresh() { s.computeDerived(&s.U) }

// Energies returns volume-integrated kinetic and magnetic energy
// (trapezoid in r, node weights in angle). Refresh must be current.
func (s *MHD3D) Energies() (ek, em float64) {
	for k := 0; k < s.Np; k++ {
		for j := 0; j < s.Nt; j++ {
			for i := 0; i < s.Nr; i++ {
				w := s.R[i] * s.R[i] * s.sinT[j] * s.Dr * s.Dt * s.Dp
				if i == 0 || i == s.Nr-1 {
					w *= 0.5
				}
				id := s.idx(i, j, k)
				v2 := s.vr[id]*s.vr[id] + s.vt[id]*s.vt[id] + s.vp[id]*s.vp[id]
				b2 := s.br[id]*s.br[id] + s.bt[id]*s.bt[id] + s.bp[id]*s.bp[id]
				ek += 0.5 * w * s.U[iRho][id] * v2
				em += 0.5 * w * b2
			}
		}
	}
	return ek, em
}
