package sph

import (
	"math"
	"testing"

	"repro/internal/coords"
	"repro/internal/grid"
	"repro/internal/mhd"
)

func quietSolver(t *testing.T, nt int, ic mhd.InitialConditions) *mhd.Solver {
	t.Helper()
	prm := mhd.Params{Gamma: 5. / 3., Mu: 2e-3, Kappa: 2e-3, Eta: 2e-3, G0: 0, Omega: 0, TIn: 1}
	sv, err := mhd.NewSolver(grid.NewSpec(9, nt), prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

// geoAngles returns the geographic angles of a panel node.
func geoAngles(pl *mhd.Panel, j, k int) (float64, float64) {
	th, ph := pl.Patch.Theta[j], pl.Patch.Phi[k]
	if pl.Patch.Panel == grid.Yang {
		return coords.YinYangAngles(th, ph)
	}
	return th, ph
}

// TestAnalyzeSurfaceRecovery: projecting a synthetic combination of
// harmonics recovers its degree-1 coefficients; the degree-0 and
// degree-2 terms mixed in do not leak into them.
func TestAnalyzeSurfaceRecovery(t *testing.T) {
	sv := quietSolver(t, 33, mhd.InitialConditions{})
	coeffs := AnalyzeSurface(sv, func(pl *mhd.Panel, j, k int) float64 {
		th, ph := geoAngles(pl, j, k)
		c, s := math.Cos(th), math.Sin(th)
		return 1.0*c + 0.3*s*math.Cos(ph) + 0.1*3*s*s*math.Sin(2*ph) + 0.05
	})
	checks := []struct {
		name      string
		got, want float64
	}{
		{"Y10", coeffs.Y10, 1.0},
		{"Y11c", coeffs.Y11c, 0.3},
		{"Y11s", coeffs.Y11s, 0},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 0.02 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestDipoleTilt(t *testing.T) {
	axial := SurfaceCoeffs{Y10: 2}
	if tilt := axial.DipoleTiltDeg(); math.Abs(tilt) > 1e-9 {
		t.Errorf("axial tilt = %v", tilt)
	}
	equatorial := SurfaceCoeffs{Y11c: 1}
	if tilt := equatorial.DipoleTiltDeg(); math.Abs(tilt-90) > 1e-9 {
		t.Errorf("equatorial tilt = %v", tilt)
	}
	if (SurfaceCoeffs{}).DipoleTiltDeg() != 0 {
		t.Error("zero field tilt should be 0")
	}
	v := (SurfaceCoeffs{Y10: 3, Y11c: 4}).DipoleVector()
	if v.Z != 3 || v.X != 4 || v.Y != 0 {
		t.Errorf("dipole vector %+v", v)
	}
}

// TestMagneticMomentAxialSeed: the standard seed field points along the
// geographic z axis, so the current distribution's moment must be axial,
// and its magnitude must scale linearly with the seed amplitude.
func TestMagneticMomentAxialSeed(t *testing.T) {
	m1 := MagneticMoment(quietSolver(t, 17, mhd.InitialConditions{SeedBAmp: 0.05, Seed: 1}))
	mag1 := MomentMagnitude(m1)
	if mag1 <= 0 {
		t.Fatal("zero moment for seeded field")
	}
	if math.Abs(m1.X)/mag1 > 0.02 || math.Abs(m1.Y)/mag1 > 0.02 {
		t.Errorf("moment not axial: %+v", m1)
	}
	if m1.Z <= 0 {
		t.Errorf("moment should point along +z for the +Bz seed: %+v", m1)
	}
	m2 := MagneticMoment(quietSolver(t, 17, mhd.InitialConditions{SeedBAmp: 0.10, Seed: 1}))
	ratio := MomentMagnitude(m2) / mag1
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("moment should double with the seed: ratio %v", ratio)
	}
}

// TestMomentZeroWithoutField: no seed, no moment.
func TestMomentZeroWithoutField(t *testing.T) {
	m := MagneticMoment(quietSolver(t, 17, mhd.InitialConditions{}))
	if MomentMagnitude(m) != 0 {
		t.Errorf("moment %v for field-free state", m)
	}
}
