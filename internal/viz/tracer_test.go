package viz

import (
	"math"
	"testing"

	"repro/internal/coords"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/mhd"
)

// rigidRotationSolver builds a solver whose velocity field is a solid
// rotation about the geographic z axis with unit angular velocity,
// imposed directly on the state (rho = 1, f = v).
func rigidRotationSolver(t *testing.T) *mhd.Solver {
	t.Helper()
	prm := mhd.Params{Gamma: 5. / 3., TIn: 1}
	sv, err := mhd.NewSolver(grid.NewSpec(17, 25), prm, mhd.InitialConditions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range sv.Panels {
		p := pl.Patch
		nrP, ntP, npP := p.Padded()
		axis := coords.Cartesian{Z: 1}
		if p.Panel == grid.Yang {
			axis = coords.YinYang(axis)
		}
		for k := 0; k < npP; k++ {
			for j := 0; j < ntP; j++ {
				for i := 0; i < nrP; i++ {
					pos := coords.Spherical{R: p.R[i], Theta: p.Theta[j], Phi: p.Phi[k]}.ToCartesian()
					u := coords.Cartesian{
						X: axis.Y*pos.Z - axis.Z*pos.Y,
						Y: axis.Z*pos.X - axis.X*pos.Z,
						Z: axis.X*pos.Y - axis.Y*pos.X,
					}
					uv := coords.CartToSphVec(p.Theta[j], p.Phi[k], u)
					pl.U.Rho.Set(i, j, k, 1)
					pl.U.F.R.Set(i, j, k, uv.VR)
					pl.U.F.T.Set(i, j, k, uv.VT)
					pl.U.F.P.Set(i, j, k, uv.VP)
				}
			}
		}
	}
	return sv
}

// TestTracerRigidRotation: particles in a solid-rotation field orbit the
// axis at constant cylindrical radius and height, covering the expected
// angle.
func TestTracerRigidRotation(t *testing.T) {
	sv := rigidRotationSolver(t)
	tr := NewTracer(NewSampler(sv))

	start := coords.Cartesian{X: 0.6, Y: 0, Z: 0.25}
	const dt = 0.01
	const steps = 100 // angle = 1 radian
	path := tr.Path(start, dt, steps)
	if len(path) != steps+1 {
		t.Fatalf("path stopped early: %d points", len(path))
	}
	end := path[len(path)-1]
	rho0 := math.Hypot(start.X, start.Y)
	rho1 := math.Hypot(end.X, end.Y)
	if math.Abs(rho1-rho0) > 5e-3 {
		t.Errorf("cylindrical radius drifted: %v -> %v", rho0, rho1)
	}
	if math.Abs(end.Z-start.Z) > 5e-3 {
		t.Errorf("height drifted: %v -> %v", start.Z, end.Z)
	}
	angle := math.Atan2(end.Y, end.X) - math.Atan2(start.Y, start.X)
	if math.Abs(angle-1.0) > 0.02 {
		t.Errorf("swept angle %v, want 1.0", angle)
	}
	// Arc length = rho * angle.
	if l := PathLength(path); math.Abs(l-rho0*1.0) > 0.02 {
		t.Errorf("path length %v, want %v", l, rho0)
	}
}

// TestTracerCrossesPanels: a particle orbiting near the pole lives in
// Yang territory and must still trace a clean circle (the sampler
// switches panels transparently).
func TestTracerCrossesPanels(t *testing.T) {
	sv := rigidRotationSolver(t)
	tr := NewTracer(NewSampler(sv))
	start := coords.Cartesian{X: 0.2, Y: 0, Z: 0.65} // colatitude ~17 degrees
	path := tr.Path(start, 0.01, 150)
	if len(path) != 151 {
		t.Fatalf("path stopped early: %d", len(path))
	}
	for i, c := range path {
		if math.Abs(math.Hypot(c.X, c.Y)-0.2) > 5e-3 || math.Abs(c.Z-0.65) > 5e-3 {
			t.Fatalf("orbit deformed at %d: %+v", i, c)
		}
	}
}

// TestTracerStopsAtWall: a particle pushed out of the shell freezes.
func TestTracerStopsAtWall(t *testing.T) {
	sv := rigidRotationSolver(t)
	// Overwrite with a purely radial outflow.
	fill := func(f *field.Scalar, v float64) {
		for i := range f.Data {
			f.Data[i] = v
		}
	}
	for _, pl := range sv.Panels {
		fill(pl.U.F.R, 0.5)
		fill(pl.U.F.T, 0)
		fill(pl.U.F.P, 0)
	}
	tr := NewTracer(NewSampler(sv))
	path := tr.Path(coords.Cartesian{X: 0.9, Y: 0, Z: 0}, 0.05, 100)
	if len(path) > 20 {
		t.Errorf("particle escaped the shell without stopping: %d points", len(path))
	}
}

func TestDrawPathsEquatorial(t *testing.T) {
	sv := rigidRotationSolver(t)
	s := NewSampler(sv)
	tr := NewTracer(s)
	var paths [][]coords.Cartesian
	for _, start := range SeedEquatorialRing(0.6, 6) {
		paths = append(paths, tr.Path(start, 0.02, 80))
	}
	im := DrawPathsEquatorial(s, paths, 96)
	lit := 0
	for i, v := range im.Data {
		if v != 0 {
			lit++
			if !im.Mask[i] {
				t.Fatal("path pixel outside the annulus mask")
			}
		}
	}
	if lit < 50 {
		t.Errorf("only %d path pixels drawn", lit)
	}
	// Rigid rotation about +z is counter-clockwise seen from the north:
	// all paths share one sense.
	for i, v := range im.Data {
		if v < 0 {
			t.Fatalf("unexpected circulation sense at pixel %d", i)
		}
	}
}

func TestSeedEquatorialRing(t *testing.T) {
	pts := SeedEquatorialRing(0.7, 8)
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if e := math.Abs(math.Hypot(p.X, p.Y) - 0.7); e > 1e-12 || p.Z != 0 {
			t.Fatalf("bad seed %+v", p)
		}
	}
}

// PathLength returns the arc length of a path.
func PathLength(path []coords.Cartesian) float64 {
	var s float64
	for i := 1; i < len(path); i++ {
		dx := path[i].X - path[i-1].X
		dy := path[i].Y - path[i-1].Y
		dz := path[i].Z - path[i-1].Z
		s += math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	return s
}
