package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sph"
	"repro/internal/viz"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Nr != 17 || c.Nt != 17 || c.RI != 0.35 || c.RO != 1 {
		t.Errorf("defaults: %+v", c)
	}
	if c.Params == nil || c.IC == nil || c.SafetyFactor != 0.3 {
		t.Error("defaults incomplete")
	}
	s := Config{Nt: 13, Nr: 9}.Spec()
	if s.Np != 37 {
		t.Errorf("Np = %d", s.Np)
	}
}

func TestNewAndStep(t *testing.T) {
	sim, err := New(Config{Nr: 9, Nt: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.History()) != 1 {
		t.Fatalf("initial history %d", len(sim.History()))
	}
	if err := sim.Step(3); err != nil {
		t.Fatal(err)
	}
	if sim.Time() <= 0 {
		t.Errorf("time %v", sim.Time())
	}
	d := sim.Diagnostics()
	if d.Mass <= 0 || d.KineticE < 0 {
		t.Errorf("diagnostics %+v", d)
	}
	if err := sim.Step(0); err == nil {
		t.Error("zero step count accepted")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Nr: 2, Nt: 2}); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestDipoleMomentGrows(t *testing.T) {
	sim, err := New(Config{Nr: 9, Nt: 13})
	if err != nil {
		t.Fatal(err)
	}
	m0 := sph.MagneticMoment(sim.Solver)
	if m0.Z <= 0 {
		t.Errorf("seeded moment %+v", m0)
	}
}

func TestPPMAndColumns(t *testing.T) {
	sim, err := New(Config{Nr: 9, Nt: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := viz.WritePPM(&buf, viz.EquatorialSlice(sim.Sampler(), viz.Temperature, 48)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 48*48*3 {
		t.Errorf("ppm too small: %d", buf.Len())
	}
	cyc, anti := viz.CountColumns(viz.EquatorialSlice(sim.Sampler(), viz.VortZ, 48), 0.1)
	if cyc < 0 || anti < 0 {
		t.Error("negative column count")
	}
	if d := sim.OverlapDisagreement(); d < 0 || d > 0.2 {
		t.Errorf("overlap disagreement %v", d)
	}
}

// TestRunParallelMatchesSerial: the one-call parallel runner reproduces
// the serial diagnostics.
func TestRunParallelMatchesSerial(t *testing.T) {
	cfg := Config{Nr: 9, Nt: 13}
	const steps = 3
	const dt = 2e-3

	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		sim.Solver.Advance(dt)
	}
	want := sim.Solver.Diagnose()

	got, err := RunParallel(cfg, 4, steps, steps, dt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("records = %d", len(got))
	}
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"mass", got[0].Mass, want.Mass},
		{"Ek", got[0].KineticE, want.KineticE},
		{"maxV", got[0].MaxV, want.MaxV},
	} {
		if math.Abs(c.a-c.b) > 1e-9*(1+math.Abs(c.b)) {
			t.Errorf("%s: parallel %v vs serial %v", c.name, c.a, c.b)
		}
	}
}

func TestRunParallelValidation(t *testing.T) {
	if _, err := RunParallel(Config{Nr: 9, Nt: 13}, 3, 1, 1, 1e-3); err == nil {
		t.Error("odd process count accepted")
	}
}

func TestRunParallelRecording(t *testing.T) {
	got, err := RunParallel(Config{Nr: 9, Nt: 13}, 2, 4, 2, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("records = %d, want 2", len(got))
	}
}

// TestCheckpointRoundTripViaCore: save, restore, continue — identical
// trajectories.
func TestCheckpointRoundTripViaCore(t *testing.T) {
	sim, err := New(Config{Nr: 9, Nt: 13})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Time() != sim.Time() {
		t.Errorf("time %v vs %v", restored.Time(), sim.Time())
	}
	const dt = 1e-3
	sim.Solver.Advance(dt)
	restored.Solver.Advance(dt)
	a := sim.Solver.Panels[0].U.Rho.Data
	b := restored.Solver.Panels[0].U.Rho.Data
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored trajectory diverged")
		}
	}
}

func TestExportViz(t *testing.T) {
	sim, err := New(Config{Nr: 9, Nt: 13})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.ExportViz(&buf, 2); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1000 {
		t.Errorf("export too small: %d", buf.Len())
	}
}

// TestDipoleSeriesAndReversals: the seeded axial dipole keeps its
// polarity over a short run, so no reversal shows up.
func TestDipoleSeriesAndReversals(t *testing.T) {
	sim, err := New(Config{Nr: 9, Nt: 13})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b <= 3; b++ {
		if b > 0 {
			if err := sim.Step(2); err != nil {
				t.Fatal(err)
			}
		}
		if mz := sph.MagneticMoment(sim.Solver).Z; mz <= 0 {
			t.Fatalf("axial moment lost polarity after %d batches: %v", b, mz)
		}
	}
}

// TestRunParallelWithCheckpoint: the checkpoint written by the parallel
// run restores to a solver that matches a serial run of the same
// trajectory.
func TestRunParallelWithCheckpoint(t *testing.T) {
	cfg := Config{Nr: 9, Nt: 13}
	const steps = 2
	const dt = 2e-3

	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < steps; n++ {
		sim.Solver.Advance(dt)
	}

	var buf bytes.Buffer
	if _, err := RunParallelWithCheckpoint(cfg, 4, steps, dt, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range sim.Solver.Panels {
		a := sim.Solver.Panels[pi].U.Scalars()
		b := restored.Solver.Panels[pi].U.Scalars()
		p := sim.Solver.Panels[pi].Patch
		h := p.H
		for vi := range a {
			for k := h; k < h+p.Np; k++ {
				for j := h; j < h+p.Nt; j++ {
					ra, rb := a[vi].Row(j, k), b[vi].Row(j, k)
					for i := h; i < h+p.Nr; i++ {
						if ra[i] != rb[i] {
							t.Fatalf("parallel checkpoint differs from serial at panel %d var %d", pi, vi)
						}
					}
				}
			}
		}
	}
}
