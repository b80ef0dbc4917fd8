package es

import (
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mhd"
)

func TestMachineSpecs(t *testing.T) {
	m := EarthSimulator()
	if m.TotalAPs() != 5120 {
		t.Errorf("APs = %d", m.TotalAPs())
	}
	if m.TotalPeakFlops() != 40.96e12 {
		t.Errorf("peak = %g", m.TotalPeakFlops())
	}
	if m.TotalMemoryTB() != 10 {
		t.Errorf("memory = %g TB", m.TotalMemoryTB())
	}
}

func TestTableIFormat(t *testing.T) {
	s := EarthSimulator().TableI()
	for _, want := range []string{
		"8 Gflops", "8 AP x 640 PN = 5120", "16 GB", "10 TB", "12.3 GB/s x 2",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

// TestReferenceProfileCurrent: the baked-in reference profile tracks the
// real measured solver within 10%; if the solver's work content changes,
// this test tells us to refresh ReferenceProfile.
func TestReferenceProfileCurrent(t *testing.T) {
	got, err := MeasureStepProfile(grid.NewSpec(17, 17), mhd.Default())
	if err != nil {
		t.Fatal(err)
	}
	ref := ReferenceProfile()
	check := func(name string, g, r float64) {
		if math.Abs(g-r)/r > 0.10 {
			t.Errorf("%s drifted: measured %.4g vs reference %.4g", name, g, r)
		}
	}
	check("FlopsPerPoint", got.FlopsPerPoint, ref.FlopsPerPoint)
	check("LoopsPerColumn", got.LoopsPerColumn, ref.LoopsPerColumn)
	check("ScalarOpsPerColumn", got.ScalarOpsPerColumn, ref.ScalarOpsPerColumn)
	check("ElemsPerLoopOverNr", got.ElemsPerLoopOverNr, ref.ElemsPerLoopOverNr)
}

// TestTableIIReproduction: the model regenerates Table II — every row
// within 15% of the paper's TFlops, the headline row within 10%, and the
// qualitative shape (smaller radial grid is less efficient at equal
// process count; more processes either gain throughput or lose
// efficiency) preserved.
func TestTableIIReproduction(t *testing.T) {
	rows, err := TableII(EarthSimulator(), DefaultModelParams(), ReferenceProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[[2]int]TableIIRow{}
	for _, r := range rows {
		rel := math.Abs(r.ModelTFlops-r.PaperTFlops) / r.PaperTFlops
		lim := 0.15
		if r.Procs == 4096 {
			lim = 0.10
		}
		if rel > lim {
			t.Errorf("procs=%d nr=%d: model %.2f vs paper %.2f TFlops (%.0f%% off)",
				r.Procs, r.Nr, r.ModelTFlops, r.PaperTFlops, rel*100)
		}
		byKey[[2]int{r.Procs, r.Nr}] = r
	}
	// Shape: 255 less efficient than 511 at the same process count.
	for _, procs := range []int{3888, 2560} {
		if byKey[[2]int{procs, 255}].ModelEff >= byKey[[2]int{procs, 511}].ModelEff {
			t.Errorf("procs=%d: 255-grid efficiency should be below 511-grid", procs)
		}
	}
	// Shape: throughput grows with process count at fixed grid.
	if byKey[[2]int{4096, 511}].ModelTFlops <= byKey[[2]int{2560, 511}].ModelTFlops {
		t.Error("TFlops should grow from 2560 to 4096 processes")
	}
	// Shape: efficiency at 1200 is the highest of the 255-grid rows.
	if byKey[[2]int{1200, 255}].ModelEff <= byKey[[2]int{3888, 255}].ModelEff {
		t.Error("efficiency should fall from 1200 to 3888 processes")
	}
}

// TestBankConflictAblation: radial sizes at the vector register length
// (256/512) are slower than the paper's choices just below it (255/511) —
// the reason the paper picked 255 and 511.
func TestBankConflictAblation(t *testing.T) {
	m := EarthSimulator()
	mp := DefaultModelParams()
	prof := ReferenceProfile()
	for _, pair := range [][2]int{{255, 256}, {511, 512}} {
		good, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(pair[0]), Procs: 2560})
		if err != nil {
			t.Fatal(err)
		}
		bad, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(pair[1]), Procs: 2560})
		if err != nil {
			t.Fatal(err)
		}
		// The conflicting size must lose even though it has MORE points.
		perPointGood := good.TFlops / float64(good.Config.Spec.TotalPoints())
		perPointBad := bad.TFlops / float64(bad.Config.Spec.TotalPoints())
		if perPointBad >= perPointGood {
			t.Errorf("nr=%d should be slower per point than nr=%d", pair[1], pair[0])
		}
	}
}

func TestPredictValidation(t *testing.T) {
	m := EarthSimulator()
	mp := DefaultModelParams()
	prof := ReferenceProfile()
	if _, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(511), Procs: 100000}); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := Predict(m, mp, prof, RunConfig{Spec: grid.Spec{}, Procs: 16}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(511), Procs: 7}); err == nil {
		t.Error("odd process count accepted")
	}
}

func TestPredictionDiagnostics(t *testing.T) {
	p, err := Predict(EarthSimulator(), DefaultModelParams(), ReferenceProfile(),
		RunConfig{Spec: PaperSpec(511), Procs: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: average vector length 251.6, vector operation ratio 99%.
	if p.AvgVectorLength < 248 || p.AvgVectorLength > 256 {
		t.Errorf("avg vector length %.1f", p.AvgVectorLength)
	}
	if p.VectorOpRatio < 0.985 || p.VectorOpRatio > 0.999 {
		t.Errorf("vector op ratio %.4f", p.VectorOpRatio)
	}
	// Paper: communication time about 10%.
	if p.CommFraction < 0.03 || p.CommFraction > 0.25 {
		t.Errorf("comm fraction %.3f", p.CommFraction)
	}
	// Paper: about 2.1e5 grid points per AP.
	if perAP := float64(PaperSpec(511).TotalPoints()) / 4096; perAP < 1.8e5 || perAP > 2.4e5 {
		t.Errorf("points per AP %.3g", perAP)
	}
	// Paper List 1: about 1.1 GB per process; the model's estimate must
	// at least fit comfortably under the 2 GB/AP hardware budget.
	if p.MemPerProcGB <= 0 || p.MemPerProcGB > 2 {
		t.Errorf("memory per process %.3g GB", p.MemPerProcGB)
	}
	if p.StepTime <= 0 {
		t.Error("non-positive step time")
	}
}

func TestTableIII(t *testing.T) {
	rows, err := TableIII(EarthSimulator(), DefaultModelParams(), ReferenceProfile())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Derived metrics against the paper's Table III.
	byName := map[string]TableIIIRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	shingu := byName["Shingu"]
	if math.Abs(shingu.FlopsPerGP-38e3)/38e3 > 0.05 {
		t.Errorf("Shingu Flops/g.p. = %.3g, want about 38K", shingu.FlopsPerGP)
	}
	if math.Abs(shingu.PointsPerAP-1.4e5)/1.4e5 > 0.05 {
		t.Errorf("Shingu g.p./AP = %.3g, want about 1.4e5", shingu.PointsPerAP)
	}
	self := rows[4]
	if self.Field != "geodynamo" || self.Method != "finite difference" || self.Parallel != "flat MPI" {
		t.Errorf("yycore row mislabelled: %+v", self.PeerResult)
	}
	// Paper: 15.2T/512 PN, 19K flops per grid point, 2.1e5 g.p./AP.
	if self.Nodes != 512 {
		t.Errorf("yycore nodes = %d", self.Nodes)
	}
	if math.Abs(self.TFlops-15.2)/15.2 > 0.10 {
		t.Errorf("yycore TFlops = %.2f", self.TFlops)
	}
	if self.FlopsPerGP < 15e3 || self.FlopsPerGP > 21e3 {
		t.Errorf("yycore Flops/g.p. = %.3g, want about 19K", self.FlopsPerGP)
	}
	komatitsch := byName["Komatitsch"]
	if komatitsch.FlopsPerGP > 1e3 {
		t.Errorf("Komatitsch Flops/g.p. = %.3g, want about 0.91K", komatitsch.FlopsPerGP)
	}
}

func TestFormatTables(t *testing.T) {
	m := EarthSimulator()
	mp := DefaultModelParams()
	prof := ReferenceProfile()
	rows2, err := TableII(m, mp, prof)
	if err != nil {
		t.Fatal(err)
	}
	s2 := FormatTableII(rows2)
	for _, want := range []string{"4096", "511 x 514 x 1538 x 2", "processors", "model"} {
		if !strings.Contains(s2, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
	rows3, err := TableIII(m, mp, prof)
	if err != nil {
		t.Fatal(err)
	}
	s3 := FormatTableIII(rows3)
	for _, want := range []string{"Shingu", "geodynamo", "finite difference", "flat MPI", "spectral"} {
		if !strings.Contains(s3, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
}

// TestProginfReport: the synthesized MPIPROGINF output carries the
// paper's headline quantities in the List 1 layout.
func TestProginfReport(t *testing.T) {
	m := EarthSimulator()
	mp := DefaultModelParams()
	prof := ReferenceProfile()
	p, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(511), Procs: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 454-second run: pick the step count that fills it.
	steps := int(453.0 / p.StepTime)
	rep := BuildProginf(m, mp, prof, p, steps)
	if rep.OverallGFLOPS < 12000 || rep.OverallGFLOPS > 18000 {
		t.Errorf("overall GFLOPS = %.0f, want about 15200", rep.OverallGFLOPS)
	}
	// Min <= Avg <= Max for every spread quantity.
	for name, v := range map[string][3]float64{
		"user": rep.UserTime, "flops": rep.FlopCount, "avl": rep.AvgVectorLength,
	} {
		if !(v[0] <= v[2] && v[2] <= v[1]) {
			t.Errorf("%s spread not ordered: %v", name, v)
		}
	}
	out := rep.Format()
	for _, want := range []string{
		"MPI Program Information:",
		"Global Data of 4096 processes",
		"Vector Operation Ratio (%)",
		"Average Vector Length",
		"GFLOPS (rel. to User Time)",
		"<---",
		"Overall Data:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestScalingCurve: throughput grows monotonically with process count
// over Table II's range while efficiency falls monotonically beyond the
// small-count regime.
func TestScalingCurve(t *testing.T) {
	procs := []int{512, 1024, 2048, 4096}
	pts, err := ScalingCurve(EarthSimulator(), DefaultModelParams(), ReferenceProfile(), 511, procs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].TFlops <= pts[i-1].TFlops {
			t.Errorf("throughput not growing: %v", pts)
		}
		if pts[i].Efficiency >= pts[i-1].Efficiency {
			t.Errorf("efficiency not falling: %v", pts)
		}
	}
}

// TestHybridVsFlat: hybrid parallelization beats flat MPI at small
// problem sizes on many processors (fewer processes amortize the fixed
// costs), and the gap narrows as the problem grows — the Nakajima (2002)
// observation the paper cites when explaining why its flat-MPI code
// still performs well.
func TestHybridVsFlat(t *testing.T) {
	m := EarthSimulator()
	mp := DefaultModelParams()
	prof := ReferenceProfile()
	gap := func(nr int) float64 {
		cfg := RunConfig{Spec: PaperSpec(nr), Procs: 4096}
		flat, err := Predict(m, mp, prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := PredictHybrid(m, mp, prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hyb.Efficiency <= flat.Efficiency {
			t.Errorf("nr=%d: hybrid (%.1f%%) should beat flat (%.1f%%) at 4096 APs",
				nr, hyb.Efficiency*100, flat.Efficiency*100)
		}
		return hyb.Efficiency - flat.Efficiency
	}
	gSmall := gap(255)
	gLarge := gap(511)
	if gLarge >= gSmall {
		t.Errorf("efficiency gap should narrow with problem size: %.3f -> %.3f", gSmall, gLarge)
	}
}

func TestHybridValidation(t *testing.T) {
	if _, err := PredictHybrid(EarthSimulator(), DefaultModelParams(), ReferenceProfile(),
		RunConfig{Spec: PaperSpec(511), Procs: 4095}); err == nil {
		t.Error("non-multiple AP count accepted")
	}
}
