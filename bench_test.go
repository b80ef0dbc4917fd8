// Package repro's root benchmarks regenerate every table and figure of
// the paper (see the per-experiment index in DESIGN.md). Each benchmark
// drives the same code path as the cmd/yybench and cmd/yyrepro tools and
// reports the headline quantity of its experiment as a custom metric, so
// `go test -bench=. -benchmem` prints the reproduced numbers next to the
// Go-level costs.
package repro

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/es"
	"repro/internal/grid"
	"repro/internal/latlon"
	"repro/internal/mhd"
	"repro/internal/viz"
)

// BenchmarkTable1Specs — experiment T1: Earth Simulator specification.
func BenchmarkTable1Specs(b *testing.B) {
	m := es.EarthSimulator()
	for i := 0; i < b.N; i++ {
		_ = m.TableI()
	}
	b.ReportMetric(m.TotalPeakFlops()/1e12, "peak-Tflops")
}

// BenchmarkTable2Scaling — experiment T2: the six scaling rows of Table
// II through the calibrated machine model. The headline metric is the
// modelled flagship throughput (paper: 15.2 TFlops).
func BenchmarkTable2Scaling(b *testing.B) {
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	prof := es.ReferenceProfile()
	var flagship float64
	for i := 0; i < b.N; i++ {
		rows, err := es.TableII(m, mp, prof)
		if err != nil {
			b.Fatal(err)
		}
		flagship = rows[0].ModelTFlops
	}
	b.ReportMetric(flagship, "model-Tflops-4096")
	b.ReportMetric(15.2, "paper-Tflops-4096")
}

// BenchmarkTable3Comparison — experiment T3: the cross-SC-paper
// comparison; metric is yycore's sustained flops per grid point
// (paper: 19K).
func BenchmarkTable3Comparison(b *testing.B) {
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	prof := es.ReferenceProfile()
	var fpg float64
	for i := 0; i < b.N; i++ {
		rows, err := es.TableIII(m, mp, prof)
		if err != nil {
			b.Fatal(err)
		}
		fpg = rows[len(rows)-1].FlopsPerGP
	}
	b.ReportMetric(fpg/1e3, "Kflops-per-gridpoint")
}

// BenchmarkList1Proginf — experiment L1: the MPIPROGINF report; metric
// is the Overall GFLOPS figure (paper: 15181.807).
func BenchmarkList1Proginf(b *testing.B) {
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	prof := es.ReferenceProfile()
	p, err := es.Predict(m, mp, prof, es.RunConfig{Spec: es.PaperSpec(511), Procs: 4096})
	if err != nil {
		b.Fatal(err)
	}
	steps := int(453.0 / p.StepTime)
	var g float64
	for i := 0; i < b.N; i++ {
		rep := es.BuildProginf(m, mp, prof, p, steps)
		_ = rep.Format()
		g = rep.OverallGFLOPS
	}
	b.ReportMetric(g, "overall-GFLOPS")
}

// BenchmarkFig1Coverage — experiment F1: the Yin-Yang coverage map;
// metric is the overlap fraction (paper: about 6%).
func BenchmarkFig1Coverage(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		im := viz.CoverageMap(180, 360)
		frac = viz.OverlapPixelFraction(im)
	}
	b.ReportMetric(frac*100, "overlap-pct")
}

// BenchmarkFig2ConvectionStep — experiment F2: the cost of one full RK4
// step of the rotating-convection workload behind Fig. 2, on the real
// serial two-panel solver.
func BenchmarkFig2ConvectionStep(b *testing.B) {
	sv, err := mhd.NewSolver(grid.NewSpec(17, 17), mhd.Default(), mhd.DefaultIC())
	if err != nil {
		b.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.Advance(dt)
	}
	pts := float64(sv.Spec.TotalPoints())
	b.ReportMetric(float64(b.N)*pts/b.Elapsed().Seconds()/1e6, "Mpoints/s")
}

// BenchmarkDynamoStep — experiment S1: a stepping benchmark with the
// magnetic field active (induction + Lorentz paths hot).
func BenchmarkDynamoStep(b *testing.B) {
	ic := mhd.DefaultIC()
	ic.SeedBAmp = 0.05
	sv, err := mhd.NewSolver(grid.NewSpec(17, 17), mhd.Default(), ic)
	if err != nil {
		b.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.Advance(dt)
	}
}

// BenchmarkSectionVDataVolume — experiment S2: the I/O bookkeeping;
// metric is the subsampled snapshot volume (paper: about 500 GB).
func BenchmarkSectionVDataVolume(b *testing.B) {
	var v bench.IOVolume
	for i := 0; i < b.N; i++ {
		v = bench.ComputeIOVolume()
	}
	b.ReportMetric(float64(v.SubsampledBytes)/1e9, "GB")
}

// BenchmarkYinYangVsLatLon — ablation A1: per-step cost of the same
// surface problem on the two grids at matched resolution; sub-benchmarks
// report each grid separately.
func BenchmarkYinYangVsLatLon(b *testing.B) {
	const kappa = 0.01
	b.Run("latlon", func(b *testing.B) {
		g, err := latlon.NewSurfaceGrid(64, 128)
		if err != nil {
			b.Fatal(err)
		}
		s := latlon.NewHeatSolver(g, kappa, 1)
		s.SetFromFunc(func(th, ph float64) float64 { return math.Sin(th) * math.Cos(ph) })
		dt := g.MaxStableDt(kappa, 1) * 0.5
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step(dt)
		}
		b.ReportMetric(dt, "stable-dt")
	})
	b.Run("yinyang", func(b *testing.B) {
		s, err := latlon.NewYYSurface(33, kappa, 1)
		if err != nil {
			b.Fatal(err)
		}
		dt := s.MaxStableDt(kappa, 1) * 0.5
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step(dt)
		}
		b.ReportMetric(dt, "stable-dt")
	})
}

// BenchmarkBankConflict — ablation A2: modelled throughput with the
// radial extent at vs just below the vector register length.
func BenchmarkBankConflict(b *testing.B) {
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	prof := es.ReferenceProfile()
	for _, nr := range []int{255, 256, 511, 512} {
		nr := nr
		b.Run(sizeName(nr), func(b *testing.B) {
			var p es.Prediction
			for i := 0; i < b.N; i++ {
				var err error
				p, err = es.Predict(m, mp, prof, es.RunConfig{Spec: es.PaperSpec(nr), Procs: 2560})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.TFlops, "model-Tflops")
		})
	}
}

func sizeName(nr int) string {
	return "Nr" + string(rune('0'+nr/100)) + string(rune('0'+nr/10%10)) + string(rune('0'+nr%10))
}

// BenchmarkPoleCFL — ablation A3: wall-clock cost of integrating the
// surface problem to a fixed physical time on each grid: the pole-bound
// time step forces the lat-lon grid to take far more steps.
func BenchmarkPoleCFL(b *testing.B) {
	const kappa, tEnd = 0.01, 0.02
	b.Run("latlon", func(b *testing.B) {
		g, err := latlon.NewSurfaceGrid(48, 96)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			s := latlon.NewHeatSolver(g, kappa, 1)
			s.SetFromFunc(func(th, ph float64) float64 { return math.Cos(th) })
			dt := g.MaxStableDt(kappa, 1) * 0.5
			steps := int(math.Ceil(tEnd / dt))
			for n := 0; n < steps; n++ {
				s.Step(tEnd / float64(steps))
			}
			b.ReportMetric(float64(steps), "steps")
		}
	})
	b.Run("yinyang", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := latlon.NewYYSurface(25, kappa, 1)
			if err != nil {
				b.Fatal(err)
			}
			dt := s.MaxStableDt(kappa, 1) * 0.5
			steps := int(math.Ceil(tEnd / dt))
			for n := 0; n < steps; n++ {
				s.Step(tEnd / float64(steps))
			}
			b.ReportMetric(float64(steps), "steps")
		}
	})
}

// BenchmarkDecompositionShape — ablation A4: modelled efficiency of the
// auto-chosen 2-D process grid versus a 1-D slab decomposition.
func BenchmarkDecompositionShape(b *testing.B) {
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	prof := es.ReferenceProfile()
	for _, cse := range []struct {
		name string
		dims [2]int
	}{
		{"auto", [2]int{0, 0}},
		{"slab1x256", [2]int{1, 256}},
		{"slab256x1", [2]int{256, 1}},
	} {
		cse := cse
		b.Run(cse.name, func(b *testing.B) {
			var p es.Prediction
			for i := 0; i < b.N; i++ {
				var err error
				p, err = es.Predict(m, mp, prof,
					es.RunConfig{Spec: es.PaperSpec(511), Procs: 512, ForceDims: cse.dims})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.Efficiency*100, "model-eff-pct")
		})
	}
}
