// Package bench orchestrates the paper-reproduction experiments indexed
// in DESIGN.md: every table, figure and section-V quantity of the paper
// has a runner here that produces the corresponding rows or images. The
// cmd/yybench and cmd/yyrepro binaries and the repository-level
// bench_test.go drive these runners.
package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/es"
	"repro/internal/grid"
	"repro/internal/latlon"
	"repro/internal/mhd"
	"repro/internal/spectral"
	"repro/internal/viz"
)

// Profile returns the step profile: measured from the live solver when
// measure is true, the baked-in reference otherwise.
func Profile(measure bool) (es.StepProfile, error) {
	if measure {
		return es.MeasureStepProfile(grid.NewSpec(17, 17), mhd.Default())
	}
	return es.ReferenceProfile(), nil
}

// RunTable1 prints the Earth Simulator specification table (Table I).
func RunTable1(w io.Writer) {
	fmt.Fprintln(w, "Table I: Specifications of the Earth Simulator")
	fmt.Fprintln(w)
	fmt.Fprint(w, es.EarthSimulator().TableI())
}

// RunTable2 prints the paper-vs-model performance comparison (Table II).
func RunTable2(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	rows, err := es.TableII(es.EarthSimulator(), es.DefaultModelParams(), prof)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table II: yycore performance on the Earth Simulator (paper) vs the machine model (this code)")
	fmt.Fprintln(w)
	fmt.Fprint(w, es.FormatTableII(rows))
	return nil
}

// RunTable3 prints the cross-paper comparison (Table III).
func RunTable3(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	rows, err := es.TableIII(es.EarthSimulator(), es.DefaultModelParams(), prof)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table III: Performances on the Earth Simulator reported at SC")
	fmt.Fprintln(w)
	fmt.Fprint(w, es.FormatTableIII(rows))
	return nil
}

// RunList1 prints the synthesized MPIPROGINF report for the flagship
// 4096-process run sized to the paper's ~454-second wall clock (List 1).
func RunList1(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	p, err := es.Predict(m, mp, prof, es.RunConfig{Spec: es.PaperSpec(511), Procs: 4096})
	if err != nil {
		return err
	}
	steps := int(453.0 / p.StepTime)
	rep := es.BuildProginf(m, mp, prof, p, steps)
	fmt.Fprintf(w, "List 1: MPIPROGINF for %d steps of the %d-process flagship run\n\n", steps, 4096)
	fmt.Fprint(w, rep.Format())
	return nil
}

// IOVolume reports the section-V output volume bookkeeping: 127 saves of
// the Cartesian B, v, omega and T fields from the 255-grid run. The
// paper's "about 500 GB" matches 10 single-precision fields saved on a
// 2x2 angularly subsampled grid.
type IOVolume struct {
	GridPoints      int64
	FieldsPerSave   int
	Saves           int
	FullBytes       int64 // full-resolution single precision
	SubsampledBytes int64 // every 2nd node in theta and phi
}

// ComputeIOVolume evaluates the bookkeeping for the paper's 255-grid.
func ComputeIOVolume() IOVolume {
	s := es.PaperSpec(255)
	points := s.TotalPoints()
	const fields = 10 // B(3) + v(3) + omega(3) + T
	const saves = 127
	full := int64(4) * int64(fields) * points * int64(saves)
	sub := full / 4
	return IOVolume{
		GridPoints:      points,
		FieldsPerSave:   fields,
		Saves:           saves,
		FullBytes:       full,
		SubsampledBytes: sub,
	}
}

// RunIOVolume prints the section-V data volume reproduction.
func RunIOVolume(w io.Writer) {
	v := ComputeIOVolume()
	fmt.Fprintln(w, "Section V data volume: 127 snapshots of B, v, omega (Cartesian) and T")
	fmt.Fprintf(w, "  grid points                  : %.3g (255 x 514 x 1538 x 2)\n", float64(v.GridPoints))
	fmt.Fprintf(w, "  fields per save              : %d\n", v.FieldsPerSave)
	fmt.Fprintf(w, "  saves                        : %d\n", v.Saves)
	fmt.Fprintf(w, "  full single-precision volume : %.0f GB\n", float64(v.FullBytes)/1e9)
	fmt.Fprintf(w, "  2x2 angular subsampling      : %.0f GB   (paper: about 500 GB)\n", float64(v.SubsampledBytes)/1e9)
}

// AblationA1 reports the grid-economy comparison: nodes spent by the
// lat-lon grid versus the Yin-Yang pair at matched angular resolution.
func AblationA1(w io.Writer) {
	y := grid.NewSpec(17, 129)
	ll := grid.NewLatLonSpec(y)
	ratio := grid.PointRatioVersusYinYang(y)
	fmt.Fprintln(w, "Ablation A1: grid economy at matched angular resolution")
	fmt.Fprintf(w, "  Yin-Yang pair : 2 x %d x %d = %d angular nodes\n", y.Nt, y.Np, 2*y.Nt*y.Np)
	fmt.Fprintf(w, "  lat-lon grid  : %d x %d = %d angular nodes\n", ll.Nt, ll.Np, ll.Nt*ll.Np)
	fmt.Fprintf(w, "  ratio         : %.3f (continuum limit about 1.26; overlap cost only 1.06)\n", ratio)
}

// AblationA2 reports the bank-conflict ablation: the model's per-point
// throughput for radial sizes at and just below the vector register
// length — the paper's reason for 255 and 511.
func AblationA2(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	fmt.Fprintln(w, "Ablation A2: radial size vs the 256-element vector register (bank conflicts)")
	for _, nr := range []int{255, 256, 511, 512} {
		p, err := es.Predict(m, mp, prof, es.RunConfig{Spec: es.PaperSpec(nr), Procs: 2560})
		if err != nil {
			return err
		}
		perPoint := p.TFlops * 1e12 / float64(p.Config.Spec.TotalPoints())
		fmt.Fprintf(w, "  Nr=%3d: %6.2f TFlops (%4.1f%% of peak, %5.0f flops/s per grid point)\n",
			nr, p.TFlops, p.Efficiency*100, perPoint)
	}
	return nil
}

// AblationA3 reports the pole-CFL ablation measured with the real
// surface solvers: the maximum stable time step of the lat-lon grid
// collapses quadratically with resolution while the Yin-Yang pair's
// shrinks linearly.
func AblationA3(w io.Writer) error {
	fmt.Fprintln(w, "Ablation A3: explicit time-step limit, lat-lon vs Yin-Yang (surface advection-diffusion)")
	fmt.Fprintf(w, "  %-8s %-14s %-14s %-8s\n", "nodes", "lat-lon dt", "Yin-Yang dt", "ratio")
	const kappa = 0.01
	for _, nt := range []int{32, 64, 128, 256} {
		g, err := latlon.NewSurfaceGrid(nt, 2*nt)
		if err != nil {
			return err
		}
		yy, err := latlon.NewYYSurface(nt/2+1, kappa, 0)
		if err != nil {
			return err
		}
		dLL := g.MaxStableDt(kappa, 1)
		dYY := yy.MaxStableDt(kappa, 1)
		fmt.Fprintf(w, "  %-8d %-14.3e %-14.3e %-8.1f\n", nt, dLL, dYY, dYY/dLL)
	}
	return nil
}

// AblationA4 reports the decomposition-shape ablation: the chosen
// 2-D process grid versus degenerate 1-D decompositions at the flagship
// process count.
func AblationA4(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	fmt.Fprintln(w, "Ablation A4: process-grid shape at 512 processes (Nr=511 grid)")
	spec := es.PaperSpec(511)
	for _, dims := range [][2]int{{0, 0}, {1, 256}, {256, 1}, {16, 16}, {8, 32}} {
		cfg := es.RunConfig{Spec: spec, Procs: 512, ForceDims: dims}
		p, err := es.Predict(m, mp, prof, cfg)
		if err != nil {
			fmt.Fprintf(w, "  %3dx%-3d : infeasible (%v)\n", dims[0], dims[1], err)
			continue
		}
		label := fmt.Sprintf("%dx%d", dims[0], dims[1])
		if dims[0] == 0 {
			label = "auto"
		}
		fmt.Fprintf(w, "  %-8s: %6.2f TFlops (%4.1f%% of peak, comm %4.1f%%)\n",
			label, p.TFlops, p.Efficiency*100, p.CommFraction*100)
	}
	return nil
}

// Fig2Result summarizes the convection-structure experiment.
type Fig2Result struct {
	Steps                  int
	Cyclonic, Anticyclonic int
	KineticEnergy          float64
	VortSlice, TempSlice   *viz.Image
}

// RunFig2 runs a rotating-convection spin-up and extracts the equatorial
// structure of Fig. 2. The resolution and step count scale down the
// paper's 4e8-point run to laptop size; the qualitative content —
// columnar cells of alternating sign aligned with the rotation axis —
// is the reproduction target.
func RunFig2(nr, nt, steps, pix int) (*Fig2Result, error) {
	sim, err := core.New(core.Config{Nr: nr, Nt: nt})
	if err != nil {
		return nil, err
	}
	batch := 10
	for done := 0; done < steps; done += batch {
		n := batch
		if steps-done < n {
			n = steps - done
		}
		if err := sim.Step(n); err != nil {
			return nil, err
		}
	}
	s := sim.Sampler()
	vort := viz.EquatorialSlice(s, viz.VortZ, pix)
	temp := viz.EquatorialSlice(s, viz.Temperature, pix)
	cyc, anti := viz.CountColumns(vort, 0.1)
	return &Fig2Result{
		Steps:         steps,
		Cyclonic:      cyc,
		Anticyclonic:  anti,
		KineticEnergy: sim.Diagnostics().KineticE,
		VortSlice:     vort,
		TempSlice:     temp,
	}, nil
}

// RunEnergyGrowth runs the dynamo and returns the recorded history
// (section V: both energies grow from negligible seeds toward
// saturation).
func RunEnergyGrowth(nr, nt, steps, batch int) ([]mhd.Diagnostics, error) {
	sim, err := core.New(core.Config{Nr: nr, Nt: nt})
	if err != nil {
		return nil, err
	}
	for done := 0; done < steps; done += batch {
		n := batch
		if steps-done < n {
			n = steps - done
		}
		if err := sim.Step(n); err != nil {
			return nil, err
		}
	}
	return sim.History(), nil
}

// FormatEnergySeries renders a diagnostics history as a CSV-ish table.
func FormatEnergySeries(w io.Writer, hist []mhd.Diagnostics) {
	fmt.Fprintln(w, "step,time,kineticE,magneticE,maxV,maxB")
	for _, d := range hist {
		fmt.Fprintf(w, "%d,%.6g,%.6g,%.6g,%.6g,%.6g\n",
			d.Step, d.Time, d.KineticE, d.MagneticE, d.MaxV, d.MaxB)
	}
}

// GrowthRate fits the exponential growth rate of a positive series
// between two history entries.
func GrowthRate(hist []mhd.Diagnostics, value func(mhd.Diagnostics) float64, i, j int) float64 {
	a, b := value(hist[i]), value(hist[j])
	dt := hist[j].Time - hist[i].Time
	if a <= 0 || b <= 0 || dt <= 0 {
		return math.NaN()
	}
	return math.Log(b/a) / dt
}

// AblationA5 contrasts the per-point cost structure of the paper's
// finite-difference method with the spectral transform method of the
// Table III peers: FD costs a resolution-independent ~2.3K flops per
// point per step, a spherical-harmonic transform pair grows linearly
// with the truncation degree — the reason the spectral atmosphere code
// shows 38K flops per grid point where yycore shows 19K.
func AblationA5(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation A5: method cost structure, finite difference vs spectral transform")
	fmt.Fprintf(w, "  finite difference (yycore RHS+RK4) : %6.0f flops/point/step at any resolution\n",
		prof.FlopsPerPoint)
	for _, L := range []int{32, 64, 128, 256} {
		f, err := spectral.FlopsPerPointPerTransformPair(L)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  spectral transform pair, degree %3d : %6.0f flops/point (and several pairs per step)\n", L, f)
	}
	return nil
}

// WallClockConsistency checks section V's timing statement against the
// model: the 255-grid run on 3888 processors took six wall-clock hours;
// the model's step time says how many RK4 steps that is, and the
// advective CFL of the grid says how much simulated time those steps
// cover. The paper equates that to about 0.3% of the magnetic free
// decay time.
type WallClockStats struct {
	StepTime      float64 // model seconds per step
	StepsInSixH   float64
	DTSim         float64 // simulated time units per step (CFL-limited)
	SimTime       float64 // simulated time covered in six hours
	ImpliedTauMag float64 // magnetic decay time if SimTime is 0.3% of it
}

// ComputeWallClock evaluates the consistency numbers.
func ComputeWallClock(measure bool) (WallClockStats, error) {
	prof, err := Profile(measure)
	if err != nil {
		return WallClockStats{}, err
	}
	p, err := es.Predict(es.EarthSimulator(), es.DefaultModelParams(), prof,
		es.RunConfig{Spec: es.PaperSpec(255), Procs: 3888})
	if err != nil {
		return WallClockStats{}, err
	}
	var st WallClockStats
	st.StepTime = p.StepTime
	st.StepsInSixH = 6 * 3600 / p.StepTime
	// Advective CFL: smallest spacing over the sonic speed ~ sqrt(gamma*TIn).
	spec := es.PaperSpec(255)
	minDx := mhd.MinGridSpacing(spec)
	cs := math.Sqrt(5.0 / 3.0 * 2.0)
	st.DTSim = 0.4 * minDx / cs
	st.SimTime = st.StepsInSixH * st.DTSim
	st.ImpliedTauMag = st.SimTime / 0.003
	return st, nil
}

// RunWallClock prints the section-V wall-clock consistency check.
func RunWallClock(w io.Writer, measure bool) error {
	st, err := ComputeWallClock(measure)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section V wall-clock consistency (255-grid, 3888 processors, 6 hours):")
	fmt.Fprintf(w, "  model step time        : %.3f s -> %.3g RK4 steps in 6 h\n", st.StepTime, st.StepsInSixH)
	fmt.Fprintf(w, "  CFL-limited step       : %.3g time units\n", st.DTSim)
	fmt.Fprintf(w, "  simulated time covered : %.3g units\n", st.SimTime)
	fmt.Fprintf(w, "  implied magnetic decay : %.3g units (paper: run spans ~0.3%% of it)\n", st.ImpliedTauMag)
	return nil
}

// AblationA6 quantifies the paper's section-II remark on overlap
// minimization over the rectangular family: uniform trims have no
// margin (the patch edges touch their partner-images exactly), while
// cutting the corners — "the four corners intrude most into the other
// component grid" — keeps coverage and shrinks the overlap toward the
// exact-dissection variants.
func AblationA6(w io.Writer) {
	const n = 40000
	fmt.Fprintln(w, "Ablation A6: overlap minimization within the rectangular Yin-Yang family")
	fmt.Fprintf(w, "  basic overlap                : %.4f of the sphere (analytic %.4f)\n",
		grid.TrimmedOverlapFraction(0, 0, n), grid.OverlapFraction())
	fmt.Fprintf(w, "  max uniform phi trim         : %.4f rad (edges touch partner images: no margin)\n",
		grid.MaxPhiTrim(n))
	cmax := grid.MaxCornerCut(n)
	fmt.Fprintf(w, "  max square corner cut        : %.3f rad\n", cmax)
	fmt.Fprintf(w, "  overlap with that corner cut : %.4f of the sphere\n",
		grid.CornerCutOverlapFraction(cmax*0.98, n))
	fmt.Fprintln(w, "  (exact dissections — baseball/cube types — reach zero overlap by leaving the rectangle)")
}

// AblationA7 contrasts flat MPI with hybrid (MPI + microtasking)
// parallelization through the model — the comparison the paper makes via
// Nakajima (2002) when arguing that its flat-MPI code achieves high
// performance "with relatively low numbers of mesh size".
func AblationA7(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	fmt.Fprintln(w, "Ablation A7: flat MPI vs hybrid (MPI + intra-node microtasking), 4096 APs")
	for _, nr := range []int{255, 511} {
		cfg := es.RunConfig{Spec: es.PaperSpec(nr), Procs: 4096}
		flat, err := es.Predict(m, mp, prof, cfg)
		if err != nil {
			return err
		}
		hyb, err := es.PredictHybrid(m, mp, prof, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  Nr=%3d: flat %5.2fT (%4.1f%%)   hybrid %5.2fT (%4.1f%%)   gap %+.1f points\n",
			nr, flat.TFlops, flat.Efficiency*100, hyb.TFlops, hyb.Efficiency*100,
			(hyb.Efficiency-flat.Efficiency)*100)
	}
	fmt.Fprintln(w, "  (hybrid amortizes per-process costs; the gap narrows as the problem grows,")
	fmt.Fprintln(w, "   which is why the paper's flat-MPI code competes at 8e8 grid points)")
	return nil
}

// RunScalingCurve prints the model's strong-scaling sweep at both radial
// sizes — the continuous version of Table II.
func RunScalingCurve(w io.Writer, measure bool) error {
	prof, err := Profile(measure)
	if err != nil {
		return err
	}
	m := es.EarthSimulator()
	mp := es.DefaultModelParams()
	procs := []int{256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 5120}
	fmt.Fprintln(w, "Model strong-scaling sweep (the continuous Table II)")
	fmt.Fprintf(w, "  %-8s %-18s %-18s\n", "procs", "Nr=255", "Nr=511")
	for _, p := range procs {
		line := fmt.Sprintf("  %-8d", p)
		for _, nr := range []int{255, 511} {
			pts, err := es.ScalingCurve(m, mp, prof, nr, []int{p})
			if err != nil {
				line += fmt.Sprintf(" %-18s", "-")
				continue
			}
			line += fmt.Sprintf(" %5.2fT (%4.1f%%)    ", pts[0].TFlops, pts[0].Efficiency*100)
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// AblationA8 measures, on this host and the real MHD equations, the
// end-to-end advantage of the Yin-Yang grid over the lat-lon grid: the
// cost of advancing one unit of simulated time is (step cost)/(stable
// dt), and the pole-free grid wins on both factors (fewer points per
// sphere, far larger dt).
func AblationA8(w io.Writer) error {
	prm := mhd.Default()
	ic := mhd.DefaultIC()

	yy, err := mhd.NewSolver(grid.NewSpec(13, 13), prm, ic)
	if err != nil {
		return err
	}
	ll, err := latlon.NewMHD3D(13, 24, 48, prm, ic)
	if err != nil {
		return err
	}
	timeStep := func(step func()) float64 {
		start := time.Now()
		const reps = 3
		for i := 0; i < reps; i++ {
			step()
		}
		return time.Since(start).Seconds() / reps
	}
	dtYY := yy.EstimateDT(0.3)
	dtLL := ll.MaxStableDt(0.3)
	cYY := timeStep(func() { yy.Advance(dtYY) })
	cLL := timeStep(func() { ll.Advance(dtLL) })
	costYY := cYY / dtYY
	costLL := cLL / dtLL
	fmt.Fprintln(w, "Ablation A8: end-to-end cost per unit simulated time, full MHD on this host")
	fmt.Fprintf(w, "  Yin-Yang (13x13x37x2)  : dt=%.3e  %.3fs/step  %8.1f s per time unit\n", dtYY, cYY, costYY)
	fmt.Fprintf(w, "  lat-lon  (13x24x48)    : dt=%.3e  %.3fs/step  %8.1f s per time unit\n", dtLL, cLL, costLL)
	fmt.Fprintf(w, "  Yin-Yang advantage     : %.0fx (pole-free dt times per-step cost)\n", costLL/costYY)
	return nil
}
