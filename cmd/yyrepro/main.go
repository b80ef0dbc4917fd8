// Command yyrepro runs the complete paper reproduction in one shot and
// writes a report directory: every table, the MPIPROGINF listing, the
// ablations, both figures as PPM images, and the physics experiment
// summaries. This is the "make everything" entry point of the
// repository, and the one printer of the paper's tables: each file
// below is also the answer to "print table N".
//
//	yyrepro -out report/                 # live step profile
//	yyrepro -measure=false -out report/  # the baked reference profile
//
// Files: table1.txt, table2.txt, table3.txt (Tables I-III), list1.txt
// (MPIPROGINF, List 1), io_volume.txt (section V data volume),
// scaling.txt (the model's strong-scaling sweep), ablations.txt (A1-A8
// of DESIGN.md), fig1-coverage.ppm and fig1-summary.txt (Fig. 1),
// fig2-vortz.ppm, fig2-temperature.ppm and fig2-summary.txt (Fig. 2),
// and energy_series.csv. Exit status 0 means every file was written, 1
// that a stage failed, 2 a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body; it returns the process exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("yyrepro", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		dir     = fs.String("out", "report", "output directory")
		measure = fs.Bool("measure", true, "measure the live step profile (slower, more faithful)")
		nr      = fs.Int("nr", 17, "physics-run radial nodes")
		nt      = fs.Int("nt", 17, "physics-run latitudinal nodes")
		steps   = fs.Int("steps", 120, "physics-run steps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := reproduce(*dir, *measure, *nr, *nt, *steps, out); err != nil {
		fmt.Fprintln(errOut, "yyrepro:", err)
		return 1
	}
	fmt.Fprintf(out, "reproduction report written to %s/\n", *dir)
	return 0
}

// reproduce writes every report file into dir, in order, naming each
// on out as it lands.
func reproduce(dir string, measure bool, nr, nt, steps int, out io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(out, "wrote", path)
		return nil
	}
	// Sections of one file are separated by a blank line.
	sections := func(w io.Writer, parts ...func(io.Writer) error) error {
		for i, p := range parts {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if err := p(w); err != nil {
				return err
			}
		}
		return nil
	}
	plain := func(fn func(io.Writer)) func(io.Writer) error {
		return func(w io.Writer) error { fn(w); return nil }
	}
	measured := func(fn func(io.Writer, bool) error) func(io.Writer) error {
		return func(w io.Writer) error { return fn(w, measure) }
	}

	im := viz.CoverageMap(256, 512)
	res, err := bench.RunFig2(nr, nt, steps, 256)
	if err != nil {
		return err
	}
	hist, err := bench.RunEnergyGrowth(nr, nt, steps, 10)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		fn   func(io.Writer) error
	}{
		// Performance section.
		{"table1.txt", plain(bench.RunTable1)},
		{"table2.txt", measured(bench.RunTable2)},
		{"table3.txt", measured(bench.RunTable3)},
		{"list1.txt", measured(bench.RunList1)},
		{"io_volume.txt", plain(bench.RunIOVolume)},
		{"scaling.txt", measured(bench.RunScalingCurve)},
		{"ablations.txt", func(w io.Writer) error {
			return sections(w, plain(bench.AblationA1), measured(bench.AblationA2), bench.AblationA3,
				measured(bench.AblationA4), measured(bench.AblationA5), plain(bench.AblationA6),
				measured(bench.AblationA7), bench.AblationA8, measured(bench.RunWallClock))
		}},
		// Figure 1.
		{"fig1-coverage.ppm", func(w io.Writer) error { return viz.WritePPM(w, im) }},
		{"fig1-summary.txt", func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "Yin-Yang coverage: overlap %.4f of sphere (analytic %.4f; paper: about 6%%)\n",
				viz.OverlapPixelFraction(im), grid.OverlapFraction())
			return err
		}},
		// Figure 2 + section V physics.
		{"fig2-vortz.ppm", func(w io.Writer) error { return viz.WritePPM(w, res.VortSlice) }},
		{"fig2-temperature.ppm", func(w io.Writer) error { return viz.WritePPM(w, res.TempSlice) }},
		{"fig2-summary.txt", func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "steps=%d kineticE=%.4g columns: %d cyclonic, %d anti-cyclonic\n",
				res.Steps, res.KineticEnergy, res.Cyclonic, res.Anticyclonic)
			return err
		}},
		{"energy_series.csv", plain(func(w io.Writer) { bench.FormatEnergySeries(w, hist) })},
	} {
		if err := write(f.name, f.fn); err != nil {
			return err
		}
	}
	return nil
}
