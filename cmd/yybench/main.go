// Command yybench regenerates the paper's performance evaluation: the
// Earth Simulator specification (Table I), the yycore scaling results
// (Table II), the cross-paper comparison (Table III), the MPIPROGINF
// report (List 1), the section-V I/O bookkeeping, and the design-choice
// ablations of DESIGN.md. It reproduces the paper's figures; how fast
// this host runs the solver is measured by benchmark/ (BENCHMARK.json,
// sh benchmark/run.sh), not here.
//
// Examples:
//
//	yybench -table 2            # paper-vs-model scaling table
//	yybench -list1              # MPIPROGINF, List 1 layout
//	yybench -all -measure       # everything, with a live profile
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		table     = flag.Int("table", 0, "print table 1, 2 or 3")
		list1     = flag.Bool("list1", false, "print the MPIPROGINF report (List 1)")
		io        = flag.Bool("io", false, "print the section-V data volume bookkeeping")
		ablations = flag.Bool("ablations", false, "print the design-choice ablations A1-A8")
		scaling   = flag.Bool("scaling", false, "print the model strong-scaling sweep")
		all       = flag.Bool("all", false, "print everything")
		measure   = flag.Bool("measure", false, "re-measure the step profile from the live solver instead of the baked reference")
	)
	flag.Parse()

	w := os.Stdout
	ran := false
	sep := func() { fmt.Fprintln(w) }
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "yybench:", err)
			os.Exit(1)
		}
	}
	if *all || *table == 1 {
		bench.RunTable1(w)
		sep()
		ran = true
	}
	if *all || *table == 2 {
		check(bench.RunTable2(w, *measure))
		sep()
		ran = true
	}
	if *all || *table == 3 {
		check(bench.RunTable3(w, *measure))
		sep()
		ran = true
	}
	if *all || *list1 {
		check(bench.RunList1(w, *measure))
		sep()
		ran = true
	}
	if *all || *io {
		bench.RunIOVolume(w)
		sep()
		ran = true
	}
	if *all || *ablations {
		bench.AblationA1(w)
		sep()
		check(bench.AblationA2(w, *measure))
		sep()
		check(bench.AblationA3(w))
		sep()
		check(bench.AblationA4(w, *measure))
		sep()
		check(bench.AblationA5(w, *measure))
		sep()
		bench.AblationA6(w)
		sep()
		check(bench.AblationA7(w, *measure))
		sep()
		check(bench.AblationA8(w))
		sep()
		check(bench.RunWallClock(w, *measure))
		ran = true
	}
	if *all || *scaling {
		check(bench.RunScalingCurve(w, *measure))
		sep()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
