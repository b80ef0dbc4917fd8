// Command benchmark is the repository's performance ledger: four
// workloads through the production entry points with tracing off, and
// a traced run plus direct probes that say where the time went, layer
// by layer. BENCHMARK.json at the repository root names what it
// reports; README.md in this directory explains each name.
//
//	go run ./benchmark                                   whole ledger: verify, 5 rounds, layer phase
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1   one run, one JSON line
//	go run ./benchmark -compare A.json B.json            two results of the whole ledger
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/mhd"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// app is one invocation's settings.
type app struct {
	sc      scale
	seed    uint64
	seconds float64
	outDir  string
	// inProcess runs what would be a child process as a function call;
	// the test uses it, at the price of a shared heap.
	inProcess bool
	out, log  io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one `workload` once and print one JSON line (the BENCHMARK.json contract)")
		seed         = fs.Uint64("seed", 1, "seed of the initial conditions; nothing else is random")
		seconds      = fs.Float64("seconds", 20, "with -workload: how long the run measures end to end (the layer phase is fixed work)")
		trace        = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		phase        = fs.String("phase", "all", "whole ledger: all, e2e or layers")
		outDir       = fs.String("out", filepath.Join("benchmark", "out"), "directory for results, traces and campaign stores")
		resultPath   = fs.String("o", "", "whole ledger: result file (default <out>/result.json)")
		doCompare    = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		child        = fs.String("child", "", "internal: run as the measuring child (e2e or layers)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doCompare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	a := &app{sc: production, seed: *seed, seconds: *seconds, outDir: *outDir, out: stdout, log: stderr}
	if *child != "" {
		return a.childMain(*child, *workloadName)
	}
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		var u unitResult
		if *trace != 0 {
			u = a.unitLayers()
		} else {
			u = a.unitE2E(w)
		}
		return a.printUnit(u, w)
	}
	if *resultPath == "" {
		*resultPath = filepath.Join(*outDir, "result.json")
	}
	return a.ledger(*phase, *resultPath)
}

func (a *app) bench() (*bench, error) {
	return newBench(a.sc, a.seed, filepath.Join(a.outDir, "work"))
}

// e2eChild is what one measuring child reports: the workload once,
// then set-up repeated.
type e2eChild struct {
	// SetupS are the set-up repetitions in order, in seconds.
	SetupS []float64 `json:"setup_s"`
	Rep    runResult `json:"rep"`
	// PeakRSSKB is the child's own high-water mark, read by the child.
	PeakRSSKB int64 `json:"peak_rss_kb"`
	// Error is the failure that ended the child early, if any.
	Error string `json:"error,omitempty"`
}

// row is the child's value of each end-to-end metric.
func (c e2eChild) row() map[string]float64 {
	return map[string]float64{
		mStepsPerS:  c.Rep.stepsPerS(),
		mCPUPerStep: c.Rep.cpuMSPerStep(),
		mSetupS:     median(c.SetupS),
		mPeakRSS:    float64(c.PeakRSSKB) / 1024,
	}
}

// peakRSSKB is this process's peak resident set in KiB: VmHWM of
// /proc/self/status, which exec resets. The ru_maxrss a parent reads
// from wait4 is not used, because Linux starts a child's ru_maxrss at
// the parent's own resident set at fork, so it would report the
// parent's verify phase for every small workload.
func peakRSSKB() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb int64
				if _, err := fmt.Sscan(rest, &kb); err == nil {
					return kb
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // reported as nothing measured
	}
	return ru.Maxrss
}

// measure is the child's work: the workload once, as a user's fresh
// process runs it, then set-up repeated. The peak resident set is read
// between the two, so it is that of one repetition. The fixed time step
// costs a solver of its own, which is collected (untimed) before the
// repetition starts.
func (b *bench) measure(w workload) e2eChild {
	var c e2eChild
	_, err := b.fixedDT(w.Small)
	if err == nil {
		runtime.GC()
		c.Rep, err = b.run(w, b.sc.Steps[w.Name], false)
		c.PeakRSSKB = peakRSSKB()
	}
	for i := 0; err == nil && i < b.sc.SetupReps; i++ {
		var d time.Duration
		d, err = b.setup(w)
		c.SetupS = append(c.SetupS, d.Seconds())
	}
	if err != nil {
		c.Error = err.Error()
	}
	return c
}

// childMain is the process the parent re-executes: a fresh heap, cold
// set-up, perfcount's process-global counters at zero, and a peak
// resident set that belongs to one workload.
func (a *app) childMain(kind, workloadName string) int {
	b, err := a.bench()
	if err != nil {
		fmt.Fprintln(a.log, "benchmark:", err)
		return 1
	}
	var doc any
	switch kind {
	case "e2e":
		w, ok := workloadByName(workloadName)
		if !ok {
			fmt.Fprintf(a.log, "benchmark: unknown workload %q\n", workloadName)
			return 2
		}
		doc = b.measure(w)
	case "layers":
		doc = b.layers(a.outDir, a.log)
	default:
		fmt.Fprintf(a.log, "benchmark: unknown child kind %q\n", kind)
		return 2
	}
	if err := json.NewEncoder(a.out).Encode(doc); err != nil {
		fmt.Fprintln(a.log, "benchmark:", err)
		return 1
	}
	return 0
}

// spawn re-executes this binary as a measuring child and decodes what
// it prints into doc.
func (a *app) spawn(kind, workloadName string, doc any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe,
		"-child", kind, "-workload", workloadName, "-seed", fmt.Sprint(a.seed), "-out", a.outDir)
	cmd.Stderr = a.log
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child: %w", kind, err)
	}
	return json.Unmarshal(stdout, doc)
}

func (a *app) measureChild(w workload) (e2eChild, error) {
	if a.inProcess {
		b, err := a.bench()
		if err != nil {
			return e2eChild{}, err
		}
		return b.measure(w), nil
	}
	var c e2eChild
	err := a.spawn("e2e", w.Name, &c)
	return c, err
}

func (a *app) layersChild() (*layerReport, error) {
	if err := os.MkdirAll(a.outDir, 0o755); err != nil {
		return nil, err
	}
	if a.inProcess {
		b, err := a.bench()
		if err != nil {
			return nil, err
		}
		return b.layers(a.outDir, a.log), nil
	}
	rep := &layerReport{}
	err := a.spawn("layers", "", rep)
	return rep, err
}

// metricValue is one reported number; a refused metric has no value
// and says why.
type metricValue struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Reason string   `json:"reason,omitempty"`
}

// unitResult is one run of one workload, tracing on or off: the unit
// the BENCHMARK.json contract is written in.
type unitResult struct {
	Trace     bool
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
	Errors    []string
	// Reps is how many timed repetitions the medians are over.
	Reps   int
	Layers *layerReport
}

func (u *unitResult) failf(format string, args ...any) {
	u.Errors = append(u.Errors, fmt.Sprintf(format, args...))
}

func val(v float64) *float64 { return &v }

// unitE2E is one run of one workload with tracing off: it verifies
// (untimed) that the workload's shape and another shape of the same
// grid end on one sha256, then measures in fresh children, one
// repetition each, and reports each metric's median over them.
func (a *app) unitE2E(w workload) (u unitResult) {
	u = unitResult{Metrics: map[string]metricValue{}}
	defer func() { u.Correct = len(u.Errors) == 0 && u.Failed == 0 }()
	t0 := time.Now()
	b, err := a.bench()
	if err != nil {
		u.failf("%v", err)
		return u
	}
	// The partner is the serial solver; the serial workload is held to
	// the 2-rank world instead.
	sh := shapes(w.Small)
	pair := []workload{w, sh[0]}
	if w.Ranks == 1 {
		pair[1] = sh[1]
	}
	refs, err := b.verify(pair, verifySteps)
	if err != nil {
		u.Attempted, u.Failed = verifySteps, verifySteps
		u.failf("%v", err)
		return u
	}
	fmt.Fprintf(a.log, "%s: verified against %s over %d steps, sha256 %.12s (%.1fs)\n",
		w.Name, pair[1].Name, verifySteps, refs[0].SHA, time.Since(t0).Seconds())

	// Children until the run's seconds are spent. Another one starts
	// while at least half of it fits, so runs are seconds long on
	// average and not a repetition longer.
	var t tally
	budget := time.Duration(a.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for n := 0; t.failed == 0 && (n < a.sc.MinReps || time.Since(start)+last/2 < budget); n++ {
		t0 := time.Now()
		c, err := a.measureChild(w)
		_ = t.add(w, a.sc.Steps[w.Name], c, err) // kept in t.errors; t.failed ends the loop
		last = time.Since(t0)
	}
	u.Attempted, u.Failed, u.Errors, u.Reps = t.ops, t.failed, t.errors, len(t.rows)
	if len(t.rows) == 0 {
		return u
	}
	for _, m := range endToEnd {
		v := median(t.column(m.Name))
		switch m.Name {
		case mSetupS:
			v = median(t.setups) // all children's samples, not the median of their medians
		case mPeakRSS:
			// The collector's pacing makes a campaign's peak land on one of
			// two levels 9% apart; the median of three children flips
			// between them from run to run, their mean does not.
			v = mean(t.column(m.Name))
		}
		u.Metrics[m.Name] = metricValue{Value: val(v), Unit: m.Unit}
	}
	return u
}

// tally is the end-to-end account of one workload over its children.
type tally struct {
	ops, failed int
	errors      []string
	// rows holds each good child's value of every end-to-end metric;
	// setups pools their set-up samples.
	rows   []map[string]float64
	setups []float64
	// first is the diagnostics record the first good child ended on.
	first *mhd.Diagnostics
}

// add takes one child into the account. An operation is one attempted
// step; every step of a child that errored, measured nothing, or ended
// on other bits than the first child counts as failed: the determinism
// check is made on the timed runs themselves. It returns what it held
// against the child, if anything.
func (t *tally) add(w workload, steps int, c e2eChild, err error) error {
	t.ops += steps
	if err == nil && c.Error != "" {
		err = errors.New(c.Error)
	}
	switch {
	case err != nil:
	case len(c.SetupS) == 0 || c.Rep.WallNS <= 0 || c.Rep.CPUNS <= 0 || c.PeakRSSKB <= 0:
		err = fmt.Errorf("nothing measured (%d set-ups, wall %d ns, cpu %d ns, peak rss %d KiB)",
			len(c.SetupS), c.Rep.WallNS, c.Rep.CPUNS, c.PeakRSSKB)
	case t.first != nil && c.Rep.Diag != *t.first:
		err = fmt.Errorf("ended on diagnostics %+v, the first repetition on %+v", c.Rep.Diag, *t.first)
	}
	if err != nil {
		err = fmt.Errorf("%s: repetition %d: %w", w.Name, len(t.rows)+len(t.errors), err)
		t.failed += steps
		t.errors = append(t.errors, err.Error())
		return err
	}
	if t.first == nil {
		t.first = &c.Rep.Diag
	}
	t.rows = append(t.rows, c.row())
	t.setups = append(t.setups, c.SetupS...)
	return nil
}

func (t *tally) column(metric string) []float64 {
	v := make([]float64, len(t.rows))
	for i, row := range t.rows {
		v[i] = row[metric]
	}
	return v
}

// unitLayers runs the layer phase in a child. The phase is the same
// whichever workload a -trace 1 run names: the contract wants every
// per-layer metric in every such line, and a metric has to mean the same
// whoever asked for it. The named workload selects the budget printed.
func (a *app) unitLayers() unitResult {
	u := unitResult{Trace: true, Metrics: map[string]metricValue{}}
	rep, err := a.layersChild()
	if err != nil {
		u.failf("%v", err)
		return u
	}
	u.Layers = rep
	u.Attempted, u.Failed = rep.Ops, rep.OpsFailed
	u.Errors = append(u.Errors, rep.Errors...)
	for _, m := range perLayer {
		v, ok := rep.Values[m.Name]
		switch reason, refused := rep.Refused[m.Name]; {
		case ok:
			u.Metrics[m.Name] = metricValue{Value: val(v), Unit: m.Unit}
		case refused:
			u.Metrics[m.Name] = metricValue{Unit: m.Unit, Reason: reason}
		default:
			u.failf("layer phase did not report %s", m.Name)
		}
	}
	u.Correct = len(u.Errors) == 0 && u.Failed == 0
	return u
}

// printUnit writes the contract's result line — one JSON object, last
// on standard output — after the human-readable account on standard
// error: the metrics and, of a traced run, the named workload's
// self-time budget. Anything incorrect is also a non-zero exit.
func (a *app) printUnit(u unitResult, w workload) int {
	defs := endToEnd
	if !u.Trace {
		fmt.Fprintf(a.log, "%s: medians over %d repetitions, a fresh child each\n", w.Name, u.Reps)
	} else {
		defs = perLayer
		if u.Layers != nil {
			for _, bd := range u.Layers.Budgets {
				if bd.Workload == w.Name {
					printBudgets(a.log, []budget{bd})
				}
			}
		}
	}
	printMetrics(a.log, defs, u.Metrics)
	for _, e := range u.Errors {
		fmt.Fprintln(a.log, "FAIL", e)
	}
	if u.Attempted < 1 {
		u.Attempted = 1
		u.Failed = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{u.Correct, u.Attempted, u.Failed, u.Metrics})
	if err != nil {
		fmt.Fprintln(a.log, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(a.out, "%s\n", line)
	if !u.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		v, ok := m[d.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-42s %14s %s\n", d.Name, "missing", d.Unit)
		case v.Value == nil:
			fmt.Fprintf(w, "  %-42s %14s %s  (%s)\n", d.Name, "null", d.Unit, v.Reason)
		default:
			fmt.Fprintf(w, "  %-42s %14.6g %s\n", d.Name, *v.Value, d.Unit)
		}
	}
}

// result is the whole ledger: what `go run ./benchmark` writes and
// -compare reads.
type result struct {
	Env    env    `json:"env"`
	Seed   uint64 `json:"seed"`
	Rounds int    `json:"rounds"`
	// Verify is the one sha256 every shape of a grid produced.
	Verify    map[string]string          `json:"verify"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Layers    *layerReport               `json:"layers,omitempty"`
	PhaseS    map[string]float64         `json:"phase_wall_s"`
	OK        bool                       `json:"ok"`
	Errors    []string                   `json:"errors,omitempty"`
}

// workloadResult is the end-to-end account of one workload over the
// rounds: each metric is the median of the rounds, with its spread.
type workloadResult struct {
	Ops       int                  `json:"ops"`
	OpsFailed int                  `json:"ops_failed"`
	Metrics   map[string]summary   `json:"metrics"`
	Rounds    []map[string]float64 `json:"rounds"`
}

// verifySteps is the length of the cross-shape identity check.
const verifySteps = 6

// ledger is the whole List 1: verify every shape on both grids, run
// the rounds round-robin, run the layer phase, print every metric by
// name with its unit and write the result.
func (a *app) ledger(phase, resultPath string) int {
	if phase != "all" && phase != "e2e" && phase != "layers" {
		fmt.Fprintf(a.log, "benchmark: unknown phase %q\n", phase)
		return 2
	}
	if err := os.MkdirAll(a.outDir, 0o755); err != nil {
		fmt.Fprintln(a.log, "benchmark:", err)
		return 1
	}
	res := &result{
		Env: readEnv(a.outDir), Seed: a.seed, Rounds: a.sc.Rounds,
		Verify: map[string]string{}, Workloads: map[string]*workloadResult{}, PhaseS: map[string]float64{},
	}
	failf := func(format string, args ...any) {
		res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
		fmt.Fprintf(a.log, "FAIL "+format+"\n", args...)
	}
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		res.PhaseS[name] = time.Since(t0).Seconds()
		fmt.Fprintf(a.log, "phase %s: %.1fs\n", name, res.PhaseS[name])
	}

	timed("verify", func() {
		b, err := a.bench()
		if err != nil {
			failf("%v", err)
			return
		}
		for _, small := range []bool{false, true} {
			name := "l2out"
			if small {
				name = "small"
			}
			refs, err := b.verify(shapes(small), verifySteps)
			if err != nil {
				failf("%v", err)
				continue
			}
			res.Verify[name] = refs[0].SHA
			fmt.Fprintf(a.log, "verify %s: serial = world2 = world4 = resumed campaign, sha256 %.12s\n", name, refs[0].SHA)
		}
	})

	if phase != "layers" {
		timed("e2e", func() {
			// One child, one repetition, per workload and round. Round-robin:
			// a noisy minute on a shared host lands on one round of every
			// workload, not on every round of one.
			tallies := map[string]*tally{}
			for _, w := range workloads {
				tallies[w.Name] = &tally{}
			}
			for r := 0; r < a.sc.Rounds; r++ {
				for _, w := range workloads {
					t := tallies[w.Name]
					c, err := a.measureChild(w)
					if err := t.add(w, a.sc.Steps[w.Name], c, err); err != nil {
						failf("round %d: %v", r, err)
						continue
					}
					row := t.rows[len(t.rows)-1]
					fmt.Fprintf(a.log, "round %d %-14s %8.3f steps/s  %8.2f cpu ms/step  %7.1f MiB\n",
						r, w.Name, row[mStepsPerS], row[mCPUPerStep], row[mPeakRSS])
				}
			}
			for _, w := range workloads {
				t := tallies[w.Name]
				wr := &workloadResult{Ops: t.ops, OpsFailed: t.failed, Rounds: t.rows, Metrics: map[string]summary{}}
				for _, m := range endToEnd {
					wr.Metrics[m.Name] = summarize(t.column(m.Name))
				}
				res.Workloads[w.Name] = wr
			}
		})
	}

	if phase != "e2e" {
		timed("layers", func() {
			u := a.unitLayers()
			res.Layers = u.Layers
			for _, e := range u.Errors {
				failf("%s", e)
			}
		})
	}

	res.OK = len(res.Errors) == 0
	a.printLedger(res)
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = store.WriteFileAtomic(resultPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(a.log, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(a.out, "result: %s\n", resultPath)
	if !res.OK {
		return 1
	}
	return 0
}

func (a *app) printLedger(res *result) {
	w := a.out
	e := res.Env
	fmt.Fprintf(w, "host: %d cpus, GOMAXPROCS %d, %s, %s, caches %v, work dir on %s, commit %.12s, seed %d\n",
		e.CPUs, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Caches, e.WorkDirFS, e.GitCommit, res.Seed)
	for _, wl := range workloads {
		wr, ok := res.Workloads[wl.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s  ops=%d ops_failed=%d\n", wl.Name, wr.Ops, wr.OpsFailed)
		for _, m := range endToEnd {
			s := wr.Metrics[m.Name]
			fmt.Fprintf(w, "  %-18s %12.6g %-4s  min %.6g  q1 %.6g  q3 %.6g  max %.6g  n=%d  (%s is better, bound %.0f%%)\n",
				m.Name, s.Median, m.Unit, s.Min, s.Q1, s.Q3, s.Max, s.N, m.Better, 100*m.Bound)
		}
	}
	if res.Layers == nil {
		return
	}
	printBudgets(w, res.Layers.Budgets)
	fmt.Fprintln(w, "\nper-layer metrics")
	for _, m := range perLayer {
		note := ""
		if base, ok := res.Layers.RatioBases[m.Name]; ok {
			note = fmt.Sprintf("  (base %.4g steps/s)", base)
		}
		if n, ok := res.Layers.Samples[m.Name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		if m.Moves != "" {
			note += "  -> " + m.Moves
		}
		if v, ok := res.Layers.Values[m.Name]; ok {
			fmt.Fprintf(w, "  %-42s %14.6g %s%s\n", m.Name, v, m.Unit, note)
		} else {
			fmt.Fprintf(w, "  %-42s %14s %s  (%s)\n", m.Name, "null", m.Unit, res.Layers.Refused[m.Name])
		}
	}
}
