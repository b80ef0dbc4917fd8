package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/mhd"
	"repro/internal/resilience"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// scale fixes the two grids and how many steps one repetition of each
// workload runs. BENCHMARK.json is measured at the production scale;
// bench_test.go runs the same pipeline on a grid small enough for
// `go test`.
type scale struct {
	L2Out, Small [2]int // Nr, Nt
	// Steps is the length of one timed repetition per workload; a
	// campaign runs the first half fresh and the second half resumed.
	Steps map[string]int
	// SetupReps is how many times set-up is repeated for setup_s.
	SetupReps int
	// MinReps is the fewest timed repetitions a run reports a median of.
	MinReps int
	// Rounds is how often the whole ledger runs the four workloads.
	Rounds int
	// ProbeReps is the min-of-N depth of the kernel probes.
	ProbeReps int
	// SerialSamples is how many serial steps the layer phase times one by
	// one: 200 keep 10 beyond the 95th percentile.
	SerialSamples int
	// RatioLeg is the least measured time of one leg of an on/off ratio.
	RatioLeg time.Duration
}

var production = scale{
	L2Out: [2]int{33, 33}, // Np=97: 211 266 points, ~0.85 MB per scalar per panel
	Small: [2]int{17, 17}, // Np=49: 28 322 points, L2-resident when split over 4 ranks
	Steps: map[string]int{
		"serial_l2out":  40,
		"world2_l2out":  60,
		"world4_small":  400,
		"campaign_ckpt": 24,
	},
	SetupReps: 11, // per child; a run pools those of its children

	MinReps:       3,
	Rounds:        5,
	ProbeReps:     8,
	SerialSamples: 200,
	RatioLeg:      time.Second,
}

// safety is the CFL factor of the one fixed time step every shape of a
// grid advances with, so trajectories are comparable bit for bit.
const safety = 0.3

// bench is the state one benchmark process shares between its runs.
type bench struct {
	sc   scale
	seed uint64
	// workDir holds the campaign stores; it lives inside the checkout.
	workDir string
	dt      map[bool]float64
	nextDir int
}

func newBench(sc scale, seed uint64, workDir string) (*bench, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	return &bench{sc: sc, seed: seed, workDir: workDir, dt: map[bool]float64{}}, nil
}

// config is the one solver configuration of a grid: the seed feeds the
// initial conditions only, the magnetic seed field is strong enough
// that the induction and Lorentz paths are hot, and kernels are serial
// inside a rank so that ranks, not pools, are what a workload varies.
func (b *bench) config(small bool) core.Config {
	g := b.sc.L2Out
	if small {
		g = b.sc.Small
	}
	ic := mhd.DefaultIC()
	ic.SeedBAmp = 0.05
	ic.Seed = b.seed
	return core.Config{Nr: g[0], Nt: g[1], IC: &ic, Workers: 1}
}

// fixedDT is EstimateDT(0.3) of the seeded initial state, passed
// explicitly to every shape.
func (b *bench) fixedDT(small bool) (float64, error) {
	if dt, ok := b.dt[small]; ok {
		return dt, nil
	}
	sim, err := core.New(b.config(small))
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	dt := sim.Solver.EstimateDT(safety)
	b.dt[small] = dt
	return dt, nil
}

// freshDir names a campaign directory that does not exist yet.
func (b *bench) freshDir() string {
	b.nextDir++
	return filepath.Join(b.workDir, fmt.Sprintf("camp-%d-%d", os.Getpid(), b.nextDir))
}

func openStore(dir string) (*store.Store, error) {
	be, err := store.NewDirBackend(dir)
	if err != nil {
		return nil, err
	}
	return store.Open(be)
}

// setup stands up a ready-to-step solver for the workload's shape once
// and returns how long that took: serial core.New; worlds a zero-step
// launch; campaign the store on an empty directory plus that launch
// (campaigns relaunch a world per segment, so set-up is real traffic).
func (b *bench) setup(w workload) (time.Duration, error) {
	cfg := b.config(w.Small)
	dt, err := b.fixedDT(w.Small)
	if err != nil {
		return 0, err
	}
	var dir string
	if w.Campaign {
		dir = b.freshDir()
		defer os.RemoveAll(dir)
	}
	t0 := time.Now()
	switch {
	case w.Ranks == 1:
		sim, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		sim.Close()
	default:
		if w.Campaign {
			if _, err := openStore(dir); err != nil {
				return 0, err
			}
		}
		if _, err := core.RunParallel(cfg, w.Ranks, 0, 0, dt); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// runResult is one repetition of a workload through a production entry
// point (or through the benchmark's own driver, which fills the same
// fields).
type runResult struct {
	Steps  int   `json:"steps"`
	WallNS int64 `json:"wall_ns"`
	CPUNS  int64 `json:"cpu_ns"`
	// Diag is the final diagnostics record; every repetition of a
	// workload must return the same bits.
	Diag mhd.Diagnostics `json:"diag"`
	// SHA is the sha256 of the final checkpoint, when asked for.
	SHA       string `json:"sha,omitempty"`
	CkptBytes int    `json:"ckpt_bytes,omitempty"`
	// ResumeNS is the campaign's third call: nothing left to run, so a
	// pure restore. Retries counts its failed segment attempts.
	ResumeNS int64 `json:"resume_ns,omitempty"`
	Retries  int   `json:"retries,omitempty"`
}

func (r runResult) stepsPerS() float64 { return float64(r.Steps) / (float64(r.WallNS) * 1e-9) }
func (r runResult) cpuMSPerStep() float64 {
	return float64(r.CPUNS) * 1e-6 / float64(r.Steps)
}

// cpuNow is the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch brackets a timed region with wall and CPU clocks.
type stopwatch struct {
	t0   time.Time
	cpu0 time.Duration
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), cpu0: cpuNow()} }

func (s stopwatch) stop(r *runResult) {
	r.WallNS += time.Since(s.t0).Nanoseconds()
	r.CPUNS += (cpuNow() - s.cpu0).Nanoseconds()
}

func checkpointSHA(sv *mhd.Solver) (string, int, error) {
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, sv); err != nil {
		return "", 0, err
	}
	return shaHex(buf.Bytes()), buf.Len(), nil
}

func shaHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func finite(d mhd.Diagnostics) error {
	for _, v := range []float64{d.Time, d.Mass, d.KineticE, d.MagneticE, d.InternalE, d.MaxV, d.MaxB} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite diagnostic in %+v", d)
		}
	}
	return nil
}

// run executes one repetition of the workload through its production
// entry point with tracing off. wantSHA additionally produces the
// final checkpoint through the entry point that writes one; its cost
// is inside the timed region for worlds and outside it for the serial
// solver, whose timed region is the Advance loop alone.
func (b *bench) run(w workload, steps int, wantSHA bool) (runResult, error) {
	cfg := b.config(w.Small)
	dt, err := b.fixedDT(w.Small)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{Steps: steps}
	switch {
	case w.Campaign:
		return b.runCampaign(w, steps, wantSHA)
	case w.Ranks == 1:
		sim, err := core.New(cfg)
		if err != nil {
			return res, err
		}
		defer sim.Close()
		sw := startWatch()
		for i := 0; i < steps; i++ {
			sim.Solver.Advance(dt)
		}
		sw.stop(&res)
		if err := sim.Solver.CheckFinite(); err != nil {
			return res, err
		}
		res.Diag = sim.Solver.Diagnose()
		if wantSHA {
			if res.SHA, res.CkptBytes, err = checkpointSHA(sim.Solver); err != nil {
				return res, err
			}
		}
	default:
		var diags []mhd.Diagnostics
		var buf bytes.Buffer
		sw := startWatch()
		if wantSHA {
			diags, err = core.RunParallelWithCheckpoint(cfg, w.Ranks, steps, dt, &buf)
		} else {
			diags, err = core.RunParallel(cfg, w.Ranks, steps, steps, dt)
		}
		sw.stop(&res)
		if err != nil {
			return res, err
		}
		if len(diags) == 0 {
			return res, fmt.Errorf("%s: run returned no diagnostics", w.Name)
		}
		res.Diag = diags[len(diags)-1]
		if wantSHA {
			res.SHA, res.CkptBytes = shaHex(buf.Bytes()), buf.Len()
		}
	}
	return res, finite(res.Diag)
}

// campaignCall is one RunCampaign call up to step upTo over the
// directory: store-backed (reopened, as a restarted process would) or,
// for the sink comparison, the plain directory sink.
func (b *bench) campaignCall(w workload, dir string, dirSink bool, upTo int) (*resilience.Result, error) {
	dt, err := b.fixedDT(w.Small)
	if err != nil {
		return nil, err
	}
	sched := make([]float64, upTo/ckptEvery+1)
	for i := range sched {
		sched[i] = dt
	}
	cc := resilience.Config{
		Core: b.config(w.Small), NProcs: w.Ranks, Steps: upTo,
		CheckpointEvery: ckptEvery, DTSchedule: sched,
	}
	if dirSink {
		cc.Dir = dir
	} else {
		st, err := openStore(dir)
		if err != nil {
			return nil, err
		}
		cc.Store = st
	}
	return resilience.RunCampaign(cc)
}

// runCampaign is the campaign repetition: call 1 runs the first half
// fresh, call 2 resumes from its last checkpoint and finishes, call 3
// finds nothing left to do and only restores. The timed region is
// calls 1 + 2 with every commit; call 3 is timed on its own.
func (b *bench) runCampaign(w workload, steps int, wantSHA bool) (runResult, error) {
	dir := b.freshDir()
	defer os.RemoveAll(dir)
	call := func(upTo int) (*resilience.Result, error) { return b.campaignCall(w, dir, false, upTo) }
	res := runResult{Steps: steps}
	half := steps / 2 / ckptEvery * ckptEvery
	sw := startWatch()
	r1, err := call(half)
	if err != nil {
		return res, err
	}
	r2, err := call(steps)
	sw.stop(&res)
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	r3, err := call(steps)
	res.ResumeNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return res, err
	}
	res.Retries = r1.Retries + r2.Retries + r3.Retries
	switch {
	case res.Retries != 0:
		return res, fmt.Errorf("%s: %d segment retries on a fault-free campaign", w.Name, res.Retries)
	case half > 0 && (!r2.Resumed || r2.StartStep != half):
		return res, fmt.Errorf("%s: call 2 did not resume at step %d (resumed=%v start=%d)", w.Name, half, r2.Resumed, r2.StartStep)
	case !r3.Resumed || r3.StartStep != steps || r3.FinalStep != steps || len(r2.Diags) == 0:
		return res, fmt.Errorf("%s: call 3 was not a pure restore at step %d (start=%d final=%d)", w.Name, steps, r3.StartStep, r3.FinalStep)
	}
	res.Diag = r2.Diags[len(r2.Diags)-1]
	if wantSHA {
		// The restored state of call 3, so the sha covers the read path.
		if res.SHA, res.CkptBytes, err = checkpointSHA(r3.Final); err != nil {
			return res, err
		}
	}
	return res, finite(res.Diag)
}

// shapes are the ways one trajectory can be produced; verification
// demands one sha256 from all of them.
func shapes(small bool) []workload {
	return []workload{
		{Name: "serial", Small: small, Ranks: 1},
		{Name: "world2", Small: small, Ranks: 2},
		{Name: "world4", Small: small, Ranks: 4},
		{Name: "campaign", Small: small, Ranks: 2, Campaign: true},
	}
}

// verify runs steps steps through each given shape of one grid and
// requires one sha256 of the final checkpoint from all of them. It
// returns each shape's result. Diagnostics are compared within a shape
// only: they are sums over ranks, so their last bits depend on the
// world size even when the state does not.
func (b *bench) verify(sh []workload, steps int) ([]runResult, error) {
	out := make([]runResult, len(sh))
	for i, w := range sh {
		r, err := b.run(w, steps, true)
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", w.Name, err)
		}
		if r.SHA != out[0].SHA && i > 0 {
			return nil, fmt.Errorf("verify: %s checkpoint sha256 %.12s differs from %s's %.12s after %d steps",
				w.Name, r.SHA, sh[0].Name, out[0].SHA, steps)
		}
		out[i] = r
	}
	return out, nil
}
