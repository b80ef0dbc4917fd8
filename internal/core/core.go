// Package core is the public face of the yygo library: it assembles the
// Yin-Yang grid, the compressible MHD solver, the diagnostics and the
// visualization into a single Simulation type, and provides a one-call
// parallel runner over the goroutine message-passing runtime.
//
// A minimal use:
//
//	sim, err := core.New(core.Config{Nr: 33, Nt: 33})
//	...
//	for !done {
//	    sim.Step(10)
//	    fmt.Println(sim.Diagnostics())
//	}
package core

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

// Config selects the grid resolution, the physical parameters and the
// initial conditions of a run. Zero values select defaults.
type Config struct {
	// Nr, Nt are the radial and latitudinal node counts of each panel;
	// the longitudinal count is 3(Nt-1)+1 for equal angular spacing. The
	// paper's flagship grid is Nr=511, Nt=514 (Np=1538).
	Nr, Nt int
	// RI, RO are the shell radii (defaults 0.35, 1 — the Earth's
	// inner-core to core-mantle ratio, normalized).
	RI, RO float64
	// Params are the MHD free parameters (defaults mhd.Default()).
	Params *mhd.Params
	// IC are the initial conditions (defaults mhd.DefaultIC()).
	IC *mhd.InitialConditions
	// SafetyFactor scales the automatic time step (default 0.3).
	SafetyFactor float64
	// Workers sets the intra-rank worker-pool width for the tiled stencil
	// and overset kernels. 0 selects the automatic split (GOMAXPROCS
	// divided over the ranks of a parallel run); 1 forces serial kernels.
	// Every pooled kernel is bit-identical to its serial form, so Workers
	// changes wall-clock time only.
	Workers int
	// Obs, when non-nil, records the run's observability data: per-rank
	// phase spans (exportable as a Perfetto trace), per-(comm,tag)
	// message metrics, and per-step physics gauges, aggregated into a
	// PROGINF-style run report. Tracing never perturbs the physics: a
	// traced run's checkpoint is byte-identical to an untraced one.
	Obs *obs.Recorder
	// Telemetry, when non-nil, is the live telemetry plane each rank
	// publishes step snapshots into (seqlock double buffers: no locks,
	// no allocations, no clock reads on the step path). Like Obs, it
	// never perturbs the physics — a telemetrized run's checkpoint is
	// byte-identical to a dark one.
	Telemetry *telemetry.Plane
}

func (c Config) withDefaults() Config {
	if c.Nr == 0 {
		c.Nr = 17
	}
	if c.Nt == 0 {
		c.Nt = 17
	}
	//yyvet:ignore float-eq zero-valued config field means unset; defaulting keys on the exact zero value
	if c.RI == 0 {
		c.RI = 0.35
	}
	//yyvet:ignore float-eq zero-valued config field means unset; defaulting keys on the exact zero value
	if c.RO == 0 {
		c.RO = 1
	}
	if c.Params == nil {
		p := mhd.Default()
		c.Params = &p
	}
	if c.IC == nil {
		ic := mhd.DefaultIC()
		c.IC = &ic
	}
	//yyvet:ignore float-eq zero-valued config field means unset; defaulting keys on the exact zero value
	if c.SafetyFactor == 0 {
		c.SafetyFactor = 0.3
	}
	return c
}

// WithDefaults returns the config with every zero field replaced by its
// default, the exact resolution New and RunParallel apply (exported for
// drivers layered on top, e.g. internal/resilience).
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Spec returns the grid spec the config describes.
func (c Config) Spec() grid.Spec {
	c = c.withDefaults()
	s := grid.NewSpec(c.Nr, c.Nt)
	s.RI, s.RO = c.RI, c.RO
	return s
}

// Simulation is a serial two-panel geodynamo run.
type Simulation struct {
	Cfg    Config
	Solver *mhd.Solver

	dt      float64
	pool    *par.Pool
	rr      *obs.RankRec
	history []mhd.Diagnostics
}

// New builds and initializes a simulation.
func New(cfg Config) (*Simulation, error) {
	cfg = cfg.withDefaults()
	// A serial run records on rank 0's track; nil Obs makes rr nil and
	// every span call a no-op.
	rr := cfg.Obs.RankFor(0)
	rr.Open()
	defer rr.Begin(obs.SpanSetup).End()
	sv, err := mhd.NewSolver(cfg.Spec(), *cfg.Params, *cfg.IC)
	if err != nil {
		return nil, err
	}
	sim := &Simulation{Cfg: cfg, Solver: sv, rr: rr}
	if cfg.Workers > 1 {
		sim.pool = par.NewPool(cfg.Workers)
		sv.SetPool(sim.pool)
		sim.pool.SetGauge(rr.PoolGauge())
	}
	sim.history = append(sim.history, sv.Diagnose())
	return sim, nil
}

// Close releases the worker pool, if any, and closes the observability
// window. Safe to call on every Simulation, once or more.
func (s *Simulation) Close() {
	s.pool.Close()
	s.rr.Close()
}

// Step advances n time steps with the automatically estimated stable
// time step, recording diagnostics after the batch.
func (s *Simulation) Step(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: step count must be positive, got %d", n)
	}
	s.dt = s.Solver.EstimateDT(s.Cfg.SafetyFactor)
	for i := 0; i < n; i++ {
		s.rr.SetStep(s.Solver.Step)
		sp := s.rr.Begin(obs.SpanStep)
		s.Solver.Advance(s.dt)
		sp.End()
		s.rr.SetGauge("dt", s.dt)
	}
	if err := s.Solver.CheckFinite(); err != nil {
		return err
	}
	dg := s.rr.Begin(obs.SpanDiagnose)
	d := s.Solver.Diagnose()
	dg.End()
	s.history = append(s.history, d)
	return nil
}

// Time returns the simulated time.
func (s *Simulation) Time() float64 { return s.Solver.Time }

// Diagnostics returns the latest recorded global diagnostics.
func (s *Simulation) Diagnostics() mhd.Diagnostics {
	return s.history[len(s.history)-1]
}

// History returns all recorded diagnostics, one entry per Step call plus
// the initial state.
func (s *Simulation) History() []mhd.Diagnostics { return s.history }

// Sampler returns a point sampler over the current state.
func (s *Simulation) Sampler() *viz.Sampler { return viz.NewSampler(s.Solver) }

// WriteEquatorialPPM renders an equatorial slice of the quantity to w.
func (s *Simulation) WriteEquatorialPPM(w io.Writer, q viz.Quantity, n int) error {
	im := viz.EquatorialSlice(s.Sampler(), q, n)
	return viz.WritePPM(w, im)
}

// OverlapDisagreement reports the relative "double solution" difference
// between the panels in the overlap region.
func (s *Simulation) OverlapDisagreement() float64 {
	return mhd.OverlapDisagreement(s.Solver)
}

// WriteCheckpoint serializes the full state for bit-exact restart.
func (s *Simulation) WriteCheckpoint(w io.Writer) error {
	return snapshot.WriteCheckpoint(w, s.Solver)
}

// Restore rebuilds a Simulation from a checkpoint stream.
func Restore(r io.Reader) (*Simulation, error) {
	sv, err := snapshot.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	sim := &Simulation{
		Cfg: Config{
			Nr: sv.Spec.Nr, Nt: sv.Spec.Nt, RI: sv.Spec.RI, RO: sv.Spec.RO,
			Params: &sv.Prm, IC: &sv.IC, SafetyFactor: 0.3,
		},
		Solver: sv,
	}
	sim.history = append(sim.history, sv.Diagnose())
	return sim, nil
}

// ExportViz builds the section-V visualization product (Cartesian B, v,
// omega and T, single precision, optionally subsampled).
func (s *Simulation) ExportViz(w io.Writer, subsample int) error {
	ex, err := snapshot.BuildVizExport(s.Solver, subsample)
	if err != nil {
		return err
	}
	return snapshot.WriteVizExport(w, ex)
}

// RunRanks runs body on every rank of layout's world under rc, each
// rank starting from cfg's initial condition. It is the rank prologue
// and epilogue of every decomposed driver: open the rank's track on
// rc.Obs, build the decomposed rank inside a setup span (a construction
// error aborts the world, so no peer is left blocked), wire the recorder
// and plane's publish slot, and close rank and track when body returns.
// cfg must have its defaults applied.
func RunRanks(cfg Config, layout *decomp.Layout, rc mpi.RunConfig, plane *telemetry.Plane, body func(w *mpi.Comm, r *decomp.Rank, rr *obs.RankRec)) error {
	return RunRanksFrom(cfg, layout, rc, plane, nil, body)
}

// RunRanksFrom is RunRanks for a world that continues a committed
// state: the ranks are built blank — no initial condition, no initial
// constraint exchange — and state is scattered into them before body
// runs. state is called on rank 0 only, with the world's membership
// epoch, so an elastic world re-entering after a rank replacement can
// reload instead of reusing what epoch 0 was handed; its error aborts
// the world. (A nil state is RunRanks.)
func RunRanksFrom(cfg Config, layout *decomp.Layout, rc mpi.RunConfig, plane *telemetry.Plane, state func(epoch int) (*snapshot.Interior, error), body func(w *mpi.Comm, r *decomp.Rank, rr *obs.RankRec)) error {
	return mpi.RunWith(layout.NProcs, rc, func(w *mpi.Comm) {
		rr := rc.Obs.RankFor(w.Rank())
		rr.Open()
		defer rr.Close()
		sp := rr.Begin(obs.SpanSetup)
		var r *decomp.Rank
		var err error
		if state == nil {
			r, err = decomp.NewRankWorkers(w, layout, *cfg.Params, *cfg.IC, cfg.Workers)
		} else {
			r, err = decomp.NewBlankRank(w, layout, *cfg.Params, cfg.Workers)
		}
		if err != nil {
			w.Abort(err)
		}
		defer r.Close()
		r.SetObs(rr)
		r.SetTelemetry(plane.Rank(w.Rank()))
		sp.End()
		if state != nil {
			var in *snapshot.Interior
			if w.Rank() == 0 {
				if in, err = state(w.Epoch()); err != nil {
					w.Abort(err)
				}
			}
			if err := r.ScatterInterior(in); err != nil {
				w.Abort(err)
			}
		}
		body(w, r, rr)
	})
}

// RunParallel executes the same simulation decomposed over nProcs
// goroutine ranks (2 panels x 2-D process grid, exactly the paper's
// parallelization) for the given number of steps, and returns the
// diagnostics recorded every recordEvery steps by rank 0. A fixed dt <= 0
// selects the automatic estimate.
func RunParallel(cfg Config, nProcs, steps, recordEvery int, dt float64) ([]mhd.Diagnostics, error) {
	cfg = cfg.withDefaults()
	if recordEvery <= 0 {
		recordEvery = steps
	}
	layout, err := decomp.NewLayout(cfg.Spec(), nProcs)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var out []mhd.Diagnostics
	err = RunRanks(cfg, layout, mpi.RunConfig{Obs: cfg.Obs}, cfg.Telemetry, func(w *mpi.Comm, r *decomp.Rank, _ *obs.RankRec) {
		step := dt
		if step <= 0 {
			step = r.EstimateDT(cfg.SafetyFactor)
		}
		for n := 1; n <= steps; n++ {
			r.Advance(step)
			if n%recordEvery == 0 || n == steps {
				d := r.Diagnose()
				if w.Rank() == 0 {
					mu.Lock()
					out = append(out, d)
					mu.Unlock()
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunParallelWithCheckpoint runs the decomposed simulation like
// RunParallel and, at the end, gathers the global state on rank 0 and
// writes a checkpoint to w — the persistence path of a decomposed
// campaign (its counterpart, RunRanksFrom, restarts one).
func RunParallelWithCheckpoint(cfg Config, nProcs, steps int, dt float64, w io.Writer) ([]mhd.Diagnostics, error) {
	return RunParallelCheckpointWith(cfg, mpi.RunConfig{}, nProcs, steps, dt, w)
}

// RunParallelCheckpointWith is RunParallelWithCheckpoint under an
// explicit mpi.RunConfig — deadline, fault plan, reliable transport,
// heartbeat detection, elastic rank replacement — so fault-injection
// harnesses (resilience campaigns, the chaos fuzzer) can drive a full
// solver run through the self-healing runtime. The checkpoint is
// serialized in memory per epoch and flushed to w only after the world
// has shut down: under rc.Elastic a rank replacement can fence an
// epoch that had already gathered, and the re-entered world must not
// leave a doubled or half-written checkpoint on the writer.
func RunParallelCheckpointWith(cfg Config, rc mpi.RunConfig, nProcs, steps int, dt float64, w io.Writer) ([]mhd.Diagnostics, error) {
	cfg = cfg.withDefaults()
	// One effective recorder: the run config's (a campaign's shared
	// recorder) wins; the core config's is the fallback.
	if rc.Obs == nil {
		rc.Obs = cfg.Obs
	}
	layout, err := decomp.NewLayout(cfg.Spec(), nProcs)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var out []mhd.Diagnostics
	var ckpt []byte
	err = RunRanks(cfg, layout, rc, cfg.Telemetry, func(wc *mpi.Comm, r *decomp.Rank, rr *obs.RankRec) {
		step := dt
		if step <= 0 {
			step = r.EstimateDT(cfg.SafetyFactor)
		}
		for n := 0; n < steps; n++ {
			r.Advance(step)
		}
		d := r.Diagnose()
		if in := r.GatherInterior(nil); in != nil {
			cw := rr.Begin(obs.SpanCkptWrite)
			data, werr := in.Bytes()
			cw.End()
			if werr != nil {
				wc.Abort(werr)
			}
			// Overwrite, don't append: a fenced epoch's gather is
			// superseded by the final epoch's.
			mu.Lock()
			defer mu.Unlock()
			out = []mhd.Diagnostics{d}
			ckpt = data
		}
	})
	if err != nil {
		return nil, err
	}
	if w != nil && len(ckpt) > 0 {
		if _, err := w.Write(ckpt); err != nil {
			return nil, err
		}
	}
	return out, nil
}
