package resilience

import (
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// order is one segment for the executor: scatter state if non-nil,
// advance steps, gather into into. dt is the schedule's step; <= 0 asks
// the executor to estimate it from the state it is about to step,
// halved once per earlier blow-up of the segment. reload restores the
// segment's checkpoint for a fenced epoch; seq numbers orders, stop
// ends a world.
type order struct {
	dt                   float64
	steps, halvings, seq int
	state, into          *snapshot.Interior
	reload               func() (*snapshot.Interior, error)
	stop                 bool
}

// stepDT is the dt the order runs: the schedule's, or estimate's at the
// campaign's safety factor after the blow-up halvings.
func (o order) stepDT(estimate func(safety float64) float64, safety float64) float64 {
	if o.dt > 0 {
		return o.dt
	}
	dt := estimate(safety)
	for i := 0; i < o.halvings; i++ {
		dt *= retryBackoff
	}
	return dt
}

// executor is a campaign's live solver; run returns the segment's
// diagnostics and the dt it ran, and after a failed run the next order
// must carry a state. Funcs, not an interface: a *worldExec in an
// interface makes the linker keep every method Config reaches (1.2 MB).
type executor struct {
	run   func(o order) (mhd.Diagnostics, float64, error)
	close func() error
}

// newExecutor is a variable so a test can swap in the relaunch oracle.
var newExecutor = func(cfg Config, rc mpi.RunConfig) (executor, error) {
	if cfg.NProcs == 1 {
		e := &serialExec{safety: cfg.Core.SafetyFactor}
		return executor{e.run, func() error { return nil }}, nil
	}
	layout, err := decomp.NewLayout(cfg.Core.Spec(), cfg.NProcs)
	e := &worldExec{cfg: cfg, layout: layout, rc: rc}
	return executor{e.run, e.close}, err
}

// serialExec keeps one solver, restored through the interior form as a
// world restores, so it commits the checkpoints any world size does.
type serialExec struct {
	sv     *mhd.Solver
	safety float64
}

func (e *serialExec) run(o order) (mhd.Diagnostics, float64, error) {
	if o.state != nil {
		var err error
		if e.sv, err = o.state.Solver(); err != nil {
			return mhd.Diagnostics{}, 0, err
		}
	}
	dt := o.stepDT(e.sv.EstimateDT, e.safety)
	for i := 0; i < o.steps; i++ {
		e.sv.Advance(dt)
	}
	o.into.Capture(e.sv)
	return e.sv.Diagnose(), dt, nil
}

// worldExec is one decomposed world, kept until a runtime failure or
// close ends it; between orders its ranks wait outside the runtime.
type worldExec struct {
	cfg    Config
	layout *decomp.Layout
	rc     mpi.RunConfig
	live   bool

	// ord is the in-flight order: not in a channel, so a rank re-entering
	// a fenced epoch reads the order the dead epoch already took. dt is
	// the step rank 0 chose for it (0 until chosen).
	mu   sync.Mutex
	cond *sync.Cond
	ord  order
	dt   float64
	// out carries rank 0's diagnostics per order, done the world's exit.
	out  chan mhd.Diagnostics
	done chan error
}

func (e *worldExec) run(o order) (mhd.Diagnostics, float64, error) {
	if e.live {
		e.post(o)
	} else {
		e.launch(o)
	}
	select {
	case d := <-e.out:
		return d, e.ranDT(), nil
	case err := <-e.done:
		e.live = false
		if err == nil {
			err = errors.New("resilience: world ended before finishing its segment")
		}
		return mhd.Diagnostics{}, e.ranDT(), err
	}
}

func (e *worldExec) ranDT() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dt
}

func (e *worldExec) close() error {
	if !e.live {
		return nil
	}
	e.post(order{stop: true})
	e.live = false
	return <-e.done
}

func (e *worldExec) post(o order) {
	e.mu.Lock()
	o.seq = e.ord.seq + 1
	e.ord, e.dt = o, 0
	e.mu.Unlock()
	e.cond.Broadcast()
}

// await returns the in-flight order once its seq is not after.
func (e *worldExec) await(after int) order {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.ord.seq == after {
		e.cond.Wait()
	}
	return e.ord
}

// launch starts a world on its first order; a rank re-entered at a fenced
// epoch reloads and reruns the in-flight order. The barrier holds every
// rank in the runtime until the gather ends, so any failure reaches all.
func (e *worldExec) launch(first order) {
	e.cond = sync.NewCond(&e.mu)
	e.ord, e.dt, e.live = first, 0, true
	e.out, e.done = make(chan mhd.Diagnostics, 1), make(chan error, 1)
	state := func(epoch int) (*snapshot.Interior, error) {
		o := e.await(-1)
		if epoch > 0 {
			return o.reload()
		}
		return o.state, nil
	}
	go func() {
		e.done <- core.RunRanksFrom(e.cfg.Core, e.layout, e.rc, e.cfg.Telemetry, state, func(w *mpi.Comm, r *decomp.Rank, _ *obs.RankRec) {
			for o := e.await(-1); !o.stop; {
				dt := o.stepDT(r.EstimateDT, e.cfg.Core.SafetyFactor)
				if w.Rank() == 0 {
					e.mu.Lock()
					e.dt = dt
					e.mu.Unlock()
				}
				for i := 0; i < o.steps; i++ {
					r.Advance(dt)
				}
				d := r.Diagnose()
				r.GatherInterior(o.into)
				w.Barrier()
				if w.Rank() == 0 {
					e.out <- d
				}
				if o = e.await(o.seq); o.state != nil {
					var in *snapshot.Interior
					if w.Rank() == 0 {
						in = o.state
					}
					if err := r.ScatterInterior(in); err != nil {
						w.Abort(err)
					}
				}
			}
		})
	}()
}
