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
// advance steps at dt, gather into into. reload restores the segment's
// checkpoint for a fenced epoch; seq numbers orders, stop ends a world.
type order struct {
	dt          float64
	steps, seq  int
	state, into *snapshot.Interior
	reload      func() (*snapshot.Interior, error)
	stop        bool
}

// executor is a campaign's live solver; after a failed run the next
// order must carry a state. Funcs, not an interface: a *worldExec in an
// interface makes the linker keep every method Config reaches (1.2 MB).
type executor struct {
	run   func(o order) (mhd.Diagnostics, error)
	close func() error
}

// newExecutor is a variable so a test can swap in the relaunch oracle.
var newExecutor = func(cfg Config, rc mpi.RunConfig) (executor, error) {
	if cfg.NProcs == 1 {
		return executor{(&serialExec{}).run, func() error { return nil }}, nil
	}
	layout, err := decomp.NewLayout(cfg.Core.Spec(), cfg.NProcs)
	e := &worldExec{cfg: cfg, layout: layout, rc: rc}
	return executor{e.run, e.close}, err
}

// serialExec keeps one solver, restored through the interior form as a
// world restores, so it commits the checkpoints any world size does.
type serialExec struct{ sv *mhd.Solver }

func (e *serialExec) run(o order) (mhd.Diagnostics, error) {
	if o.state != nil {
		var err error
		if e.sv, err = o.state.Solver(); err != nil {
			return mhd.Diagnostics{}, err
		}
	}
	for i := 0; i < o.steps; i++ {
		e.sv.Advance(o.dt)
	}
	o.into.Capture(e.sv)
	return e.sv.Diagnose(), nil
}

// worldExec is one decomposed world, kept until a runtime failure or
// close ends it; between orders its ranks wait outside the runtime.
type worldExec struct {
	cfg    Config
	layout *decomp.Layout
	rc     mpi.RunConfig
	live   bool

	// ord is the in-flight order: not in a channel, so a rank re-entering
	// a fenced epoch reads the order the dead epoch already took.
	mu   sync.Mutex
	cond *sync.Cond
	ord  order
	// out carries rank 0's diagnostics per order, done the world's exit.
	out  chan mhd.Diagnostics
	done chan error
}

func (e *worldExec) run(o order) (mhd.Diagnostics, error) {
	if e.live {
		e.post(o)
	} else {
		e.launch(o)
	}
	select {
	case d := <-e.out:
		return d, nil
	case err := <-e.done:
		e.live = false
		if err == nil {
			err = errors.New("resilience: world ended before finishing its segment")
		}
		return mhd.Diagnostics{}, err
	}
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
	e.ord = o
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
	e.ord, e.live = first, true
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
				for i := 0; i < o.steps; i++ {
					r.Advance(o.dt)
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
