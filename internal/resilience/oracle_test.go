package resilience

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// runSerialSegment is the relaunch-per-segment NProcs-1 oracle: a fresh
// solver restored from the segment's start state for every segment.
func runSerialSegment(src *snapshot.Interior, dt float64, steps int) (*snapshot.Interior, mhd.Diagnostics, error) {
	sv, err := src.Solver()
	if err != nil {
		return nil, mhd.Diagnostics{}, err
	}
	for i := 0; i < steps; i++ {
		sv.Advance(dt)
	}
	return snapshot.InteriorOf(sv), sv.Diagnose(), nil
}

// runSegment is the relaunch-per-segment decomposed oracle: a world of
// blank ranks launched for one segment, src scattered into it, steps
// advanced at dt, the result gathered into a new Interior. Re-entries at
// a fenced epoch restore through reload, and rank 0's gathered result is
// overwritten so the final epoch wins.
func runSegment(ccfg core.Config, layout *decomp.Layout, rc mpi.RunConfig, plane *telemetry.Plane, src *snapshot.Interior, dt float64, steps int, reload func() (*snapshot.Interior, error)) (*snapshot.Interior, mhd.Diagnostics, error) {
	var (
		mu   sync.Mutex
		next *snapshot.Interior
		diag mhd.Diagnostics
	)
	state := func(epoch int) (*snapshot.Interior, error) {
		if epoch == 0 {
			return src, nil
		}
		return reload()
	}
	err := core.RunRanksFrom(ccfg, layout, rc, plane, state, func(w *mpi.Comm, r *decomp.Rank, _ *obs.RankRec) {
		for i := 0; i < steps; i++ {
			r.Advance(dt)
		}
		d := r.Diagnose()
		if in := r.GatherInterior(nil); in != nil {
			mu.Lock()
			next, diag = in, d
			mu.Unlock()
		}
	})
	if err != nil {
		return nil, mhd.Diagnostics{}, err
	}
	return next, diag, nil
}

// oracleExec drives the campaign through the oracles above: every
// segment relaunches from the state the order names, or from the last
// gathered one.
type oracleExec struct {
	cfg    Config
	layout *decomp.Layout // nil at NProcs 1
	rc     mpi.RunConfig
	last   *snapshot.Interior
}

func (e *oracleExec) run(o order) (mhd.Diagnostics, float64, error) {
	src := o.state
	if src == nil {
		src = e.last
	}
	// The reference dt: a serial solver rebuilt from the segment's start
	// state estimates it, as the campaign loop did before executors
	// estimated from the state they step.
	dt := o.dt
	if dt == 0 {
		sv, err := src.Solver()
		if err != nil {
			return mhd.Diagnostics{}, 0, err
		}
		dt = sv.EstimateDT(e.cfg.Core.SafetyFactor)
		for i := 0; i < o.halvings; i++ {
			dt *= retryBackoff
		}
	}
	var (
		next *snapshot.Interior
		diag mhd.Diagnostics
		err  error
	)
	if e.layout == nil {
		next, diag, err = runSerialSegment(src, dt, o.steps)
	} else {
		next, diag, err = runSegment(e.cfg.Core, e.layout, e.rc, e.cfg.Telemetry, src, dt, o.steps, o.reload)
	}
	if err != nil {
		e.last = nil
		return diag, dt, err
	}
	o.into.Spec, o.into.Prm, o.into.Time, o.into.Step = next.Spec, next.Prm, next.Time, next.Step
	for pi := range next.Fields {
		for si := range next.Fields[pi] {
			copy(o.into.Fields[pi][si], next.Fields[pi][si])
		}
	}
	e.last = o.into
	return diag, dt, nil
}

// withExecutor runs fn with newExecutor replaced by mk.
func withExecutor(t *testing.T, mk func(Config, mpi.RunConfig) (executor, error), fn func()) {
	t.Helper()
	prod := newExecutor
	newExecutor = mk
	defer func() { newExecutor = prod }()
	fn()
}

// ledgerCheckpoints returns the checkpoint artifact (name, hash) of
// every commit in the store's ledger, in order.
func ledgerCheckpoints(t *testing.T, st *store.Store) []store.Artifact {
	t.Helper()
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var out []store.Artifact
	for _, m := range entries {
		for _, a := range m.Artifacts {
			if a.Role == "checkpoint" {
				out = append(out, a)
			}
		}
	}
	return out
}

// TestPersistentWorldMatchesRelaunchOracle is the bit-identity gate of
// the persistent world: one store-backed campaign, run through the
// production executor (one world per call, a serial solver at NProcs 1)
// and through the relaunch-per-segment oracle, commits the same
// checkpoint hashes in the same order at world sizes 1, 2 and 4 —
// fault-free, across a blow-up rolled back into the kept world, and
// across a rank kill that ends the world and relaunches it.
func TestPersistentWorldMatchesRelaunchOracle(t *testing.T) {
	type scenario struct {
		name string
		// setup adds the fault to a fresh campaign config.
		setup func(cfg *Config)
		// retries and launches are the production run's expected
		// rollbacks and world launches (NProcs > 1).
		retries, launches int
		minProcs          int
	}
	scenarios := []scenario{
		{name: "clean", setup: func(*Config) {}, launches: 1, minProcs: 1},
		{name: "blowup", setup: func(cfg *Config) {
			cfg.Perturb = func(seg, attempt int, in *snapshot.Interior) {
				if seg == 1 && attempt == 0 {
					data := in.Fields[0][0]
					data[len(data)/2] = math.NaN()
				}
			}
		}, retries: 1, launches: 1, minProcs: 1},
		{name: "kill", setup: func(cfg *Config) {
			cfg.Faults = mpi.NewFaultPlan().Kill(1, 3)
		}, retries: 1, launches: 2, minProcs: 2},
	}
	for _, sc := range scenarios {
		for _, nProcs := range []int{1, 2, 4} {
			if nProcs < sc.minProcs {
				continue
			}
			campaign := func(mk func(Config, mpi.RunConfig) (executor, error)) (*Result, []store.Artifact) {
				cfg, st, _ := storeConfig(t, 6, 2)
				cfg.NProcs = nProcs
				sc.setup(&cfg)
				var res *Result
				withExecutor(t, mk, func() {
					var err error
					if res, err = RunCampaign(cfg); err != nil {
						t.Fatalf("%s, %d ranks: %v", sc.name, nProcs, err)
					}
				})
				return res, ledgerCheckpoints(t, st)
			}
			// Production, counting the runs that find no live world.
			launches := 0
			prod := newExecutor
			got, gotLedger := campaign(func(cfg Config, rc mpi.RunConfig) (executor, error) {
				if cfg.NProcs == 1 {
					return prod(cfg, rc)
				}
				layout, err := decomp.NewLayout(cfg.Core.Spec(), cfg.NProcs)
				w := &worldExec{cfg: cfg, layout: layout, rc: rc}
				run := func(o order) (mhd.Diagnostics, float64, error) {
					if !w.live {
						launches++
					}
					return w.run(o)
				}
				return executor{run, w.close}, err
			})
			want, wantLedger := campaign(func(cfg Config, rc mpi.RunConfig) (executor, error) {
				oracle := &oracleExec{cfg: cfg, rc: rc}
				ex := executor{oracle.run, func() error { return nil }}
				if cfg.NProcs == 1 {
					return ex, nil
				}
				var err error
				oracle.layout, err = decomp.NewLayout(cfg.Core.Spec(), cfg.NProcs)
				return ex, err
			})
			if len(gotLedger) != len(wantLedger) || len(gotLedger) != 4 {
				t.Fatalf("%s, %d ranks: %d ledger checkpoints, oracle %d, want 4", sc.name, nProcs, len(gotLedger), len(wantLedger))
			}
			for i := range gotLedger {
				if gotLedger[i].Name != wantLedger[i].Name || gotLedger[i].Hash != wantLedger[i].Hash {
					t.Errorf("%s, %d ranks: commit %d is %s %v, oracle %s %v", sc.name, nProcs, i,
						gotLedger[i].Name, gotLedger[i].Hash, wantLedger[i].Name, wantLedger[i].Hash)
				}
			}
			if got.Retries != sc.retries || want.Retries != sc.retries {
				t.Errorf("%s, %d ranks: %d retries, oracle %d, want %d", sc.name, nProcs, got.Retries, want.Retries, sc.retries)
			}
			if nProcs > 1 && launches != sc.launches {
				t.Errorf("%s, %d ranks: %d world launches, want %d", sc.name, nProcs, launches, sc.launches)
			}
		}
	}
}
