package decomp

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
)

// rkBuffers returns a panel's Runge-Kutta buffers u0 and acc, which mhd
// keeps unexported, for the oracle comparison below.
func rkBuffers(pl *mhd.Panel) (u0, acc *mhd.State) {
	v := reflect.ValueOf(pl).Elem()
	at := func(name string) *mhd.State {
		return (*mhd.State)(unsafe.Pointer(v.FieldByName(name).UnsafeAddr()))
	}
	return at("u0"), at("acc")
}

// digest folds every bit of each variable of the states, halos
// included, into one value per variable.
func digest(sts ...*mhd.State) []uint64 {
	var out []uint64
	for _, st := range sts {
		for _, f := range st.Scalars() {
			h := uint64(14695981039346656037)
			for _, x := range f.Data {
				h = (h ^ math.Float64bits(x)) * 1099511628211
			}
			out = append(out, h)
		}
	}
	return out
}

// combineOracle is a rank's stage loop before the fold moved into the
// sweep: the sequential schedule's right-hand side into a full-field k
// through rhs (mhd.FinishRHS, or mhd.FinishRHSReference for a
// full-field j), then the combine over the full padded arrays into the
// oracle's own u0 and acc.
type combineOracle struct {
	u0, k, acc mhd.State
	rhs        func(pl *mhd.Panel, prm mhd.Params, u, out *mhd.State, sync func(fs ...*field.Scalar))
}

func newCombineOracle(p *grid.Patch) *combineOracle {
	return &combineOracle{mhd.NewState(p.Shape), mhd.NewState(p.Shape), mhd.NewState(p.Shape), mhd.FinishRHS}
}

func (o *combineOracle) advance(r *Rank, dt float64, constrain func()) {
	stages := [...]struct{ c, a float64 }{{0.5, 1}, {0.5, 2}, {1, 2}, {0, 1}}
	pl := r.PL
	for si, stg := range stages {
		first, last := si == 0, si == len(stages)-1
		c := stg.c * dt
		if last {
			c = dt / 6
		}
		mhd.ComputeB(pl, &pl.U)
		r.exchangeHalos([]*field.Scalar{pl.B.R, pl.B.T, pl.B.P}, tagHaloBBase)
		o.rhs(pl, r.Prm, &pl.U, &o.k, func(fs ...*field.Scalar) {
			r.exchangeHalos(fs, tagHaloAuxBase)
		})
		us, u0s, ks, accs := pl.U.Scalars(), o.u0.Scalars(), o.k.Scalars(), o.acc.Scalars()
		for v := range us {
			u, u0, k, acc := us[v].Data, u0s[v].Data, ks[v].Data, accs[v].Data
			for i := range u {
				switch {
				case first:
					x := u[i]
					u0[i] = x
					acc[i] = 0*x + 0*x + stg.a*k[i]
					u[i] = x + c*k[i]
				case last:
					u[i] = u0[i] + c*(acc[i]+stg.a*k[i])
				default:
					acc[i] += stg.a * k[i]
					u[i] = u0[i] + c*k[i]
				}
			}
		}
		constrain()
	}
}

// TestStageMatchesCombineWorlds: on 2- and 4-rank worlds (the 4-rank
// blocks have φ seams, whose halo slices the sweep reads and folds
// last), with the overlapped and the sequential schedule and with one
// and two workers per rank, every rank's U, u0 and acc, halos included,
// equal the combine oracle's bit for bit at every constraint point of
// two steps.
func TestStageMatchesCombineWorlds(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps = 2
	const dt = 2e-3
	for _, nProcs := range []int{2, 4} {
		want := stepWorld(t, s, nProcs, 1, mhd.Default(), mhd.DefaultIC(), steps, func(r *Rank, record func(u0, acc *mhd.State)) {
			o := newCombineOracle(r.PL.Patch)
			o.advance(r, dt, func() {
				record(&o.u0, &o.acc)
				r.applyConstraints()
			})
		})
		for _, overlap := range []bool{true, false} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("world%d/overlap=%v/workers%d", nProcs, overlap, workers), func(t *testing.T) {
					got := stepWorld(t, s, nProcs, workers, mhd.Default(), mhd.DefaultIC(), steps, rankStep(dt, overlap))
					sameDigests(t, got, want, 4*steps)
				})
			}
		}
	}
}

// TestWorldMatchesFullVTJ: on a 4-rank world (two blocks per panel)
// under both magnetic walls, the ranks' stage loop — V = F/ρ, T = P/ρ
// and the current density evaluated a φ-slice at a time inside each
// rank's div v pass and stage sweep, behind the overlapped B and div-v
// exchanges — leaves every rank's U, u0 and acc, halos included,
// bitwise equal at every constraint point of two steps to the combine
// oracle evaluating the right-hand side through
// mhd.FinishRHSReference, whose V, T and j = curl B are full fields.
func TestWorldMatchesFullVTJ(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps, dt = 2, 2e-3
	for _, bc := range []mhd.MagneticBC{mhd.BCConfined, mhd.BCPseudoVacuum} {
		t.Run(fmt.Sprintf("bc%d", bc), func(t *testing.T) {
			prm := mhd.Default()
			prm.MagBC = bc
			ic := mhd.DefaultIC()
			ic.SeedBAmp = 0.02
			want := stepWorld(t, s, 4, 1, prm, ic, steps, func(r *Rank, record func(u0, acc *mhd.State)) {
				o := newCombineOracle(r.PL.Patch)
				o.rhs = mhd.FinishRHSReference
				o.advance(r, dt, func() {
					record(&o.u0, &o.acc)
					r.applyConstraints()
				})
			})
			got := stepWorld(t, s, 4, 1, prm, ic, steps, rankStep(dt, true))
			sameDigests(t, got, want, 4*steps)
		})
	}
}

// TestRanksKeepVTNil: stepping and diagnosing a 4-rank world never
// allocate a rank's full fields V and T, which only mhd.ComputeVTB
// fills.
func TestRanksKeepVTNil(t *testing.T) {
	stepWorld(t, grid.NewSpec(9, 13), 4, 1, mhd.Default(), mhd.DefaultIC(), 2, func(r *Rank, _ func(u0, acc *mhd.State)) {
		r.Advance(2e-3)
		r.Diagnose()
		if r.PL.V != nil || r.PL.T != nil {
			t.Errorf("rank %d: V or T allocated by Advance or Diagnose", r.World.Rank())
		}
	})
}

// rankStep is Rank.Advance's stage loop under the given schedule, with
// every constraint point recorded.
func rankStep(dt float64, overlap bool) func(r *Rank, record func(u0, acc *mhd.State)) {
	return func(r *Rank, record func(u0, acc *mhd.State)) {
		r.SetOverlap(overlap)
		mhd.AdvanceRK4(dt, []*mhd.Panel{r.PL}, func(_ *mhd.Panel, st mhd.Stage) {
			r.rhs(st)
		}, func() {
			record(rkBuffers(r.PL))
			r.applyConstraints()
		})
	}
}

// stepWorld runs step steps times on every rank of a fresh nProcs-rank
// world of spec s and returns each rank's digests, one per recorded
// point.
func stepWorld(t *testing.T, s grid.Spec, nProcs, workers int, prm mhd.Params, ic mhd.InitialConditions, steps int, step func(r *Rank, record func(u0, acc *mhd.State))) [][][]uint64 {
	t.Helper()
	l, err := NewLayout(s, nProcs)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([][][]uint64, nProcs)
	err = mpi.RunWith(nProcs, mpi.RunConfig{Deadline: 60 * time.Second}, func(w *mpi.Comm) {
		r, err := NewRankWorkers(w, l, prm, ic, workers)
		if err != nil {
			w.Abort(err)
			return
		}
		defer r.Close()
		for n := 0; n < steps; n++ {
			step(r, func(u0, acc *mhd.State) {
				digests[w.Rank()] = append(digests[w.Rank()], digest(&r.PL.U, u0, acc))
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return digests
}

// sameDigests fails at the first rank and recorded point where got and
// the oracle's want differ; each rank must have recorded points of
// them.
func sameDigests(t *testing.T, got, want [][][]uint64, points int) {
	t.Helper()
	for rank := range want {
		if len(got[rank]) != len(want[rank]) || len(want[rank]) != points {
			t.Fatalf("rank %d: %d recorded points, oracle %d", rank, len(got[rank]), len(want[rank]))
		}
		for c := range want[rank] {
			for i := range want[rank][c] {
				if got[rank][c][i] != want[rank][c][i] {
					t.Fatalf("rank %d, point %d: %s var %d differs from the oracle",
						rank, c, [...]string{"U", "u0", "acc"}[i/8], i%8)
				}
			}
		}
	}
}
