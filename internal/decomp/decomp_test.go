package decomp

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

func TestPartition(t *testing.T) {
	b := Partition(13, 4)
	want := []int{0, 4, 7, 10, 13}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v", b)
		}
	}
	// Balanced within 1.
	for i := 0; i+1 < len(b); i++ {
		n := b[i+1] - b[i]
		if n < 13/4 || n > 13/4+1 {
			t.Fatalf("unbalanced block %d: %d", i, n)
		}
	}
}

func TestPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Partition(3, 5)
}

func TestBlockOf(t *testing.T) {
	b := Partition(10, 3)
	for i := 0; i < 10; i++ {
		blk := BlockOf(b, i)
		if i < b[blk] || i >= b[blk+1] {
			t.Fatalf("item %d assigned to block %d with bounds %v", i, blk, b)
		}
	}
}

func TestChooseDims(t *testing.T) {
	s := grid.NewSpec(9, 17) // Nt=17, Np=49
	for _, n := range []int{1, 2, 4, 6, 8, 12} {
		pt, pp, err := ChooseDims(n, s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if pt*pp != n {
			t.Fatalf("n=%d: %dx%d", n, pt, pp)
		}
		// The phi extent is about 3x the theta extent, so pp >= pt.
		if pp < pt {
			t.Errorf("n=%d: chose %dx%d, expected wider phi decomposition", n, pt, pp)
		}
	}
	if _, _, err := ChooseDims(10000, s); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestNewLayoutValidation(t *testing.T) {
	s := grid.NewSpec(9, 17)
	if _, err := NewLayout(s, 3); err == nil {
		t.Error("odd process count accepted")
	}
	if _, err := NewLayout(s, 0); err == nil {
		t.Error("zero process count accepted")
	}
	if _, err := NewLayout(grid.Spec{Nr: 1, Nt: 1, Np: 1, RI: 0.4, RO: 1}, 2); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestLayoutOwnership(t *testing.T) {
	s := grid.NewSpec(9, 17)
	l, err := NewLayout(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Every (panel, node) maps to a rank whose subpatch contains it.
	for _, p := range []grid.Panel{grid.Yin, grid.Yang} {
		for j := 0; j < s.Nt; j += 3 {
			for k := 0; k < s.Np; k += 5 {
				w := l.OwnerOf(p, j, k)
				if l.PanelOf(w) != p {
					t.Fatalf("owner %d of (%v,%d,%d) in wrong panel", w, p, j, k)
				}
				patch := l.SubPatch(w, 1)
				if j < patch.JOff || j >= patch.JOff+patch.Nt ||
					k < patch.KOff || k >= patch.KOff+patch.Np {
					t.Fatalf("node (%d,%d) outside owner %d block", j, k, w)
				}
			}
		}
	}
}

func TestLayoutBlocksTile(t *testing.T) {
	s := grid.NewSpec(9, 17)
	l, err := NewLayout(s, 12)
	if err != nil {
		t.Fatal(err)
	}
	count := make(map[[2]int]int)
	for bt := 0; bt < l.PT; bt++ {
		for bp := 0; bp < l.PP; bp++ {
			jlo, jhi, klo, khi := l.BlockRange(bt, bp)
			for j := jlo; j < jhi; j++ {
				for k := klo; k < khi; k++ {
					count[[2]int{j, k}]++
				}
			}
		}
	}
	if len(count) != s.Nt*s.Np {
		t.Fatalf("blocks cover %d nodes, want %d", len(count), s.Nt*s.Np)
	}
	for n, c := range count {
		if c != 1 {
			t.Fatalf("node %v covered %d times", n, c)
		}
	}
}

// worldDeadline bounds how long a rank of a test world may stay blocked
// in one call: a lost halo message fails the test in seconds, with the
// blocked calls named, instead of wedging the package until its
// -timeout.
const worldDeadline = 10 * time.Second

// runWorld runs fn on an n-rank world under the worldDeadline watchdog.
// A test that counts allocations keeps mpi.Run: the watchdog's waiter
// records would show in its count.
func runWorld(n int, fn func(w *mpi.Comm)) error {
	return mpi.RunWith(n, mpi.RunConfig{Deadline: worldDeadline}, fn)
}

// runSerial advances the serial reference and returns it.
func runSerial(t *testing.T, s grid.Spec, steps int, dt float64) *mhd.Solver {
	t.Helper()
	sv, err := mhd.NewSolver(s, mhd.Default(), mhd.DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < steps; n++ {
		sv.Advance(dt)
	}
	return sv
}

// TestParallelMatchesSerial: the decomposed run reproduces the serial
// fields bit for bit, for both a pure panel split (2 ranks) and a full
// 2x2 decomposition per panel (8 ranks).
func TestParallelMatchesSerial(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps = 3
	const dt = 2e-3
	ref := runSerial(t, s, steps, dt)

	for _, nProcs := range []int{2, 8} {
		l, err := NewLayout(s, nProcs)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var mismatches int
		err = runWorld(nProcs, func(w *mpi.Comm) {
			r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
			if err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < steps; n++ {
				r.Advance(dt)
			}
			// Compare this rank's interior block against the serial panel.
			p := r.PL.Patch
			h := p.H
			refPanel := ref.Panels[r.Panel]
			local := r.PL.U.Scalars()
			global := refPanel.U.Scalars()
			bad := 0
			for vi := range local {
				for k := h; k < h+p.Np; k++ {
					for j := h; j < h+p.Nt; j++ {
						lrow := local[vi].Row(j, k)
						grow := global[vi].Row(j+p.JOff, k+p.KOff)
						for i := h; i < h+p.Nr; i++ {
							if lrow[i] != grow[i] {
								bad++
							}
						}
					}
				}
			}
			if bad > 0 {
				mu.Lock()
				mismatches += bad
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if mismatches > 0 {
			t.Errorf("nProcs=%d: %d values differ from serial", nProcs, mismatches)
		}
	}
}

// TestParallelDiagnostics: globally reduced diagnostics match the serial
// values up to reduction reordering.
func TestParallelDiagnostics(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps = 2
	const dt = 2e-3
	ref := runSerial(t, s, steps, dt)
	want := ref.Diagnose()

	l, err := NewLayout(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	checked := false
	err = runWorld(8, func(w *mpi.Comm) {
		r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
		if err != nil {
			t.Error(err)
			return
		}
		for n := 0; n < steps; n++ {
			r.Advance(dt)
		}
		d := r.Diagnose()
		if w.Rank() == 0 {
			mu.Lock()
			checked = true
			mu.Unlock()
			for _, c := range []struct {
				name       string
				got, wantV float64
			}{
				{"mass", d.Mass, want.Mass},
				{"kinetic", d.KineticE, want.KineticE},
				{"magnetic", d.MagneticE, want.MagneticE},
				{"internal", d.InternalE, want.InternalE},
				{"maxV", d.MaxV, want.MaxV},
				{"maxB", d.MaxB, want.MaxB},
			} {
				if math.Abs(c.got-c.wantV) > 1e-9*(1+math.Abs(c.wantV)) {
					t.Errorf("%s: parallel %v vs serial %v", c.name, c.got, c.wantV)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("rank 0 never compared")
	}
}

// TestParallelEstimateDT: at 2, 4 and 8 ranks every rank agrees on the
// reduced time step, and it has the serial estimate's bits — at the
// initial condition and after three steps. A campaign's executor
// estimates dt in whichever form it runs, so its committed trajectory
// rests on this equality.
func TestParallelEstimateDT(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps, dt = 3, 2e-3
	sv, err := mhd.NewSolver(s, mhd.Default(), mhd.DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	var want [2]float64
	want[0] = sv.EstimateDT(0.3)
	for i := 0; i < steps; i++ {
		sv.Advance(dt)
	}
	want[1] = sv.EstimateDT(0.3)

	for _, n := range []int{2, 4, 8} {
		l, err := NewLayout(s, n)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var vals [2]map[uint64]int
		vals[0], vals[1] = map[uint64]int{}, map[uint64]int{}
		err = runWorld(n, func(w *mpi.Comm) {
			r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
			if err != nil {
				t.Error(err)
				return
			}
			at0 := r.EstimateDT(0.3)
			for i := 0; i < steps; i++ {
				r.Advance(dt)
			}
			at3 := r.EstimateDT(0.3)
			mu.Lock()
			vals[0][math.Float64bits(at0)]++
			vals[1][math.Float64bits(at3)]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, when := range []string{"initial", "after 3 steps"} {
			if len(vals[i]) != 1 {
				t.Fatalf("%d ranks, %s: ranks disagree on dt: %v", n, when, vals[i])
			}
			for bits := range vals[i] {
				if bits != math.Float64bits(want[i]) {
					t.Errorf("%d ranks, %s: parallel dt %v, serial %v", n, when, math.Float64frombits(bits), want[i])
				}
			}
		}
	}
}

// TestGatherStateMatchesSerial: assembling the decomposed state on rank
// 0 reproduces the serial solver's patch nodes exactly, with the clock.
func TestGatherStateMatchesSerial(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps = 3
	const dt = 2e-3
	ref := runSerial(t, s, steps, dt)

	l, err := NewLayout(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var gathered *mhd.Solver
	err = runWorld(8, func(w *mpi.Comm) {
		r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
		if err != nil {
			t.Error(err)
			return
		}
		for n := 0; n < steps; n++ {
			r.Advance(dt)
		}
		sv, err := r.GatherState()
		if err != nil {
			t.Error(err)
			return
		}
		if w.Rank() == 0 {
			mu.Lock()
			gathered = sv
			mu.Unlock()
		} else if sv != nil {
			t.Error("non-root rank got a solver")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if gathered == nil {
		t.Fatal("no gathered state")
	}
	if gathered.Time != ref.Time || gathered.Step != ref.Step {
		t.Errorf("clock %v/%d vs %v/%d", gathered.Time, gathered.Step, ref.Time, ref.Step)
	}
	for pi := range ref.Panels {
		p := ref.Panels[pi].Patch
		h := p.H
		a := ref.Panels[pi].U.Scalars()
		b := gathered.Panels[pi].U.Scalars()
		for vi := range a {
			for k := h; k < h+p.Np; k++ {
				for j := h; j < h+p.Nt; j++ {
					ra := a[vi].Row(j, k)
					rb := b[vi].Row(j, k)
					for i := h; i < h+p.Nr; i++ {
						if ra[i] != rb[i] {
							t.Fatalf("gathered state differs: panel %d var %d (%d,%d,%d)", pi, vi, i, j, k)
						}
					}
				}
			}
		}
	}
	// The gathered solver continues identically to the serial one.
	gathered.Advance(dt)
	ref.Advance(dt)
	for pi := range ref.Panels {
		a := ref.Panels[pi].U.Rho
		b := gathered.Panels[pi].U.Rho
		p := ref.Panels[pi].Patch
		h := p.H
		for k := h; k < h+p.Np; k++ {
			for j := h; j < h+p.Nt; j++ {
				ra, rb := a.Row(j, k), b.Row(j, k)
				for i := h; i < h+p.Nr; i++ {
					if ra[i] != rb[i] {
						t.Fatalf("gathered continuation diverged at panel %d (%d,%d,%d)", pi, i, j, k)
					}
				}
			}
		}
	}
}

// TestParallelMatchesSerialPseudoVacuum: the pseudo-vacuum magnetic wall
// uses the full post-overset halo refresh (its wall condition couples
// values across columns); it must stay bit-exact too.
func TestParallelMatchesSerialPseudoVacuum(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps = 2
	const dt = 2e-3
	prm := mhd.Default()
	prm.MagBC = mhd.BCPseudoVacuum
	ic := mhd.DefaultIC()
	ic.SeedBAmp = 0.02

	ref, err := mhd.NewSolver(s, prm, ic)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < steps; n++ {
		ref.Advance(dt)
	}

	l, err := NewLayout(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	mismatches := 0
	err = runWorld(8, func(w *mpi.Comm) {
		r, err := NewRank(w, l, prm, ic)
		if err != nil {
			t.Error(err)
			return
		}
		for n := 0; n < steps; n++ {
			r.Advance(dt)
		}
		p := r.PL.Patch
		h := p.H
		local := r.PL.U.Scalars()
		global := ref.Panels[r.Panel].U.Scalars()
		bad := 0
		for vi := range local {
			for k := h; k < h+p.Np; k++ {
				for j := h; j < h+p.Nt; j++ {
					lrow := local[vi].Row(j, k)
					grow := global[vi].Row(j+p.JOff, k+p.KOff)
					for i := h; i < h+p.Nr; i++ {
						if lrow[i] != grow[i] {
							bad++
						}
					}
				}
			}
		}
		if bad > 0 {
			mu.Lock()
			mismatches += bad
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mismatches > 0 {
		t.Errorf("%d values differ from serial under pseudo-vacuum walls", mismatches)
	}
}

// TestScatterGatherRoundTrip: scattering a serial state into ranks and
// continuing reproduces the serial trajectory exactly — the decomposed
// restart path.
func TestScatterGatherRoundTrip(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const dt = 2e-3
	// Build a serial state a few steps in.
	src := runSerial(t, s, 2, dt)
	ref := runSerial(t, s, 2, dt)
	ref.Advance(dt)
	ref.Advance(dt)

	l, err := NewLayout(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	mismatches := 0
	err = runWorld(8, func(w *mpi.Comm) {
		// Start ranks from a DIFFERENT initial condition, then scatter.
		ic := mhd.DefaultIC()
		ic.Seed = 99
		r, err := NewRank(w, l, mhd.Default(), ic)
		if err != nil {
			t.Error(err)
			return
		}
		var in *snapshot.Interior
		if w.Rank() == 0 {
			in = snapshot.InteriorOf(src)
		}
		if err := r.ScatterInterior(in); err != nil {
			t.Error(err)
			return
		}
		r.Advance(dt)
		r.Advance(dt)
		p := r.PL.Patch
		h := p.H
		local := r.PL.U.Scalars()
		global := ref.Panels[r.Panel].U.Scalars()
		bad := 0
		for vi := range local {
			for k := h; k < h+p.Np; k++ {
				for j := h; j < h+p.Nt; j++ {
					lrow := local[vi].Row(j, k)
					grow := global[vi].Row(j+p.JOff, k+p.KOff)
					for i := h; i < h+p.Nr; i++ {
						if lrow[i] != grow[i] {
							bad++
						}
					}
				}
			}
		}
		if bad > 0 {
			mu.Lock()
			mismatches += bad
			mu.Unlock()
		}
		if r.StepN != ref.Step || r.Time != ref.Time {
			t.Errorf("clock after scatter+2 steps: %d/%v vs %d/%v", r.StepN, r.Time, ref.Step, ref.Time)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mismatches > 0 {
		t.Errorf("%d values diverged after scatter restart", mismatches)
	}
}

// TestDroppedHaloMessageDeadline is acceptance criterion (a) at the
// solver level: dropping one halo message of the very first constraint
// application surfaces a deadline error that names the blocked
// (src, dst, tag) on the panel communicator, instead of hanging the run.
// Communicator ids are deterministic: the world is 0 and the first Split
// numbers the Yin panel 1 (color 0) and the Yang panel 2 (color 1); the
// 1x2 panel grid's phi-direction halo exchange sends rank 0 -> rank 1
// under tag tagHaloBase+3.
func TestDroppedHaloMessageDeadline(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const nProcs = 4
	l, err := NewLayout(s, nProcs)
	if err != nil {
		t.Fatal(err)
	}
	if l.PT != 1 || l.PP != 2 {
		t.Fatalf("layout picked %dx%d per panel; test assumes 1x2", l.PT, l.PP)
	}
	plan := mpi.NewFaultPlan().Add(mpi.Fault{
		Comm: 1, Src: 0, Dst: 1, Tag: tagHaloBase + 3, Epoch: 0, Action: mpi.Drop,
	})
	err = mpi.RunWith(nProcs, mpi.RunConfig{Deadline: 500 * time.Millisecond, Faults: plan}, func(w *mpi.Comm) {
		if _, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC()); err != nil {
			w.Abort(err)
		}
	})
	if err == nil {
		t.Fatal("dropped halo message did not surface a deadline error")
	}
	want := "Recv(src=0, dst=1, tag=3, comm=1)"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("deadline error does not name the dropped halo envelope %q:\n%v", want, err)
	}
}

// TestKilledRankAbortsAdvance: a scripted rank kill during AdvanceScheme
// (via the Tick fault checkpoint) aborts the whole run promptly, with
// the surviving ranks woken out of their halo waits.
func TestKilledRankAbortsAdvance(t *testing.T) {
	s := grid.NewSpec(9, 13)
	l, err := NewLayout(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := mpi.NewFaultPlan().Kill(2, 1)
	done := make(chan error, 1)
	go func() {
		done <- mpi.RunWith(4, mpi.RunConfig{Deadline: 20 * time.Second, Faults: plan}, func(w *mpi.Comm) {
			r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
			if err != nil {
				w.Abort(err)
			}
			for n := 0; n < 3; n++ {
				r.Advance(2e-3)
			}
		})
	}()
	select {
	case err := <-done:
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) || rf.Rank != 2 || rf.Step != 1 {
			t.Errorf("got %v, want the scripted kill of rank 2 at step 1", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run wedged after the rank kill")
	}
}

// tagTraffic is one message stream's totals: messages and payload bytes.
type tagTraffic struct{ msgs, bytes int64 }

// stepTraffic is the traffic of two steps of the 8-rank 2×2-block 9×13
// world, per magnetic wall and schedule, keyed by tag. Halo and rim tags
// are what each panel communicator carries (the Yin and the Yang panel
// carry the same); tagOversetBase is the world communicator's overset
// exchange. The corner-carrying state refresh runs once per constraint
// on the conducting wall and three times on the pseudo-vacuum one, which
// instead never sends the rim refresh; the overlapped schedule's
// corner-free B and div-v messages span the owned range only.
var stepTraffic = map[mhd.MagneticBC]map[bool]map[int]tagTraffic{
	mhd.BCConfined: {
		true: {
			0: {18, 259776}, 1: {18, 259776}, 2: {18, 107712}, 3: {18, 107712},
			8: {16, 78144}, 9: {16, 78144}, 10: {16, 27456}, 11: {16, 27456},
			16: {16, 26048}, 17: {16, 26048}, 18: {16, 9152}, 19: {16, 9152},
			24: {18, 12672}, 25: {18, 12672}, 26: {18, 12672}, 27: {18, 12672},
			100: {144, 1216512},
		},
		false: {
			0: {18, 259776}, 1: {18, 259776}, 2: {18, 107712}, 3: {18, 107712},
			8: {16, 86592}, 9: {16, 86592}, 10: {16, 35904}, 11: {16, 35904},
			16: {16, 28864}, 17: {16, 28864}, 18: {16, 11968}, 19: {16, 11968},
			24: {18, 12672}, 25: {18, 12672}, 26: {18, 12672}, 27: {18, 12672},
			100: {144, 1216512},
		},
	},
	mhd.BCPseudoVacuum: {
		true: {
			0: {54, 779328}, 1: {54, 779328}, 2: {54, 323136}, 3: {54, 323136},
			8: {16, 78144}, 9: {16, 78144}, 10: {16, 27456}, 11: {16, 27456},
			16: {16, 26048}, 17: {16, 26048}, 18: {16, 9152}, 19: {16, 9152},
			100: {144, 1216512},
		},
		false: {
			0: {54, 779328}, 1: {54, 779328}, 2: {54, 323136}, 3: {54, 323136},
			8: {16, 86592}, 9: {16, 86592}, 10: {16, 35904}, 11: {16, 35904},
			16: {16, 28864}, 17: {16, 28864}, 18: {16, 11968}, 19: {16, 11968},
			100: {144, 1216512},
		},
	},
}

// TestStepTrafficUsesExchangeTags pins ExchangeTags as the registry of
// the step path's traffic, which the chaos fault space and the tag
// metrics key on, and pins that traffic itself. On an 8-rank world with
// seams in theta and phi, each magnetic wall condition runs with the
// overlapped and the sequential schedule for two steps. Every user tag a
// run sends must be in ExchangeTags, every tag ExchangeTags lists must
// be sent by some run, and the gather and scatter tags must stay outside
// it. A halo, rim or overset exchange moved onto another exchange's tags
// (the rim refresh on the aux tags, say) leaves a listed tag unused and
// fails here. Each (comm, tag) stream's message count and byte total
// must equal stepTraffic, so a message dropped, added, widened or moved
// to another communicator fails too.
func TestStepTrafficUsesExchangeTags(t *testing.T) {
	s := grid.NewSpec(9, 13)
	l, err := NewLayoutDims(s, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[int]bool{}
	for _, tag := range ExchangeTags() {
		listed[tag] = true
	}
	for _, tag := range []int{tagGatherBase, tagScatterBase} {
		if listed[tag] {
			t.Errorf("gather/scatter tag %d is in ExchangeTags", tag)
		}
	}
	used := map[int]bool{}
	for _, bc := range []mhd.MagneticBC{mhd.BCConfined, mhd.BCPseudoVacuum} {
		for _, overlapped := range []bool{true, false} {
			prm := mhd.Default()
			prm.MagBC = bc
			rec := obs.New(obs.Config{})
			err := mpi.RunWith(8, mpi.RunConfig{Deadline: 60 * time.Second, Obs: rec}, func(w *mpi.Comm) {
				r, err := NewRank(w, l, prm, mhd.DefaultIC())
				if err != nil {
					w.Abort(err)
					return
				}
				r.SetOverlap(overlapped)
				for n := 0; n < 2; n++ {
					r.Advance(2e-3)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			want := stepTraffic[bc][overlapped]
			seen := map[obs.TagKey]bool{}
			for k, st := range rec.TagStats() {
				if k.Tag < 0 {
					continue // the runtime's own collectives
				}
				if !listed[k.Tag] {
					t.Errorf("MagBC %v, overlap %v: tag %d (comm %d) is not in ExchangeTags", bc, overlapped, k.Tag, k.Comm)
				}
				used[k.Tag] = true
				seen[k] = true
				if got := (tagTraffic{st.Msgs.Load(), st.Bytes.Load()}); got != want[k.Tag] {
					t.Errorf("MagBC %v, overlap %v: comm %d tag %d carried %+v, want %+v", bc, overlapped, k.Comm, k.Tag, got, want[k.Tag])
				}
			}
			// Comm 0 is the world, 1 and 2 the Yin and Yang panels.
			for tag := range want {
				for _, c := range map[bool][]int{true: {0}, false: {1, 2}}[tag == tagOversetBase] {
					if !seen[obs.TagKey{Comm: c, Tag: tag}] {
						t.Errorf("MagBC %v, overlap %v: comm %d sent nothing on tag %d", bc, overlapped, c, tag)
					}
				}
			}
		}
	}
	for _, tag := range ExchangeTags() {
		if !used[tag] {
			t.Errorf("ExchangeTags lists tag %d, but no run sent on it", tag)
		}
	}
}
