package decomp

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
)

// solverHash digests every owned node of every state variable of both
// panels in canonical order (variable, phi, theta, radius) — the byte
// identity the overlap suite pins across schedules and world sizes.
func solverHash(sv *mhd.Solver) [32]byte {
	hsh := sha256.New()
	var b [8]byte
	for _, pl := range sv.Panels {
		p := pl.Patch
		h := p.H
		for _, s := range pl.U.Scalars() {
			for k := h; k < h+p.Np; k++ {
				for j := h; j < h+p.Nt; j++ {
					row := s.Row(j, k)
					for i := h; i < h+p.Nr; i++ {
						binary.LittleEndian.PutUint64(b[:], math.Float64bits(row[i]))
						hsh.Write(b[:])
					}
				}
			}
		}
	}
	var out [32]byte
	copy(out[:], hsh.Sum(nil))
	return out
}

// delayEveryHalo scripts a drop of the first and a delay of the next
// few occurrences of every halo/rim/overset envelope any world up to
// size 8 can produce, on the world communicator and both panel
// communicators. Entries matching no real traffic are inert. Delaying
// every message maximizes the skew between the interior compute and the
// rim finish of the overlapped schedule: the interior work completes
// long before any halo arrives, so any schedule bug that lets rim
// stencils read pre-exchange halo bytes would surface as a hash
// mismatch. The plan needs Reliability on — a delayed bare message may
// be overtaken by the next send of the same envelope (the injector
// models a misbehaving transport), and only the sequenced reliable
// path restores FIFO order; that combination is exactly the regime the
// determinism acceptance pins.
func delayEveryHalo(d time.Duration, epochs int) *mpi.FaultPlan {
	p := mpi.NewFaultPlan()
	pairs := [][2]int{
		{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 3}, {3, 0},
		{1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 3}, {3, 2},
	}
	for _, tag := range ExchangeTags() {
		for comm := 0; comm <= 2; comm++ {
			for _, pr := range pairs {
				p.Add(mpi.Fault{
					Comm: comm, Src: pr[0], Dst: pr[1], Tag: tag,
					Epoch: 0, Action: mpi.Drop,
				})
				for e := 1; e <= epochs; e++ {
					p.Add(mpi.Fault{
						Comm: comm, Src: pr[0], Dst: pr[1], Tag: tag,
						Epoch: e, Action: mpi.Delay, Delay: d,
					})
				}
			}
		}
	}
	return p
}

// TestOverlapByteIdentity is the overlap correctness gate: the
// overlapped schedule under an adversarial
// all-halo-tags delay plan produces a state sha256-identical to the
// non-overlapped (sequential exchange-then-compute) schedule and to the
// world-size-1 serial solver, at world sizes 2, 4 and 8. (The layout
// requires an even process count, so "world 1" is the serial solver —
// which also runs the fused kernels, closing the loop with the fusion
// equivalence suite.)
func TestOverlapByteIdentity(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const steps = 2
	const dt = 2e-3

	run := func(t *testing.T, nProcs int, overlapped bool, faults *mpi.FaultPlan) [32]byte {
		t.Helper()
		l, err := NewLayout(s, nProcs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mpi.RunConfig{Deadline: 60 * time.Second, Faults: faults}
		if faults != nil {
			// Drops need retransmission and delayed messages must not be
			// overtaken by later sends of the same envelope; the reliable
			// transport provides both.
			cfg.Reliability = &mpi.Reliability{AckTimeout: 3 * time.Millisecond}
		}
		var hash [32]byte
		err = mpi.RunWith(nProcs, cfg, func(w *mpi.Comm) {
			r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
			if err != nil {
				w.Abort(err)
				return
			}
			r.SetOverlap(overlapped)
			for n := 0; n < steps; n++ {
				r.Advance(dt)
			}
			sv, err := r.GatherState()
			if err != nil {
				w.Abort(err)
				return
			}
			if w.Rank() == 0 {
				hash = solverHash(sv)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return hash
	}

	t.Run("RK4", func(t *testing.T) {
		sv, err := mhd.NewSolver(s, mhd.Default(), mhd.DefaultIC())
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < steps; n++ {
			sv.Advance(dt)
		}
		golden := solverHash(sv)

		for _, nProcs := range []int{2, 4, 8} {
			if got := run(t, nProcs, false, nil); got != golden {
				t.Errorf("world %d: non-overlapped hash %x differs from serial golden %x", nProcs, got, golden)
			}
			plan := delayEveryHalo(2*time.Millisecond, 3)
			if got := run(t, nProcs, true, plan); got != golden {
				t.Errorf("world %d: overlapped+delayed hash %x differs from serial golden %x", nProcs, got, golden)
			}
		}
	})
}
