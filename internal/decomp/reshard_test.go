package decomp

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/snapshot"
)

// restoreAndCompare restores a layout-neutral checkpoint onto the given
// layout, advances two steps, and counts interior mismatches against
// the reference solver (the writer's trajectory continued serially).
func restoreAndCompare(t *testing.T, l *Layout, raw []byte, ref *mhd.Solver, dt float64) {
	t.Helper()
	var mu sync.Mutex
	mismatches := 0
	err := runWorld(l.NProcs, func(w *mpi.Comm) {
		// Start ranks from a DIFFERENT initial condition, then restore.
		ic := mhd.DefaultIC()
		ic.Seed = 99
		r, err := NewRank(w, l, mhd.Default(), ic)
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close()
		var in *snapshot.Interior
		if w.Rank() == 0 {
			in, err = snapshot.ReadInterior(bytes.NewReader(raw))
			if err != nil {
				w.Abort(err)
			}
		}
		if err := r.ScatterInterior(in); err != nil {
			w.Abort(err)
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
			t.Errorf("clock after restore+2 steps: %d/%v vs %d/%v", r.StepN, r.Time, ref.Step, ref.Time)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mismatches > 0 {
		t.Errorf("nProcs=%d (%dx%d): %d values diverged after resharded restart", l.NProcs, l.PT, l.PP, mismatches)
	}
}

// TestScatterInteriorReshard: one checkpoint, written with no
// decomposition imprint, restores onto world shapes it was never
// written under — 2 (pure panel split), 4 and 8 — and every shape
// continues the writer's trajectory bit for bit.
func TestScatterInteriorReshard(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const dt = 2e-3
	src := runSerial(t, s, 2, dt)
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	ref := runSerial(t, s, 2, dt)
	ref.Advance(dt)
	ref.Advance(dt)

	for _, nProcs := range []int{2, 4, 8} {
		l, err := NewLayout(s, nProcs)
		if err != nil {
			t.Fatal(err)
		}
		restoreAndCompare(t, l, raw, ref, dt)
	}
}

// TestScatterInteriorDifferentSplit: the same checkpoint restores onto
// two different explicit process-grid shapes of the same world size —
// the panel split itself is part of what resharding must be neutral to.
func TestScatterInteriorDifferentSplit(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const dt = 2e-3
	src := runSerial(t, s, 2, dt)
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	ref := runSerial(t, s, 2, dt)
	ref.Advance(dt)
	ref.Advance(dt)

	for _, dims := range [][2]int{{4, 1}, {1, 4}, {2, 2}} {
		l, err := NewLayoutDims(s, 8, dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		restoreAndCompare(t, l, raw, ref, dt)
	}
}

// TestScatterInteriorRejectsMismatch: a checkpoint of a different
// resolution is rejected with a clear error, not silently interpolated.
func TestScatterInteriorRejectsMismatch(t *testing.T) {
	const dt = 2e-3
	src := runSerial(t, grid.NewSpec(11, 17), 1, dt)
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	l, err := NewLayout(grid.NewSpec(9, 13), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = runWorld(2, func(w *mpi.Comm) {
		r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
		if err != nil {
			t.Error(err)
			return
		}
		defer r.Close()
		var in *snapshot.Interior
		if w.Rank() == 0 {
			in, err = snapshot.ReadInterior(bytes.NewReader(raw))
			if err != nil {
				w.Abort(err)
			}
		}
		if err := r.ScatterInterior(in); err != nil {
			w.Abort(err)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "does not match layout") {
		t.Fatalf("want a grid-mismatch rejection, got: %v", err)
	}
}

// TestBlankRankAndGatherInterior is the equivalence property behind the
// campaign's segment boundary, over random small grids and world sizes
// 2, 4 and 8: a rank built blank and scattered into continues exactly
// like one built from an (unrelated) initial condition and scattered
// into; GatherInterior, into a reused buffer, returns slab for slab what
// InteriorOf(GatherState()) does; and both worlds end on the sha256 of
// the serial trajectory.
func TestBlankRankAndGatherInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3; trial++ {
		s := grid.NewSpec(5+rng.Intn(6), 9+2*rng.Intn(4))
		const dt = 2e-3
		src := runSerial(t, s, 1, dt)
		start := snapshot.InteriorOf(src)
		ref := runSerial(t, s, 3, dt)
		want := sha256.Sum256(encode(t, snapshot.InteriorOf(ref)))

		for _, nProcs := range []int{2, 4, 8} {
			l, err := NewLayout(s, nProcs)
			if err != nil {
				t.Fatal(err)
			}
			for _, blank := range []bool{true, false} {
				var got, viaState []byte
				err := runWorld(nProcs, func(w *mpi.Comm) {
					var r *Rank
					var err error
					if blank {
						r, err = NewBlankRank(w, l, mhd.Default(), 1)
					} else {
						ic := mhd.DefaultIC()
						ic.Seed = 99
						r, err = NewRankWorkers(w, l, mhd.Default(), ic, 1)
					}
					if err != nil {
						w.Abort(err)
					}
					defer r.Close()
					var in *snapshot.Interior
					if w.Rank() == 0 {
						in = start
					}
					if err := r.ScatterInterior(in); err != nil {
						w.Abort(err)
					}
					r.Advance(dt)
					r.Advance(dt)
					// Gather into a buffer holding an earlier state, as a
					// campaign's spare buffer does: every value must be
					// overwritten.
					var spare *snapshot.Interior
					if w.Rank() == 0 {
						spare = snapshot.InteriorOf(src)
					}
					gathered := r.GatherInterior(spare)
					sv, err := r.GatherState()
					if err != nil {
						w.Abort(err)
					}
					if w.Rank() == 0 {
						got, viaState = encode(t, gathered), encode(t, snapshot.InteriorOf(sv))
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if sha256.Sum256(got) != want {
					t.Errorf("grid %+v, %d ranks, blank=%v: final state differs from the serial trajectory", s, nProcs, blank)
				}
				if !bytes.Equal(got, viaState) {
					t.Errorf("grid %+v, %d ranks: GatherInterior differs from InteriorOf(GatherState())", s, nProcs)
				}
			}
		}
	}
}

func encode(t *testing.T, in *snapshot.Interior) []byte {
	t.Helper()
	raw, err := in.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
