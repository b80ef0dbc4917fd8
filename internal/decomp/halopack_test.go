package decomp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
)

func testPatchAndFields(tb testing.TB, nFields int) (*grid.Patch, []*field.Scalar) {
	tb.Helper()
	s := grid.NewSpec(9, 13)
	p := grid.NewPatch(s, grid.Yin, 1)
	fields := make([]*field.Scalar, nFields)
	for fi := range fields {
		f := field.NewScalar(field.Shape{Nr: p.Nr, Nt: p.Nt, Np: p.Np, H: p.H})
		for n := range f.Data {
			f.Data[n] = float64(fi*1000+n) * 0.001
		}
		fields[fi] = f
	}
	return p, fields
}

// TestHaloPackRoundTrip checks that every pack/unpack pair of the
// HaloBufs arena is the identity on the packed rows.
func TestHaloPackRoundTrip(t *testing.T) {
	p, fields := testPatchAndFields(t, 3)
	_, _, npP := p.Padded()
	hb := NewHaloBufs(p, 3)
	h := p.H

	ref := make([]*field.Scalar, len(fields))
	for i, f := range fields {
		ref[i] = f.Clone()
	}
	restore := func() {
		for i, f := range fields {
			f.CopyFrom(ref[i])
		}
	}
	mustEqualRow := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row corrupted at %d: got %v want %v", name, i, got[i], want[i])
			}
		}
	}

	// Phi: pack column h+1, unpack into column h+2.
	buf := hb.PackPhi(fields, h+1, dirWest)
	hb.UnpackPhi(fields, h+2, buf)
	for fi, f := range fields {
		for j := 0; j < p.Nt+2*h; j++ {
			mustEqualRow(fmt.Sprintf("phi field %d row %d", fi, j), f.Row(j, h+2), ref[fi].Row(j, h+1))
		}
	}
	restore()

	// Theta: pack row h+1, unpack into row h+2 (full padded phi range).
	buf = hb.PackTheta(fields, h+1, dirNorth)
	hb.UnpackTheta(fields, h+2, buf)
	for fi, f := range fields {
		for k := 0; k < npP; k++ {
			mustEqualRow(fmt.Sprintf("theta field %d col %d", fi, k), f.Row(h+2, k), ref[fi].Row(h+1, k))
		}
	}
	restore()

	// Rim cells: the rows a rim message carries, a theta layer over the
	// rim columns and a phi layer over the rim rows.
	cols := []int{h, h + p.Np - 1}
	hb.unpack(fields, rowsOf(nil, []int{h + 3}, cols), hb.pack(fields, rowsOf(nil, []int{h + 1}, cols), dirSouth))
	for fi, f := range fields {
		for _, k := range cols {
			mustEqualRow(fmt.Sprintf("rim cols field %d col %d", fi, k), f.Row(h+3, k), ref[fi].Row(h+1, k))
		}
	}
	restore()

	rows := []int{h, h + p.Nt - 1}
	hb.unpack(fields, rowsOf(nil, rows, []int{h + 3}), hb.pack(fields, rowsOf(nil, rows, []int{h + 1}), dirEast))
	for fi, f := range fields {
		for _, j := range rows {
			mustEqualRow(fmt.Sprintf("rim rows field %d row %d", fi, j), f.Row(j, h+3), ref[fi].Row(j, h+1))
		}
	}
}

// planRanks builds the ranks of an 8-rank world of 2×2 blocks per 9×13
// panel, whose halo plans together hold messages in all four
// directions, and returns them once the world has ended: their halo
// plans and staging arenas stay usable without it.
func planRanks(tb testing.TB) []*Rank {
	tb.Helper()
	l, err := NewLayoutDims(grid.NewSpec(9, 13), 8, 2, 2)
	if err != nil {
		tb.Fatal(err)
	}
	ranks := make([]*Rank, l.NProcs)
	err = runWorld(l.NProcs, func(w *mpi.Comm) {
		r, err := NewRankWorkers(w, l, mhd.Default(), mhd.DefaultIC(), 1)
		if err != nil {
			w.Abort(err)
		}
		ranks[w.Rank()] = r
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ranks
}

// packPlans packs and unpacks every message of every halo plan of r:
// the state plan's and the owned plan's with the 8 state fields, the
// owned plan's again with the last field in slot 3 (the div-v refresh
// in flight beside the B one), and the rim plan's.
func packPlans(r *Rank) {
	fields := r.stateFields()
	each := func(phases []haloPhase, fields []*field.Scalar, slot int) {
		for _, ph := range phases {
			for _, m := range ph.sends {
				r.halo.pack(fields, m.rows, m.dir)
			}
			for _, m := range ph.recvs {
				r.halo.unpack(fields, m.rows, r.halo.recvBuf(m.dir, slot, len(fields), len(m.rows)))
			}
		}
	}
	each(r.halos.state[:], fields, 0)
	owned := []haloPhase{r.halos.owned}
	each(owned, fields, 0)
	each(owned, fields[7:], 3)
	each(r.halos.rim[:], fields, 0)
}

// TestHaloPackZeroAlloc pins the tentpole property: after construction,
// the pack/unpack staging path performs zero allocations — the forms
// the benchmark times, and every message of every halo plan of each
// rank of a 2×2-block world, which together cover all four directions
// of each plan.
func TestHaloPackZeroAlloc(t *testing.T) {
	p, fields := testPatchAndFields(t, 8)
	hb := NewHaloBufs(p, 8)
	h := p.H
	ranks := planRanks(t)
	var dirs [3][4]int
	for _, r := range ranks {
		for pi, phases := range [][]haloPhase{r.halos.state[:], {r.halos.owned}, r.halos.rim[:]} {
			for _, ph := range phases {
				for _, m := range ph.sends {
					dirs[pi][m.dir]++
				}
			}
		}
	}
	for pi, name := range []string{"state", "owned", "rim"} {
		for d, n := range dirs[pi] {
			if n == 0 {
				t.Errorf("no rank's %s plan sends in direction %d", name, d)
			}
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		buf := hb.PackPhi(fields, h, dirWest)
		hb.UnpackPhi(fields, h, buf)
		buf = hb.PackTheta(fields, h, dirNorth)
		hb.UnpackTheta(fields, h, buf)
		for _, r := range ranks {
			packPlans(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("halo pack/unpack allocates %v allocs/op in steady state, want 0", allocs)
	}
}

// BenchmarkHaloPackUnpack is the committed zero-alloc benchmark: run
// with -benchmem, it must report 0 allocs/op. One op packs and unpacks
// both full-range forms, then every message of every halo plan of each
// rank of a 2×2-block world.
func BenchmarkHaloPackUnpack(b *testing.B) {
	p, fields := testPatchAndFields(b, 8)
	hb := NewHaloBufs(p, 8)
	h := p.H
	ranks := planRanks(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf := hb.PackPhi(fields, h, dirWest)
		hb.UnpackPhi(fields, h+p.Np-1, buf)
		buf = hb.PackTheta(fields, h, dirNorth)
		hb.UnpackTheta(fields, h+p.Nt-1, buf)
		for _, r := range ranks {
			packPlans(r)
		}
	}
}

// BenchmarkHaloExchange measures one full halo exchange (8 state
// fields, both phases) across a 1x2 process grid, including the
// message-passing runtime.
func BenchmarkHaloExchange(b *testing.B) {
	s := grid.NewSpec(9, 13)
	l, err := NewLayout(s, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = mpi.Run(2, func(w *mpi.Comm) {
		r, err := NewRank(w, l, mhd.Default(), mhd.DefaultIC())
		if err != nil {
			w.Abort(err)
		}
		defer r.Close()
		for n := 0; n < b.N; n++ {
			r.exchangeHalos(r.stateFields(), tagHaloBase)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestParallelKernelHaloStress drives pooled stencil kernels and halo
// exchanges concurrently across 4 ranks — the -race gate for the
// intra-rank parallelism layer: every rank runs a 2-worker pool while
// exchanging halos, rims and overset donations with its peers.
func TestParallelKernelHaloStress(t *testing.T) {
	s := grid.NewSpec(9, 13)
	l, err := NewLayout(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = runWorld(4, func(w *mpi.Comm) {
		r, err := NewRankWorkers(w, l, mhd.Default(), mhd.DefaultIC(), 2)
		if err != nil {
			w.Abort(err)
		}
		defer r.Close()
		dt := r.EstimateDT(0.3)
		for n := 0; n < 3; n++ {
			r.Advance(dt)
		}
		d := r.Diagnose()
		if math.IsNaN(d.Mass) || d.Mass <= 0 {
			w.Abort(fmt.Errorf("rank %d: bad mass %v", w.Rank(), d.Mass))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkersMatchSerial pins bit-identity of the pooled decomposed
// solver: the same campaign advanced with 1-worker (serial) kernels and
// with 3-worker pools produces byte-identical states.
func TestWorkersMatchSerial(t *testing.T) {
	s := grid.NewSpec(9, 13)
	const nProcs = 4
	l, err := NewLayout(s, nProcs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *mhd.Solver {
		var sv *mhd.Solver
		err := runWorld(nProcs, func(w *mpi.Comm) {
			r, err := NewRankWorkers(w, l, mhd.Default(), mhd.DefaultIC(), workers)
			if err != nil {
				w.Abort(err)
			}
			defer r.Close()
			dt := r.EstimateDT(0.3)
			for n := 0; n < 5; n++ {
				r.Advance(dt)
			}
			g, err := r.GatherState()
			if err != nil {
				w.Abort(err)
			}
			if w.Rank() == 0 {
				sv = g
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	serial := run(1)
	pooled := run(3)
	for pi, pl := range serial.Panels {
		ps := pooled.Panels[pi]
		for vi, f := range pl.U.Scalars() {
			g := ps.U.Scalars()[vi]
			for n := range f.Data {
				if f.Data[n] != g.Data[n] {
					t.Fatalf("panel %d var %d index %d: serial %x pooled %x",
						pi, vi, n, f.Data[n], g.Data[n])
				}
			}
		}
	}
}
