package decomp

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

const tagGatherBase = 200

// GatherInterior assembles the full two-panel state on world rank 0 in
// the layout-neutral checkpoint form and returns it (nil on every other
// rank): each rank's interior block lands directly in the slabs a
// checkpoint serializes, so the result can be validated, encoded and
// scattered into the next world without a solver in between. On rank 0
// it fills dst, every value and the clock overwritten (a campaign
// alternates two buffers); a nil dst allocates one.
func (r *Rank) GatherInterior(dst *snapshot.Interior) *snapshot.Interior {
	defer r.obs.Begin(obs.SpanGather).End()
	if r.World.Rank() != 0 {
		// Pack the interior block: 8 variables, radial-fastest over the
		// block's interior nodes.
		p := r.PL.Patch
		buf := r.stage(8 * p.Nr * p.Nt * p.Np)[:0]
		r.eachBlockRow(func(_, _, _ int, row []float64) { buf = append(buf, row...) })
		r.World.Send(0, tagGatherBase, buf)
		return nil
	}
	in := dst
	if in == nil {
		in = snapshot.NewInterior(r.Layout.Spec, r.Prm)
	}
	in.Prm, in.Time, in.Step = r.Prm, r.Time, r.StepN
	// Rank 0's own block needs no staging.
	own := r.PL.Patch
	r.eachBlockRow(func(s, j, k int, row []float64) {
		copy(in.Row(int(r.Panel), s, j+own.JOff, k+own.KOff), row)
	})
	for src := 1; src < r.World.Size(); src++ {
		patch := r.Layout.SubPatch(src, 1)
		panel := int(r.Layout.PanelOf(src))
		buf := r.stage(8 * patch.Nr * patch.Nt * patch.Np)
		r.World.Recv(src, tagGatherBase, buf)
		pos := 0
		eachInteriorRow(in, panel, patch, func(row []float64) { pos += copy(row, buf[pos:]) })
	}
	return in
}

// stage returns n elements of the slice all gathers and scatters reuse.
func (r *Rank) stage(n int) []float64 {
	if cap(r.staging) < n {
		r.staging = make([]float64, n)
	}
	return r.staging[:n]
}

// eachInteriorRow visits the rows of in that the block patch of the
// panel covers, in the order eachBlockRow visits the block's own.
func eachInteriorRow(in *snapshot.Interior, panel int, patch *grid.Patch, fn func(row []float64)) {
	for s := range in.Fields[panel] {
		for k := 0; k < patch.Np; k++ {
			for j := 0; j < patch.Nt; j++ {
				fn(in.Row(panel, s, j+patch.JOff, k+patch.KOff))
			}
		}
	}
}

// eachBlockRow visits the interior radial rows of the rank's block in
// message order — the 8 state scalars, phi-major, theta within — with
// the scalar index and the row's block-local (j, k).
func (r *Rank) eachBlockRow(fn func(s, j, k int, row []float64)) {
	p := r.PL.Patch
	h := p.H
	for si, s := range r.PL.U.Scalars() {
		for k := 0; k < p.Np; k++ {
			for j := 0; j < p.Nt; j++ {
				fn(si, j, k, s.Row(j+h, k+h)[h:h+p.Nr])
			}
		}
	}
}

// GatherState is GatherInterior rebuilt into a serial-equivalent solver
// on rank 0 (nil elsewhere), for a caller that goes on to step, analyze
// or render the gathered state; one that only persists it takes the
// Interior.
func (r *Rank) GatherState() (*mhd.Solver, error) {
	in := r.GatherInterior(nil)
	if in == nil {
		return nil, nil
	}
	return in.Solver()
}

const tagScatterBase = 210

// ScatterInterior distributes a layout-neutral checkpoint payload
// (snapshot.ReadInterior) from world rank 0 into every rank's local
// block. Because the payload carries no decomposition imprint, the
// writer's world shape is irrelevant: a checkpoint written at any world
// size resumes under this rank's layout — the reshard-on-read half of
// elastic campaigns. On rank 0, in must hold the payload and its grid
// must match the layout exactly (resolution changes are rejected with a
// clear error); other ranks pass nil. Halos, walls and rims are
// re-established by a constraint application afterwards.
func (r *Rank) ScatterInterior(in *snapshot.Interior) error {
	defer r.obs.Begin(obs.SpanScatter).End()
	me := r.World.Rank()
	if me == 0 {
		if in == nil {
			return fmt.Errorf("decomp: rank 0 needs the source state")
		}
		if in.Spec != r.Layout.Spec {
			return fmt.Errorf("decomp: checkpoint grid %+v does not match layout %+v", in.Spec, r.Layout.Spec)
		}
		for dst := r.World.Size() - 1; dst >= 1; dst-- {
			patch := r.Layout.SubPatch(dst, 1)
			panel := int(r.Layout.PanelOf(dst))
			buf := r.stage(8 * patch.Nr * patch.Nt * patch.Np)[:0]
			eachInteriorRow(in, panel, patch, func(row []float64) { buf = append(buf, row...) })
			r.World.Send(dst, tagScatterBase, buf)
		}
		// Rank 0's own block needs no staging.
		own := r.PL.Patch
		r.eachBlockRow(func(s, j, k int, row []float64) {
			copy(row, in.Row(int(r.Panel), s, j+own.JOff, k+own.KOff))
		})
		r.Time = in.Time
		r.StepN = in.Step
	} else {
		p := r.PL.Patch
		buf := r.stage(8 * p.Nr * p.Nt * p.Np)
		r.World.Recv(0, tagScatterBase, buf)
		pos := 0
		r.eachBlockRow(func(_, _, _ int, row []float64) {
			pos += copy(row, buf[pos:pos+len(row)])
		})
	}
	// Share the clock and re-establish halos/rims/walls.
	clock := []float64{r.Time, float64(r.StepN)}
	r.World.Bcast(0, clock)
	r.Time = clock[0]
	r.StepN = int(clock[1])
	r.applyConstraints()
	return nil
}
