package decomp

import (
	"repro/internal/field"
	"repro/internal/grid"
)

// Direction indices of the HaloBufs staging buffers, one per Cartesian
// neighbour of a block.
const (
	dirNorth = iota
	dirSouth
	dirWest
	dirEast
)

// HaloBufs owns the preallocated pack/unpack staging buffers of one
// rank's halo and rim exchanges. Every buffer is sized once, for the
// largest exchange the rank ever performs (maxFields fields times the
// longest padded row extent), and reused for every phase of every step
// — the steady-state halo path performs zero allocations, which
// TestHaloPackZeroAlloc pins.
//
// Reuse is safe because mpi.Send copies its payload synchronously: the
// moment Send returns, the staging buffer may be repacked, and receive
// buffers are consumed (Wait + unpack) within the same exchange phase
// that posted them, or, for exchanges in flight together, staged in
// disjoint field slots (RecvSlot).
type HaloBufs struct {
	nrP, ntP, npP int
	maxFields     int
	send, recv    [4][]float64
}

// NewHaloBufs sizes the staging buffers for a patch whose exchanges
// move at most maxFields fields at a time.
func NewHaloBufs(p *grid.Patch, maxFields int) *HaloBufs {
	nrP, ntP, npP := p.Padded()
	rows := ntP
	if npP > rows {
		rows = npP
	}
	n := maxFields * rows * nrP
	hb := &HaloBufs{nrP: nrP, ntP: ntP, npP: npP, maxFields: maxFields}
	for d := range hb.send {
		hb.send[d] = make([]float64, n)
		hb.recv[d] = make([]float64, n)
	}
	return hb
}

// PackPhi packs padded-phi column k of every field over the full padded
// theta range (radial-fastest) into the dir-th send buffer and returns
// the filled prefix.
func (hb *HaloBufs) PackPhi(fields []*field.Scalar, k, dir int) []float64 {
	return hb.PackPhiRange(fields, k, 0, hb.ntP, dir)
}

// UnpackPhi scatters a PackPhi-layout buffer into padded-phi column k of
// every field.
func (hb *HaloBufs) UnpackPhi(fields []*field.Scalar, k int, buf []float64) {
	hb.UnpackPhiRange(fields, k, 0, hb.ntP, buf)
}

// PackTheta packs padded-theta row j of every field over the full
// padded phi range (carrying corner values) into the dir-th send buffer.
func (hb *HaloBufs) PackTheta(fields []*field.Scalar, j, dir int) []float64 {
	return hb.PackThetaRange(fields, j, 0, hb.npP, dir)
}

// UnpackTheta scatters a PackTheta-layout buffer into padded-theta row j
// of every field.
func (hb *HaloBufs) UnpackTheta(fields []*field.Scalar, j int, buf []float64) {
	hb.UnpackThetaRange(fields, j, 0, hb.npP, buf)
}

// PackRowCells packs the rim-crossing cells (j, k in cols) of every
// field into the dir-th send buffer — the thin post-overset rim
// refresh payload.
func (hb *HaloBufs) PackRowCells(fields []*field.Scalar, j int, cols []int, dir int) []float64 {
	buf := hb.send[dir][:len(fields)*len(cols)*hb.nrP]
	pos := 0
	for _, f := range fields {
		for _, k := range cols {
			pos += copy(buf[pos:], f.Row(j, k))
		}
	}
	return buf
}

// UnpackRowCells scatters a PackRowCells-layout buffer.
func (hb *HaloBufs) UnpackRowCells(fields []*field.Scalar, j int, cols []int, buf []float64) {
	pos := 0
	for _, f := range fields {
		for _, k := range cols {
			copy(f.Row(j, k), buf[pos:pos+hb.nrP])
			pos += hb.nrP
		}
	}
}

// PackColCells packs the rim-crossing cells (j in rows, k) of every
// field into the dir-th send buffer.
func (hb *HaloBufs) PackColCells(fields []*field.Scalar, k int, rows []int, dir int) []float64 {
	buf := hb.send[dir][:len(fields)*len(rows)*hb.nrP]
	pos := 0
	for _, f := range fields {
		for _, j := range rows {
			pos += copy(buf[pos:], f.Row(j, k))
		}
	}
	return buf
}

// UnpackColCells scatters a PackColCells-layout buffer.
func (hb *HaloBufs) UnpackColCells(fields []*field.Scalar, k int, rows []int, buf []float64) {
	pos := 0
	for _, f := range fields {
		for _, j := range rows {
			copy(f.Row(j, k), buf[pos:pos+hb.nrP])
			pos += hb.nrP
		}
	}
}

// PackPhiRange packs padded-phi column k of every field over theta rows
// j in [j0, j1). Restricted to the owned range it is the corner-free
// message of the overlapped exchange, in which no halo-of-halo values
// ever travel.
func (hb *HaloBufs) PackPhiRange(fields []*field.Scalar, k, j0, j1, dir int) []float64 {
	buf := hb.send[dir][:len(fields)*(j1-j0)*hb.nrP]
	pos := 0
	for _, f := range fields {
		for j := j0; j < j1; j++ {
			pos += copy(buf[pos:], f.Row(j, k))
		}
	}
	return buf
}

// UnpackPhiRange scatters a PackPhiRange-layout buffer into padded-phi
// column k, theta rows [j0, j1).
func (hb *HaloBufs) UnpackPhiRange(fields []*field.Scalar, k, j0, j1 int, buf []float64) {
	pos := 0
	for _, f := range fields {
		for j := j0; j < j1; j++ {
			copy(f.Row(j, k), buf[pos:pos+hb.nrP])
			pos += hb.nrP
		}
	}
}

// PackThetaRange packs padded-theta row j of every field over phi
// columns k in [k0, k1).
func (hb *HaloBufs) PackThetaRange(fields []*field.Scalar, j, k0, k1, dir int) []float64 {
	buf := hb.send[dir][:len(fields)*(k1-k0)*hb.nrP]
	pos := 0
	for _, f := range fields {
		for k := k0; k < k1; k++ {
			pos += copy(buf[pos:], f.Row(j, k))
		}
	}
	return buf
}

// UnpackThetaRange scatters a PackThetaRange-layout buffer into
// padded-theta row j, phi columns [k0, k1).
func (hb *HaloBufs) UnpackThetaRange(fields []*field.Scalar, j, k0, k1 int, buf []float64) {
	pos := 0
	for _, f := range fields {
		for k := k0; k < k1; k++ {
			copy(f.Row(j, k), buf[pos:pos+hb.nrP])
			pos += hb.nrP
		}
	}
}

// RecvRange returns the dir-th receive buffer sized for a message of
// nFields fields over nRows rows, columns or rim cells.
func (hb *HaloBufs) RecvRange(nFields, nRows, dir int) []float64 {
	return hb.RecvSlot(0, nFields, nRows, dir)
}

// RecvSlot is RecvRange for a message whose fields take staging slots
// [slot, slot+nFields) of the maxFields the buffer holds, so that
// exchanges on disjoint slots can be in flight together.
func (hb *HaloBufs) RecvSlot(slot, nFields, nRows, dir int) []float64 {
	n := nRows * hb.nrP
	return hb.recv[dir][slot*n : (slot+nFields)*n]
}

// RecvTheta sizes the receive buffer for a full theta-phase message.
func (hb *HaloBufs) RecvTheta(nFields, dir int) []float64 {
	return hb.RecvRange(nFields, hb.npP, dir)
}

// RecvPhi sizes the receive buffer for a full phi-phase message.
func (hb *HaloBufs) RecvPhi(nFields, dir int) []float64 {
	return hb.RecvRange(nFields, hb.ntP, dir)
}

// RecvCells sizes the receive buffer for a rim-refresh message over
// nCells rim-crossing cells.
func (hb *HaloBufs) RecvCells(nFields, nCells, dir int) []float64 {
	return hb.RecvRange(nFields, nCells, dir)
}
