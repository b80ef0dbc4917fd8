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

// rowIdx names one radial row (column of Nr+2H values) of a padded
// field: a halo message carries a list of them.
type rowIdx struct{ j, k int }

// span returns the indices [lo, hi).
func span(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// rowsOf appends to dst the rows (j, k) for j in js, then k in ks: a
// padded-phi column k over theta rows js is rowsOf(dst, js, []int{k}),
// a padded-theta row j over phi columns ks rowsOf(dst, []int{j}, ks).
func rowsOf(dst []rowIdx, js, ks []int) []rowIdx {
	for _, j := range js {
		for _, k := range ks {
			dst = append(dst, rowIdx{j, k})
		}
	}
	return dst
}

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
// disjoint field slots (recvBuf).
type HaloBufs struct {
	nrP        int
	send, recv [4][]float64
	// The padded theta and phi index ranges, and the scratch row list,
	// of the PackPhi/PackTheta forms.
	allJ, allK []int
	line       []rowIdx
}

// NewHaloBufs sizes the staging buffers for a patch whose exchanges
// move at most maxFields fields at a time.
func NewHaloBufs(p *grid.Patch, maxFields int) *HaloBufs {
	nrP, ntP, npP := p.Padded()
	n := maxFields * max(ntP, npP) * nrP
	hb := &HaloBufs{nrP: nrP, allJ: span(0, ntP), allK: span(0, npP), line: make([]rowIdx, 0, max(ntP, npP))}
	for d := range hb.send {
		hb.send[d] = make([]float64, n)
		hb.recv[d] = make([]float64, n)
	}
	return hb
}

// pack copies the rows of every field, fields outer and rows inner,
// radial-fastest, into the dir-th send buffer and returns the filled
// prefix.
func (hb *HaloBufs) pack(fields []*field.Scalar, rows []rowIdx, dir int) []float64 {
	buf := hb.send[dir][:len(fields)*len(rows)*hb.nrP]
	pos := 0
	for _, f := range fields {
		for _, rw := range rows {
			pos += copy(buf[pos:], f.Row(rw.j, rw.k))
		}
	}
	return buf
}

// unpack scatters a pack-layout buffer into the rows of every field.
func (hb *HaloBufs) unpack(fields []*field.Scalar, rows []rowIdx, buf []float64) {
	pos := 0
	for _, f := range fields {
		for _, rw := range rows {
			pos += copy(f.Row(rw.j, rw.k), buf[pos:])
		}
	}
}

// recvBuf returns the dir-th receive buffer for a message of nFields
// fields over nRows rows whose fields take staging slots
// [slot, slot+nFields), so that exchanges on disjoint slots can be in
// flight together.
func (hb *HaloBufs) recvBuf(dir, slot, nFields, nRows int) []float64 {
	n := nRows * hb.nrP
	return hb.recv[dir][slot*n : (slot+nFields)*n]
}

// PackPhi packs padded-phi column k of every field over the full padded
// theta range (radial-fastest) into the dir-th send buffer and returns
// the filled prefix.
func (hb *HaloBufs) PackPhi(fields []*field.Scalar, k, dir int) []float64 {
	return hb.pack(fields, rowsOf(hb.line[:0], hb.allJ, []int{k}), dir)
}

// UnpackPhi scatters a PackPhi-layout buffer into padded-phi column k of
// every field.
func (hb *HaloBufs) UnpackPhi(fields []*field.Scalar, k int, buf []float64) {
	hb.unpack(fields, rowsOf(hb.line[:0], hb.allJ, []int{k}), buf)
}

// PackTheta packs padded-theta row j of every field over the full
// padded phi range (carrying corner values) into the dir-th send buffer.
func (hb *HaloBufs) PackTheta(fields []*field.Scalar, j, dir int) []float64 {
	return hb.pack(fields, rowsOf(hb.line[:0], []int{j}, hb.allK), dir)
}

// UnpackTheta scatters a PackTheta-layout buffer into padded-theta row j
// of every field.
func (hb *HaloBufs) UnpackTheta(fields []*field.Scalar, j int, buf []float64) {
	hb.unpack(fields, rowsOf(hb.line[:0], []int{j}, hb.allK), buf)
}
