package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/grid"
	"repro/internal/mhd"
)

// header is the fixed-size preamble of a checkpoint.
type header struct {
	Version            uint32
	Nr, Nt, Np         int32
	RI, RO             float64
	Gamma, Mu, Kappa   float64
	Eta, G0, Omega, Ti float64
	MagBC              int32
	Pad                int32 // keep 8-byte alignment explicit
	Time               float64
	Step               int64
}

const (
	// headerLen is the encoded magic plus header; checksumLen the
	// trailing CRC-32.
	headerLen   = len(Magic) + 112
	checksumLen = 4
	// chunkLen sizes the one staging buffer of an encode or a decode:
	// values are converted between float64 and little-endian bytes a
	// chunk at a time, so neither direction allocates per row or per
	// slab. It holds a whole number of values.
	chunkLen = 32 << 10
	// slabs is the number of scalar slabs in a payload: 2 panels x 8
	// state scalars.
	slabs = 2 * 8
)

// encodedLen is the exact size of a v2 checkpoint of the given grid.
func encodedLen(s grid.Spec) int {
	return headerLen + slabs*8*s.Nr*s.Nt*s.Np + checksumLen
}

// encoder streams a checkpoint to w through one chunk buffer, keeping
// the running CRC-32 of everything flushed. The first error sticks and
// turns the remaining calls into no-ops; finish reports it.
type encoder struct {
	w   io.Writer
	buf []byte
	n   int
	crc uint32
	err error
}

func newEncoder(w io.Writer, spec grid.Spec, prm mhd.Params, time float64, step int) *encoder {
	e := &encoder{w: w, buf: make([]byte, chunkLen)}
	h := header{
		Version: Version,
		Nr:      int32(spec.Nr), Nt: int32(spec.Nt), Np: int32(spec.Np),
		RI: spec.RI, RO: spec.RO,
		Gamma: prm.Gamma, Mu: prm.Mu, Kappa: prm.Kappa,
		Eta: prm.Eta, G0: prm.G0, Omega: prm.Omega, Ti: prm.TIn,
		MagBC: int32(prm.MagBC),
		Time:  time,
		Step:  int64(step),
	}
	hb := bytes.NewBuffer(e.buf[:0])
	hb.WriteString(Magic)
	// Into the chunk buffer, which is far larger: cannot fail.
	_ = binary.Write(hb, binary.LittleEndian, &h)
	e.n = hb.Len()
	return e
}

// floats appends the values in payload order.
func (e *encoder) floats(v []float64) {
	for len(v) > 0 && e.err == nil {
		if len(e.buf)-e.n < 8 {
			e.flush()
		}
		m := min(len(v), (len(e.buf)-e.n)/8)
		dst := e.buf[e.n : e.n+8*m]
		for i, x := range v[:m] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
		}
		e.n += 8 * m
		v = v[m:]
	}
}

func (e *encoder) flush() {
	if e.err == nil {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf[:e.n])
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n = 0
}

// finish flushes the payload and appends the checksum over it.
func (e *encoder) finish() error {
	e.flush()
	if e.err == nil {
		binary.LittleEndian.PutUint32(e.buf, e.crc)
		_, e.err = e.w.Write(e.buf[:checksumLen])
	}
	return e.err
}

// WriteCheckpoint serializes the interior of a solver the caller is
// stepping, so that ReadCheckpoint restores it bit-exactly. It is
// Interior.Encode without the intermediate copy: the same encoder is
// fed the solver's interior rows in payload order.
func WriteCheckpoint(w io.Writer, sv *mhd.Solver) error {
	e := newEncoder(w, sv.Spec, sv.Prm, sv.Time, sv.Step)
	for _, pl := range sv.Panels {
		for _, s := range pl.U.Scalars() {
			s.EachInteriorRow(func(_ int, row []float64) { e.floats(row) })
		}
	}
	return e.finish()
}

// Encode serializes the interior as a v2 checkpoint: header, the
// sixteen slabs whole, trailing CRC-32. It is the one encode path of
// both campaign sinks and of core's checkpointing runner.
func (in *Interior) Encode(w io.Writer) error {
	if err := in.checkShape(); err != nil {
		return err
	}
	e := newEncoder(w, in.Spec, in.Prm, in.Time, in.Step)
	for pi := range in.Fields {
		for _, slab := range in.Fields[pi] {
			e.floats(slab)
		}
	}
	return e.finish()
}

// EncodedLen is the exact size of the interior's encoding.
func (in *Interior) EncodedLen() int { return encodedLen(in.Spec) }

// Bytes encodes the interior into a buffer of exactly the encoded size.
func (in *Interior) Bytes() ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, in.EncodedLen()))
	if err := in.Encode(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeError is what the checkpoint decoder returns for bytes it
// rejects: truncation, an implausible header, a checksum mismatch.
// Offset is the position in the stream where the damage was met; the
// message names it too.
type DecodeError struct {
	//yyvet:ignore knob the typed failure path: TestDecodeAllocationBoundedByInput and FuzzReadInterior read it through errors.As
	Offset int64
	Err    error
}

func (e *DecodeError) Error() string { return e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// decoder reads exact byte counts (no read-ahead), so the hashed prefix
// ends exactly where the trailing checksum begins and off can name the
// position of any failure.
type decoder struct {
	r   io.Reader
	off int64
	crc uint32
	buf []byte
}

// fail rejects the input at the current offset, which it appends to the
// message.
func (d *decoder) fail(format string, args ...any) error {
	return &DecodeError{Offset: d.off, Err: fmt.Errorf(format+" (at byte offset %d)", append(args, d.off)...)}
}

// read fills p, advancing the offset and the checksum over what
// arrived.
func (d *decoder) read(p []byte) error {
	n, err := io.ReadFull(d.r, p)
	d.off += int64(n)
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p[:n])
	return err
}

// header consumes and validates the magic and header.
func (d *decoder) header() (header, error) {
	var h header
	magic := d.buf[:len(Magic)]
	if err := d.read(magic); err != nil {
		return h, d.fail("snapshot: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return h, d.fail("snapshot: bad magic %q", magic)
	}
	raw := d.buf[:headerLen-len(Magic)]
	if err := d.read(raw); err != nil {
		return h, d.fail("snapshot: reading header: %w", err)
	}
	// A full-length read into a fixed-size struct: cannot fail.
	_ = binary.Read(bytes.NewReader(raw), binary.LittleEndian, &h)
	if h.Version != Version {
		return h, d.fail("snapshot: unsupported version %d", h.Version)
	}
	// Sanity-bound the header before trusting it: a corrupt (truncated,
	// bit-flipped) file would otherwise build a nonsense solver long
	// before the trailing checksum could reject it. These bounds do not
	// bound allocation; ReadInterior does that against the input length.
	const maxNodes = 1 << 14
	if h.Nr < 3 || h.Nt < 3 || h.Np < 3 || h.Nr > maxNodes || h.Nt > maxNodes || h.Np > 3*maxNodes {
		return h, d.fail("snapshot: implausible grid %dx%dx%d in header", h.Nr, h.Nt, h.Np)
	}
	if !(h.RI > 0 && h.RO > h.RI) || math.IsNaN(h.RI) || math.IsNaN(h.RO) || math.IsInf(h.RO, 0) {
		return h, d.fail("snapshot: implausible shell radii [%g, %g] in header", h.RI, h.RO)
	}
	if h.Step < 0 || h.Step > 1<<40 || math.IsNaN(h.Time) || math.IsInf(h.Time, 0) {
		return h, d.fail("snapshot: implausible clock t=%g step=%d in header", h.Time, h.Step)
	}
	return h, nil
}

// slab reads n values. With presize the slab is allocated whole (the
// caller has checked that the input holds it); otherwise it grows as
// bytes arrive, so a lying header costs no more than the stream
// delivers.
func (d *decoder) slab(n int, presize bool) ([]float64, error) {
	const growFrom = chunkLen / 8
	c := n
	if !presize {
		c = min(n, growFrom)
	}
	out := make([]float64, 0, c)
	for len(out) < n {
		if len(out) == cap(out) {
			grown := make([]float64, len(out), min(n, 2*len(out)))
			copy(grown, out)
			out = grown
		}
		m := min(cap(out)-len(out), len(d.buf)/8)
		raw := d.buf[:8*m]
		if err := d.read(raw); err != nil {
			return nil, err
		}
		dst := out[len(out) : len(out)+m]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		out = out[:len(out)+m]
	}
	return out, nil
}

// remaining reports how many bytes r still holds, when r is one of the
// readers the callers pass that can tell without being read. A Len
// method on any other type may mean something else (bytes buffered so
// far); those take the grow-as-bytes-arrive path.
func remaining(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case *bytes.Reader:
		return int64(v.Len()), true
	case *bytes.Buffer:
		return int64(v.Len()), true
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - cur, true
	}
	return 0, false
}

// ReadInterior deserializes a checkpoint into its layout-neutral form,
// verifying the header bounds and the trailing checksum — without
// building a solver, so the caller can scatter the payload against any
// world layout. Every rejection is a *DecodeError. Allocation is bounded
// by the input, not by the header: a reader that knows its remaining
// length (bytes.Reader, a regular *os.File) has the header's payload
// size checked against it before any slab exists, and any other reader
// has its slabs grown as the bytes arrive.
func ReadInterior(r io.Reader) (*Interior, error) {
	avail, known := remaining(r)
	d := &decoder{r: r, buf: make([]byte, chunkLen)}
	h, err := d.header()
	if err != nil {
		return nil, err
	}
	in := &Interior{
		Spec: grid.Spec{Nr: int(h.Nr), Nt: int(h.Nt), Np: int(h.Np), RI: h.RI, RO: h.RO},
		Prm: mhd.Params{Gamma: h.Gamma, Mu: h.Mu, Kappa: h.Kappa, Eta: h.Eta,
			G0: h.G0, Omega: h.Omega, TIn: h.Ti, MagBC: mhd.MagneticBC(h.MagBC)},
		Time: h.Time,
		Step: int(h.Step),
	}
	slabLen := in.Spec.Nr * in.Spec.Nt * in.Spec.Np
	// An input known to end inside the payload is rejected before any
	// slab exists, with the error reading it would have ended on: the
	// field the input stops in, at the offset where it stops.
	if payload, rest := int64(slabs*8*slabLen), avail-d.off; known && rest < payload {
		field := int(rest / int64(8*slabLen))
		d.off += rest
		return nil, d.fail("snapshot: reading field (panel %d, scalar %d): input ends %d bytes short of the %dx%dx%d payload its header describes: %w",
			field/8, field%8, payload-rest, h.Nr, h.Nt, h.Np, io.ErrUnexpectedEOF)
	}
	for pi := range in.Fields {
		for si := range in.Fields[pi] {
			slab, err := d.slab(slabLen, known)
			if err != nil {
				return nil, d.fail("snapshot: reading field (panel %d, scalar %d): %w", pi, si, err)
			}
			in.Fields[pi][si] = slab
		}
	}
	// The stored checksum is not part of what it covers.
	sum, payloadEnd := d.crc, d.off
	stored := d.buf[:checksumLen]
	if err := d.read(stored); err != nil {
		return nil, d.fail("snapshot: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(stored); got != sum {
		return nil, &DecodeError{Offset: payloadEnd, Err: fmt.Errorf(
			"snapshot: checksum mismatch over bytes 0..%d: stored %08x at offset %d, computed %08x",
			payloadEnd-1, got, payloadEnd, sum)}
	}
	return in, nil
}

// ReadCheckpoint reconstructs a solver from a checkpoint. The restored
// solver carries the stored parameters and the interior state; the
// constraint application (walls + overset exchange) is re-run to
// rebuild the padded halo values the payload does not carry.
func ReadCheckpoint(r io.Reader) (*mhd.Solver, error) {
	in, err := ReadInterior(r)
	if err != nil {
		return nil, err
	}
	return in.Solver()
}
