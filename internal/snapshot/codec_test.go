package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mhd"
)

// parentFixture is a 3x4x10 checkpoint written by the commit before the
// codec was rewritten (PR 13's WriteCheckpoint, 3 steps from a seeded
// start): the wire format's anchor outside this tree's own encoder.
const parentFixture = "testdata/pr13-3x4x10.yyck"

func fixtureBytes(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(parentFixture)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// allocated runs fn and returns how many heap objects and bytes it
// allocated.
func allocated(fn func()) (objects, size uint64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fn()
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc
}

// unsized hides a reader's Len and Seek, so ReadInterior cannot know how
// much input remains: the path a pipe or a socket takes.
type unsized struct{ io.Reader }

// TestParentCheckpointRestores: a checkpoint the parent commit wrote
// still decodes, restores into a solver, and re-encodes to identical
// bytes through every encode entry point.
func TestParentCheckpointRestores(t *testing.T) {
	raw := fixtureBytes(t)
	in, err := ReadInterior(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if in.Spec != grid.NewSpec(3, 4) || in.Step != 3 {
		t.Fatalf("fixture decoded to grid %+v step %d", in.Spec, in.Step)
	}
	got, err := in.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Error("Interior.Bytes of the decoded fixture differs from the fixture")
	}
	if cap(got) != len(raw) {
		t.Errorf("Bytes sized its destination to %d for a %d-byte checkpoint", cap(got), len(raw))
	}
	sv, err := ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Error("WriteCheckpoint of the restored solver differs from the fixture")
	}
	// The restored solver steps: blank construction left nothing the
	// stencils read unset.
	sv.Advance(sv.EstimateDT(0.3))
	if err := sv.CheckFinite(); err != nil {
		t.Error(err)
	}
}

// TestEncodeEquivalence: over random small grids, Encode(InteriorOf(sv))
// and WriteCheckpoint(sv) are the same bytes, whatever the writer's
// chunking, and decode back to the same slabs whether or not the reader
// knows its length.
func TestEncodeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 6; trial++ {
		spec := grid.NewSpec(3+rng.Intn(7), 4+rng.Intn(8))
		ic := mhd.DefaultIC()
		ic.Seed = rng.Uint64()
		ic.SeedBAmp = 0.05
		sv, err := mhd.NewSolver(spec, mhd.Default(), ic)
		if err != nil {
			t.Fatal(err)
		}
		sv.Advance(sv.EstimateDT(0.3))

		var direct bytes.Buffer
		if err := WriteCheckpoint(&direct, sv); err != nil {
			t.Fatal(err)
		}
		in := InteriorOf(sv)
		viaInterior, err := in.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), viaInterior) {
			t.Fatalf("grid %+v: Encode(InteriorOf(sv)) differs from WriteCheckpoint(sv)", spec)
		}
		if len(viaInterior) != encodedLen(spec) {
			t.Fatalf("grid %+v: %d bytes encoded, encodedLen says %d", spec, len(viaInterior), encodedLen(spec))
		}
		for _, r := range []io.Reader{bytes.NewReader(viaInterior), unsized{bytes.NewReader(viaInterior)}} {
			back, err := ReadInterior(r)
			if err != nil {
				t.Fatal(err)
			}
			for pi := range in.Fields {
				for si := range in.Fields[pi] {
					a, b := in.Fields[pi][si], back.Fields[pi][si]
					if len(a) != len(b) {
						t.Fatalf("grid %+v panel %d scalar %d: %d values decoded, want %d", spec, pi, si, len(b), len(a))
					}
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("grid %+v panel %d scalar %d differs at %d", spec, pi, si, i)
						}
					}
				}
			}
		}
	}
}

// TestEncodeAllocBudget pins what the codec rewrite bought: encoding an
// Interior into a pre-sized destination allocates a handful of objects
// and no more than the one chunk buffer's worth of bytes, where the
// per-row scratch of the old encoder cost 51 264 objects and 1.6 GiB
// for a 13.5 MB checkpoint.
func TestEncodeAllocBudget(t *testing.T) {
	in := InteriorOf(makeSolver(t, 0))
	dst := bytes.NewBuffer(make([]byte, 0, encodedLen(in.Spec)))
	var err error
	objects, size := allocated(func() { err = in.Encode(dst) })
	if err != nil {
		t.Fatal(err)
	}
	if dst.Len() != encodedLen(in.Spec) {
		t.Fatalf("encoded %d bytes, want %d", dst.Len(), encodedLen(in.Spec))
	}
	// The counters are process-wide; the slack over the encoder's own 4
	// objects absorbs the runtime's.
	if objects > 16 || size > 64<<10 {
		t.Errorf("Encode into a pre-sized buffer allocated %d objects, %d bytes; budget 16 objects, 64 KiB", objects, size)
	}
}

// hugeHeader is the ~100-byte corrupt "newest" checkpoint of the bug
// report: a header whose every field passes the sanity bounds and that
// describes the largest grid they allow (1.3e13 values a slab), with
// tail bytes of payload behind it.
func hugeHeader(tail int) []byte {
	raw := make([]byte, headerLen+tail)
	copy(raw, Magic)
	h := header{Version: Version, Nr: 1 << 14, Nt: 1 << 14, Np: 3 << 14, RI: 0.35, RO: 1}
	var hb bytes.Buffer
	_ = binary.Write(&hb, binary.LittleEndian, &h)
	copy(raw[len(Magic):], hb.Bytes())
	return raw
}

// TestDecodeAllocationBoundedByInput: a header may describe any grid the
// sanity bounds allow, but the decoder allocates what the input can
// hold, not what the header claims — the old one asked make() for
// 1e14 bytes here before reading a byte of payload.
func TestDecodeAllocationBoundedByInput(t *testing.T) {
	raw := hugeHeader(64)
	for name, r := range map[string]io.Reader{
		"sized":   bytes.NewReader(raw),
		"unsized": unsized{bytes.NewReader(raw)},
	} {
		var err error
		_, size := allocated(func() { _, err = ReadInterior(r) })
		var de *DecodeError
		if !errors.As(err, &de) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: got %v, want a *DecodeError wrapping io.ErrUnexpectedEOF", name, err)
			continue
		}
		if de.Offset != int64(len(raw)) || !strings.Contains(err.Error(), "reading field (panel 0, scalar 0)") {
			t.Errorf("%s: error %q at offset %d, want the first field at offset %d", name, err, de.Offset, len(raw))
		}
		if size > 256<<10 {
			t.Errorf("%s: decoding a %d-byte input allocated %d bytes", name, len(raw), size)
		}
	}
	// A regular file is a reader that knows its length too.
	path := pathWrite(t, raw)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, ok := remaining(f); !ok || n != int64(len(raw)) {
		t.Errorf("remaining(*os.File) = %d, %v; want %d, true", n, ok, len(raw))
	}
}

// fuzzSeeds are the committed seed inputs of both fuzz targets, derived
// from the parent-written fixture: the valid checkpoint, cuts inside and
// at the end of every section, bit flips in each header field class,
// a wrong checksum, and the huge-header report.
func fuzzSeeds(f *testing.F) {
	raw := fixtureBytes(f)
	f.Add(raw)
	slab := 8 * 3 * 4 * 10
	for _, cut := range []int{0, 3, len(Magic), 60, headerLen, headerLen + slab/2, headerLen + slab,
		headerLen + 9*slab + 8, len(raw) - checksumLen, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	// Header offsets: version 4, Nr 8, Nt 12, Np 16, RI 20, RO 28,
	// MagBC 92, Time 100, Step 108.
	for _, pos := range []int{0, 4, 8, 9, 12, 16, 18, 20, 27, 35, 40, 92, 100, 107, 108, 115} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 1 << (pos % 8)
		f.Add(mut)
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)-2] ^= 0x10
	f.Add(mut)
	f.Add(hugeHeader(0))
	f.Add(hugeHeader(200))
}

// FuzzReadInterior: whatever the bytes, and whether or not the reader
// knows its length, the decoder never panics, rejects with a
// *DecodeError whose offset lies inside the input and whose message
// names it, allocates no more than a small multiple of the input, and
// what it accepts re-encodes to the bytes it read.
func FuzzReadInterior(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, r := range []io.Reader{bytes.NewReader(data), unsized{bytes.NewReader(data)}} {
			var in *Interior
			var err error
			_, size := allocated(func() { in, err = ReadInterior(r) })
			if budget := uint64(4*len(data) + 256<<10); size > budget {
				t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), size, budget)
			}
			if err != nil {
				var de *DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("rejection is %T (%v), want a *DecodeError", err, err)
				}
				if de.Offset < 0 || de.Offset > int64(len(data)) || !strings.Contains(err.Error(), "offset") {
					t.Fatalf("rejection %q carries offset %d for a %d-byte input", err, de.Offset, len(data))
				}
				continue
			}
			again, err := in.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data[:len(again)]) {
				t.Fatal("an accepted checkpoint re-encodes to other bytes")
			}
		}
	})
}

// FuzzReadCheckpoint: the solver-building reader never panics either —
// bytes the decoder accepts but whose grid or parameters cannot host a
// solver come back as an error.
func FuzzReadCheckpoint(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sv, err := ReadCheckpoint(bytes.NewReader(data))
		if (sv == nil) == (err == nil) {
			t.Fatalf("ReadCheckpoint returned solver %v, error %v", sv != nil, err)
		}
	})
}
