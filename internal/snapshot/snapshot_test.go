package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mhd"
)

func makeSolver(t *testing.T, steps int) *mhd.Solver {
	t.Helper()
	sv, err := mhd.NewSolver(grid.NewSpec(9, 13), mhd.Default(), mhd.DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < steps; n++ {
		sv.Advance(dt)
	}
	return sv
}

// TestCheckpointRoundTrip: write/read restores every state value (halos
// included), the clock, and the parameters, bit for bit.
func TestCheckpointRoundTrip(t *testing.T) {
	sv := makeSolver(t, 3)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sv); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != sv.Time || got.Step != sv.Step {
		t.Errorf("clock: %v/%d vs %v/%d", got.Time, got.Step, sv.Time, sv.Step)
	}
	if got.Prm != sv.Prm {
		t.Errorf("params: %+v vs %+v", got.Prm, sv.Prm)
	}
	if got.Spec != sv.Spec {
		t.Errorf("spec: %+v vs %+v", got.Spec, sv.Spec)
	}
	// Interior equality: the payload carries only interior nodes; the
	// restored halos are rebuilt by the constraint application.
	for pi := range sv.Panels {
		a := sv.Panels[pi].U.Scalars()
		b := got.Panels[pi].U.Scalars()
		for vi := range a {
			bs := b[vi]
			a[vi].EachInteriorRow(func(i0 int, row []float64) {
				for off := range row {
					if row[off] != bs.Data[i0+off] {
						t.Fatalf("panel %d var %d differs at %d", pi, vi, i0+off)
					}
				}
			})
		}
	}
}

// TestRestartContinuesExactly: advancing the original and the restored
// solver produces identical states — restart is invisible.
func TestRestartContinuesExactly(t *testing.T) {
	sv := makeSolver(t, 2)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sv); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 1.5e-3
	for n := 0; n < 3; n++ {
		sv.Advance(dt)
		restored.Advance(dt)
	}
	for pi := range sv.Panels {
		a := sv.Panels[pi].U.Scalars()
		b := restored.Panels[pi].U.Scalars()
		for vi := range a {
			bs := b[vi]
			a[vi].EachInteriorRow(func(i0 int, row []float64) {
				for off := range row {
					if row[off] != bs.Data[i0+off] {
						t.Fatalf("restart diverged: panel %d var %d index %d", pi, vi, i0+off)
					}
				}
			})
		}
	}
}

// TestCorruptionDetected: flipping any byte fails the checksum (or the
// header validation).
func TestCorruptionDetected(t *testing.T) {
	sv := makeSolver(t, 1)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sv); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, pos := range []int{2, 40, len(raw) / 2, len(raw) - 6} {
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at byte %d not detected", pos)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	sv := makeSolver(t, 1)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sv); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadCheckpoint(bytes.NewReader(raw[:len(raw)/3])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestVizExportShape: node bookkeeping and subsampling sizes.
func TestVizExportShape(t *testing.T) {
	sv := makeSolver(t, 1)
	full, err := BuildVizExport(sv, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantN := sv.Spec.Nr * sv.Spec.Nt * sv.Spec.Np
	for pi := range full.Fields {
		for f, data := range full.Fields[pi] {
			if len(data) != wantN {
				t.Fatalf("panel %d field %d: %d values, want %d", pi, f, len(data), wantN)
			}
		}
	}
	if full.Bytes() != int64(4*10*2*wantN) {
		t.Errorf("bytes = %d", full.Bytes())
	}

	sub, err := BuildVizExport(sv, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every second angular node in each direction: roughly a quarter.
	ratio := float64(sub.Bytes()) / float64(full.Bytes())
	if ratio < 0.2 || ratio > 0.32 {
		t.Errorf("subsample ratio %v", ratio)
	}
	if _, err := BuildVizExport(sv, 0); err == nil {
		t.Error("zero subsample accepted")
	}
}

// TestVizExportPhysics: the exported temperature matches the state, and
// the Cartesian velocity magnitude matches the spherical magnitude
// (rotation to geographic components preserves length).
func TestVizExportPhysics(t *testing.T) {
	sv := makeSolver(t, 3)
	ex, err := BuildVizExport(sv, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pi, pl := range sv.Panels {
		p := pl.Patch
		h := p.H
		idx := 0
		for k := 0; k < p.Np; k++ {
			for j := 0; j < p.Nt; j++ {
				for i := 0; i < p.Nr; i++ {
					wantT := pl.T.At(i+h, j+h, k+h)
					gotT := float64(ex.Fields[pi][9][idx])
					if math.Abs(gotT-wantT) > 1e-5*(1+math.Abs(wantT)) {
						t.Fatalf("T mismatch at %d: %v vs %v", idx, gotT, wantT)
					}
					vr := pl.V.R.At(i+h, j+h, k+h)
					vt := pl.V.T.At(i+h, j+h, k+h)
					vp := pl.V.P.At(i+h, j+h, k+h)
					wantMag := math.Sqrt(vr*vr + vt*vt + vp*vp)
					gx := float64(ex.Fields[pi][3][idx])
					gy := float64(ex.Fields[pi][4][idx])
					gz := float64(ex.Fields[pi][5][idx])
					gotMag := math.Sqrt(gx*gx + gy*gy + gz*gz)
					if math.Abs(gotMag-wantMag) > 1e-5*(1+wantMag) {
						t.Fatalf("|v| mismatch at %d: %v vs %v", idx, gotMag, wantMag)
					}
					idx++
				}
			}
		}
	}
}

func TestWriteVizExport(t *testing.T) {
	sv := makeSolver(t, 1)
	ex, err := BuildVizExport(sv, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVizExport(&buf, ex); err != nil {
		t.Fatal(err)
	}
	want := 4 + 6*4 + 8 + int(ex.Bytes())
	if buf.Len() != want {
		t.Errorf("container size %d, want %d", buf.Len(), want)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("YYVZ")) {
		t.Error("bad magic")
	}
}

// checkpointBytes serializes a small solver for the corruption tests.
func checkpointBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, makeSolver(t, 1)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCheckpointTruncated: a checkpoint cut off at any point — an
// interrupted write, a torn download — must come back as an error, not
// a panic or a silently partial solver.
func TestReadCheckpointTruncated(t *testing.T) {
	raw := checkpointBytes(t)
	for _, cut := range []int{0, 1, 3, 4, 40, len(Magic) + 112, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		if _, err := ReadCheckpoint(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("checkpoint truncated to %d of %d bytes read back without error", cut, len(raw))
		}
	}
}

// TestReadCheckpointBitFlips: every single-bit flip — header, payload
// or the stored checksum itself — is rejected (CRC-32 detects all
// single-bit errors; the header additionally carries sanity bounds so
// a flipped dimension cannot provoke a huge allocation first).
func TestReadCheckpointBitFlips(t *testing.T) {
	raw := checkpointBytes(t)
	positions := make([]int, 0, 256)
	for i := 0; i < len(Magic)+112 && i < len(raw); i++ {
		positions = append(positions, i) // the whole header, densely
	}
	payload := len(raw) - (len(Magic) + 112) - 4
	for i := 0; i < 16; i++ { // payload, sampled
		positions = append(positions, len(Magic)+112+i*payload/16)
	}
	for i := len(raw) - 4; i < len(raw); i++ {
		positions = append(positions, i) // the stored checksum itself
	}
	for _, pos := range positions {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 1 << (pos % 8)
		if _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d read back without error", pos)
		}
	}
}

// TestReadCheckpointHeaderBounds: implausible header fields are
// rejected before any allocation sized from them.
func TestReadCheckpointHeaderBounds(t *testing.T) {
	raw := checkpointBytes(t)
	corrupt := func(mutate func([]byte)) error {
		mut := append([]byte(nil), raw...)
		mutate(mut)
		_, err := ReadCheckpoint(bytes.NewReader(mut))
		return err
	}
	// Header field offsets (after the 4-byte magic): Nr at 8, Step at 104.
	err := corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[4+4:], 0x7fffffff) })
	if err == nil || !strings.Contains(err.Error(), "implausible grid") {
		t.Errorf("huge Nr: got %v, want an implausible-grid rejection", err)
	}
	err = corrupt(func(b []byte) { binary.LittleEndian.PutUint64(b[4+104:], ^uint64(0)) })
	if err == nil || !strings.Contains(err.Error(), "implausible clock") {
		t.Errorf("negative step: got %v, want an implausible-clock rejection", err)
	}
	err = corrupt(func(b []byte) { binary.LittleEndian.PutUint64(b[4+16:], math.Float64bits(math.NaN())) })
	if err == nil || !strings.Contains(err.Error(), "implausible shell radii") {
		t.Errorf("NaN RI: got %v, want an implausible-radii rejection", err)
	}
}

// TestReadCheckpointEmpty: an empty file is an error, never a panic.
func TestReadCheckpointEmpty(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Error("empty checkpoint read back without error")
	}
}

// TestReadErrorsNameOffset is the diagnosability satellite: decode and
// checksum failures name the byte offset of the damage, so a corrupt
// checkpoint is localizable without a hexdump hunt.
func TestReadErrorsNameOffset(t *testing.T) {
	raw := checkpointBytes(t)

	// A payload bit flip trips the trailing checksum; the message names
	// the stored and computed sums and the payload extent.
	mut := append([]byte(nil), raw...)
	mut[len(raw)/2] ^= 0x4
	_, err := ReadCheckpoint(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch over bytes 0..") ||
		!strings.Contains(err.Error(), "at offset") {
		t.Errorf("payload flip: got %v, want a checksum mismatch naming the offsets", err)
	}

	// A truncated payload fails mid-field; the message names the panel,
	// the scalar, and the byte offset reached.
	_, err = ReadCheckpoint(bytes.NewReader(raw[:len(raw)/2]))
	if err == nil || !strings.Contains(err.Error(), "reading field") ||
		!strings.Contains(err.Error(), "at byte offset") {
		t.Errorf("truncation: got %v, want a field-read failure naming the offset", err)
	}

	// A header failure names the offset too.
	_, err = ReadCheckpoint(bytes.NewReader(raw[:7]))
	if err == nil || !strings.Contains(err.Error(), "at byte offset") {
		t.Errorf("short header: got %v, want an offset-annotated header failure", err)
	}
}

func pathWrite(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt-000000001.yyck")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
