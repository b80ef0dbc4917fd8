package viz

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/mhd"
)

func convectionSolver(t *testing.T, steps int) *mhd.Solver {
	t.Helper()
	sv, err := mhd.NewSolver(grid.NewSpec(13, 13), mhd.Default(), mhd.DefaultIC())
	if err != nil {
		t.Fatal(err)
	}
	dt := sv.EstimateDT(0.3)
	for n := 0; n < steps; n++ {
		sv.Advance(dt)
	}
	return sv
}

// TestCoverageMap: every pixel of the sphere is covered; the overlap
// fraction matches the analytic ~6% of Fig. 1.
func TestCoverageMap(t *testing.T) {
	im := CoverageMap(180, 360)
	for i, v := range im.Data {
		if v == 0 {
			t.Fatalf("uncovered pixel %d", i)
		}
	}
	frac := OverlapPixelFraction(im)
	want := grid.OverlapFraction()
	if math.Abs(frac-want) > 0.005 {
		t.Errorf("overlap fraction %v, want %v", frac, want)
	}
}

// TestSampleTemperatureProfile: sampling the conduction state recovers
// the radial profile anywhere on the sphere, across panel boundaries.
func TestSampleTemperatureProfile(t *testing.T) {
	prm := mhd.Default()
	sv, err := mhd.NewSolver(grid.NewSpec(17, 17), prm,
		mhd.InitialConditions{PerturbAmp: 0, SeedBAmp: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(sv)
	pf := mhd.NewProfile(prm, sv.Spec.RI, sv.Spec.RO)
	var m float64
	for _, pt := range [][3]float64{
		{0.5, 1.0, 0.3},
		{0.7, 0.2, 2.8}, // near the geographic pole: Yang territory
		{0.9, math.Pi / 2, -3.0},
		{0.4, 2.9, 0.0}, // south polar region
		{0.6, math.Pi / 2, math.Pi},
	} {
		got, ok := s.SampleAt(Temperature, pt[0], pt[1], pt[2])
		if !ok {
			t.Fatalf("point %v not sampled", pt)
		}
		if e := math.Abs(got - pf.T(pt[0])); e > m {
			m = e
		}
	}
	if m > 5e-3 {
		t.Errorf("temperature sampling error %g", m)
	}
	if _, ok := s.SampleAt(Temperature, 0.1, 1, 1); ok {
		t.Error("inside the inner core should not sample")
	}
}

func TestEquatorialSliceMask(t *testing.T) {
	sv := convectionSolver(t, 0)
	s := NewSampler(sv)
	im := EquatorialSlice(s, Density, 64)
	// Center pixel: r ~ 0 -> masked out; rim of the square: r > ro ->
	// masked out... the corners exceed ro.
	if _, ok := im.At(32, 32); ok {
		t.Error("center (inner core) should be masked")
	}
	if _, ok := im.At(0, 0); ok {
		t.Error("corner (outside shell) should be masked")
	}
	// Mid-radius pixel inside.
	if v, ok := im.At(32+20, 32); !ok || v <= 0 {
		t.Errorf("mid-radius density = %v ok=%v", v, ok)
	}
}

func TestMeridionalSlice(t *testing.T) {
	sv := convectionSolver(t, 0)
	s := NewSampler(sv)
	im := MeridionalSlice(s, Temperature, 0.5, 48)
	any := false
	for i := range im.Mask {
		if im.Mask[i] && im.Data[i] > 0 {
			any = true
		}
	}
	if !any {
		t.Error("empty meridional slice")
	}
}

// TestVorticityColumns: after some convection spin-up, the equatorial
// vorticity slice shows alternating cyclonic and anti-cyclonic columns
// (Fig. 2(c)/(d)).
func TestVorticityColumns(t *testing.T) {
	sv := convectionSolver(t, 60)
	s := NewSampler(sv)
	im := EquatorialSlice(s, VortZ, 96)
	if im.MaxAbs() == 0 {
		t.Fatal("no vorticity after spin-up")
	}
	cyc, anti := CountColumns(im, 0.1)
	if cyc+anti < 2 {
		t.Errorf("columns: %d cyclonic, %d anti-cyclonic; want at least 2 total", cyc, anti)
	}
}

// TestCountColumnsSynthetic: two blobs of opposite sign plus a speckle.
func TestCountColumnsSynthetic(t *testing.T) {
	im := NewImage(32, 32)
	for i := range im.Mask {
		im.Mask[i] = true
	}
	put := func(cx, cy, rad int, v float64) {
		for y := cy - rad; y <= cy+rad; y++ {
			for x := cx - rad; x <= cx+rad; x++ {
				im.Data[y*32+x] = v
			}
		}
	}
	put(8, 8, 2, 1.0)
	put(24, 24, 2, -1.0)
	im.Data[16*32+16] = 0.9 // single-pixel speckle: ignored
	cyc, anti := CountColumns(im, 0.5)
	if cyc != 1 || anti != 1 {
		t.Errorf("counts = (%d, %d), want (1, 1)", cyc, anti)
	}
	empty := NewImage(8, 8)
	if c, a := CountColumns(empty, 0.5); c != 0 || a != 0 {
		t.Errorf("empty image counts (%d,%d)", c, a)
	}
}

func TestWritePPM(t *testing.T) {
	im := NewImage(10, 6)
	for i := range im.Data {
		im.Data[i] = float64(i%5) - 2
		im.Mask[i] = i%7 != 0
	}
	var buf bytes.Buffer
	if err := WritePPM(&buf, im); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	want := []byte("P6\n10 6\n255\n")
	if !bytes.HasPrefix(b, want) {
		t.Fatalf("bad header %q", b[:len(want)])
	}
	if len(b) != len(want)+10*6*3 {
		t.Errorf("payload size %d", len(b)-len(want))
	}
	// First pixel is masked -> black.
	px := b[len(want):]
	if px[0] != 0 || px[1] != 0 || px[2] != 0 {
		t.Error("masked pixel not black")
	}
}

// TestDoubleSolutionInvisibleInSlice: the paper notes the Yin-Yang
// internal border leaves no visible seam. Quantify: the equatorial
// temperature slice of a smooth state has no pixel-to-pixel jump larger
// than a few times the typical gradient step.
func TestDoubleSolutionInvisibleInSlice(t *testing.T) {
	sv := convectionSolver(t, 6)
	s := NewSampler(sv)
	im := EquatorialSlice(s, Temperature, 128)
	var maxJump, typJump float64
	n := 0
	for y := 0; y < im.H; y++ {
		for x := 1; x < im.W; x++ {
			a, okA := im.At(x-1, y)
			b, okB := im.At(x, y)
			if !okA || !okB {
				continue
			}
			j := math.Abs(a - b)
			if j > maxJump {
				maxJump = j
			}
			typJump += j
			n++
		}
	}
	typJump /= float64(n)
	if maxJump > 25*typJump {
		t.Errorf("visible seam: max jump %g vs typical %g", maxJump, typJump)
	}
}

// At returns the value at (x, y).
func (im *Image) At(x, y int) (float64, bool) {
	i := y*im.W + x
	return im.Data[i], im.Mask[i]
}
