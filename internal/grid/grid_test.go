package grid

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/coords"
)

func TestPanelStringOther(t *testing.T) {
	if Yin.String() != "Yin" || Yang.String() != "Yang" {
		t.Error("panel names")
	}
	if Yin.Other() != Yang || Yang.Other() != Yin {
		t.Error("panel Other")
	}
}

func TestNewSpecEqualSpacing(t *testing.T) {
	s := NewSpec(17, 33)
	if s.Np != 3*32+1 {
		t.Fatalf("Np = %d", s.Np)
	}
	if math.Abs(s.Dt()-s.Dp()) > 1e-15 {
		t.Errorf("dt=%v dp=%v not equal", s.Dt(), s.Dp())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Nr: 2, Nt: 5, Np: 5, RI: 0.3, RO: 1},
		{Nr: 5, Nt: 2, Np: 5, RI: 0.3, RO: 1},
		{Nr: 5, Nt: 5, Np: 2, RI: 0.3, RO: 1},
		{Nr: 5, Nt: 5, Np: 5, RI: 0, RO: 1},
		{Nr: 5, Nt: 5, Np: 5, RI: 1.5, RO: 1},
	}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("%+v should fail validation", s)
		}
	}
}

func TestTotalPointsMatchesPaperGrid(t *testing.T) {
	// The paper's largest run: 511 (radial) x 514 (lat) x 1538 (lon) x 2.
	s := Spec{Nr: 511, Nt: 514, Np: 1538, RI: 0.35, RO: 1}
	want := int64(511) * 514 * 1538 * 2
	if got := s.TotalPoints(); got != want {
		t.Errorf("TotalPoints = %d, want %d", got, want)
	}
	// About 8.1e8 as the paper states.
	if f := float64(s.TotalPoints()); f < 8.0e8 || f > 8.2e8 {
		t.Errorf("paper grid size %g not about 8.1e8", f)
	}
}

// TestOverlapFraction: the overlapped area is about 6% of the sphere
// (paper, section II).
func TestOverlapFraction(t *testing.T) {
	got := OverlapFraction()
	if got < 0.057 || got > 0.065 {
		t.Errorf("overlap fraction = %v, want about 0.06", got)
	}
}

// TestSphereCoverage: every point of the sphere lies in at least one
// panel's footprint (Fig. 1(b): the two grids combined cover the sphere).
func TestSphereCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for n := 0; n < 20000; n++ {
		// Uniform point on the sphere.
		z := 2*r.Float64() - 1
		phi := (2*r.Float64() - 1) * math.Pi
		theta := math.Acos(z)
		inYin := Contains(theta, phi, 0)
		ty, py := coords.YinYangAngles(theta, phi)
		inYang := Contains(ty, py, 0)
		if !inYin && !inYang {
			t.Fatalf("point theta=%v phi=%v covered by neither panel", theta, phi)
		}
	}
}

// TestBoundaryInsidePartner: every node on a panel's angular boundary lies
// within the partner's footprint, so its value can be interpolated (the
// overset internal boundary condition).
func TestBoundaryInsidePartner(t *testing.T) {
	s := NewSpec(5, 65)
	p := NewPatch(s, Yin, 1)
	h := p.H
	const tol = 1e-12
	check := func(j, k int) {
		ty, py := coords.YinYangAngles(p.Theta[j], p.Phi[k])
		if !Contains(ty, py, tol) {
			t.Fatalf("boundary node theta=%v phi=%v maps outside partner (%v, %v)",
				p.Theta[j], p.Phi[k], ty, py)
		}
	}
	for k := h; k < h+p.Np; k++ {
		check(h, k)
		check(h+p.Nt-1, k)
	}
	for j := h; j < h+p.Nt; j++ {
		check(j, h)
		check(j, h+p.Np-1)
	}
}

func TestPatchCoordinates(t *testing.T) {
	s := NewSpec(9, 17)
	p := NewPatch(s, Yin, 1)
	h := p.H
	if math.Abs(p.R[h]-s.RI) > 1e-15 || math.Abs(p.R[h+p.Nr-1]-s.RO) > 1e-15 {
		t.Errorf("radial endpoints %v..%v", p.R[h], p.R[h+p.Nr-1])
	}
	if math.Abs(p.Theta[h]-ThetaMin) > 1e-15 || math.Abs(p.Theta[h+p.Nt-1]-ThetaMax) > 1e-14 {
		t.Errorf("theta endpoints %v..%v", p.Theta[h], p.Theta[h+p.Nt-1])
	}
	if math.Abs(p.Phi[h]-PhiMin) > 1e-14 || math.Abs(p.Phi[h+p.Np-1]-PhiMax) > 1e-14 {
		t.Errorf("phi endpoints %v..%v", p.Phi[h], p.Phi[h+p.Np-1])
	}
	// Halo coordinates continue the uniform spacing.
	if math.Abs(p.R[h-1]-(s.RI-p.Dr)) > 1e-15 {
		t.Errorf("halo radius %v", p.R[h-1])
	}
	// Metric arrays consistent.
	for j := range p.Theta {
		if math.Abs(p.SinT[j]-math.Sin(p.Theta[j])) > 1e-15 {
			t.Fatalf("SinT[%d]", j)
		}
		if p.SinT[j] != 0 && math.Abs(p.CotT[j]-p.CosT[j]/p.SinT[j]) > 1e-12 {
			t.Fatalf("CotT[%d]", j)
		}
	}
	for i := range p.R {
		if p.R[i] != 0 && math.Abs(p.InvR2[i]*p.R[i]*p.R[i]-1) > 1e-13 {
			t.Fatalf("InvR2[%d]", i)
		}
	}
}

func TestSubPatchOffsets(t *testing.T) {
	s := NewSpec(9, 17)
	p := NewSubPatch(s, Yang, 1, 0, 9, 4, 8, 10, 20)
	if p.Nt != 4 || p.Np != 10 || p.Nr != 9 {
		t.Fatalf("block shape %+v", p.Shape)
	}
	// Local first interior theta node is global node 4.
	want := ThetaMin + 4*s.Dt()
	if math.Abs(p.Theta[p.H]-want) > 1e-14 {
		t.Errorf("subpatch theta start %v, want %v", p.Theta[p.H], want)
	}
	if p.GlobalEdge(2) {
		t.Error("block does not touch theta-min edge")
	}
	if !p.GlobalEdge(0) || !p.GlobalEdge(1) {
		t.Error("block spans full radius")
	}
	if p.GlobalEdge(5) {
		t.Error("block does not touch phi-max edge")
	}
}

func TestNewSubPatchPanics(t *testing.T) {
	s := NewSpec(9, 17)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range block")
		}
	}()
	NewSubPatch(s, Yin, 1, 0, 9, 0, s.Nt+1, 0, s.Np)
}

// TestShellVolumeQuadrature: summing CellVolume over one panel's nodes
// approximates the panel's share of the shell volume; over both panels it
// overshoots the true shell volume by exactly the overlap fraction of the
// angular measure.
func TestShellVolumeQuadrature(t *testing.T) {
	s := NewSpec(17, 33)
	p := NewPatch(s, Yin, 1)
	var vol float64
	h := p.H
	for k := h; k < h+p.Np; k++ {
		for j := h; j < h+p.Nt; j++ {
			for i := h; i < h+p.Nr; i++ {
				vol += p.CellVolume(i, j, k)
			}
		}
	}
	shell := 4 * math.Pi / 3 * (math.Pow(s.RO, 3) - math.Pow(s.RI, 3))
	wantFrac := (1 + OverlapFraction()) / 2 // one panel covers this fraction
	got := vol / shell
	if math.Abs(got-wantFrac) > 0.01 {
		t.Errorf("panel volume fraction = %v, want about %v", got, wantFrac)
	}
}

func TestMinAngularSpacingYinYang(t *testing.T) {
	s := NewSpec(17, 65)
	// Longitudinal spacing bottoms out at sin(pi/4), so the minimum is
	// within a factor sqrt(2) of dt.
	min := s.MinAngularSpacing()
	if min < s.Dt()*0.7 || min > s.Dt() {
		t.Errorf("min spacing %v vs dt %v", min, s.Dt())
	}
}

func TestLatLonSpec(t *testing.T) {
	y := NewSpec(17, 65)
	ll := NewLatLonSpec(y)
	if math.Abs(ll.Dt()-y.Dt()) > y.Dt()*0.02 {
		t.Errorf("lat-lon dt %v vs yin-yang %v", ll.Dt(), y.Dt())
	}
	// Full sphere: about 2x the theta span, 4/3 the phi span.
	if ll.Nt < 2*(y.Nt-1) || ll.Nt > 2*y.Nt+2 {
		t.Errorf("lat-lon Nt = %d for yin-yang Nt = %d", ll.Nt, y.Nt)
	}
}

// TestPoleClustering: lat-lon minimum spacing collapses ~ dt^2 while
// Yin-Yang stays ~ dt (the paper's motivation, ablation A3).
func TestPoleClustering(t *testing.T) {
	y := NewSpec(17, 129)
	ll := NewLatLonSpec(y)
	ratio := y.MinAngularSpacing() / ll.MinAngularSpacing()
	// dp*sin(dt) vs dt*sin(pi/4): ratio about 0.7/sin(dt) >> 1.
	if ratio < 10 {
		t.Errorf("expected Yin-Yang min spacing >> lat-lon near poles, ratio = %v", ratio)
	}
}

// TestPointEconomy: at equal angular resolution the lat-lon grid spends
// about 4/3 the points of the Yin-Yang pair (4 pi steradians of lat-lon
// cells vs 2 x 1.06 * 2 pi * ... ). The precise discrete ratio is near
// (4 pi / dt dp) / (2 * Nt * Np) ~ 1.26.
func TestPointEconomy(t *testing.T) {
	y := NewSpec(17, 129)
	ratio := PointRatioVersusYinYang(y)
	if ratio < 1.15 || ratio > 1.4 {
		t.Errorf("point ratio = %v, want about 1.26", ratio)
	}
}

func TestContainsTolerance(t *testing.T) {
	if Contains(ThetaMin-1e-3, 0, 0) {
		t.Error("outside point accepted")
	}
	if !Contains(ThetaMin-1e-3, 0, 1e-2) {
		t.Error("tolerance not honored")
	}
}

// TestTrimStudy: the rectangular patch tolerates a nonzero longitude
// trim before coverage breaks, the overlap shrinks monotonically with
// the trim, and any colatitude trim immediately opens holes (the
// latitude extent is exactly the complementary 90 degrees).
func TestTrimStudy(t *testing.T) {
	const n = 20000
	if !CoversWithTrim(0, 0, n) {
		t.Fatal("untrimmed pair must cover the sphere")
	}
	if CoversWithTrim(0.05, 0, n) {
		t.Error("colatitude trim of 0.05 should break coverage")
	}
	// The basic rectangle is TIGHT under uniform trims: the image of each
	// panel's colatitude-edge midpoint lands exactly on the partner's
	// longitude edge, so any uniform longitude trim opens a hole there.
	// (This is why the paper reduces overlap by reshaping — cutting the
	// corners — rather than shrinking the rectangle.)
	if dmax := MaxPhiTrim(n); dmax > 0.01 {
		t.Errorf("uniform phi trim should have (near) zero margin, got %v", dmax)
	}
	// The corners, in contrast, "intrude most into the other component
	// grid" (paper, section II): a sizable square corner cut keeps full
	// coverage and shrinks the overlap.
	cmax := MaxCornerCut(n)
	if cmax < 0.1 {
		t.Fatalf("expected a usable corner-cut margin, got %v", cmax)
	}
	if CoversWithCornerCut(cmax*1.3, n) {
		t.Errorf("cut beyond the bisection limit %v should break coverage", cmax)
	}
	ov0 := TrimmedOverlapFraction(0, 0, n)
	ovC := CornerCutOverlapFraction(cmax*0.95, n)
	if math.Abs(ov0-OverlapFraction()) > 0.01 {
		t.Errorf("sampled untrimmed overlap %v vs analytic %v", ov0, OverlapFraction())
	}
	if ovC >= ov0*0.9 {
		t.Errorf("corner cut did not reduce the overlap meaningfully: %v -> %v", ov0, ovC)
	}
}
