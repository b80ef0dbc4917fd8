package sphops

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
)

func patch(nt int) *grid.Patch {
	return grid.NewPatch(grid.NewSpec(nt, nt), grid.Yin, 1)
}

func fillScalar(p *grid.Patch, f *field.Scalar, fn func(r, t, ph float64) float64) {
	nr, nt, np := p.Padded()
	for k := 0; k < np; k++ {
		for j := 0; j < nt; j++ {
			for i := 0; i < nr; i++ {
				f.Set(i, j, k, fn(p.R[i], p.Theta[j], p.Phi[k]))
			}
		}
	}
}

func fillVector(p *grid.Patch, v *field.Vector, fn func(r, t, ph float64) (vr, vt, vp float64)) {
	nr, nt, np := p.Padded()
	for k := 0; k < np; k++ {
		for j := 0; j < nt; j++ {
			for i := 0; i < nr; i++ {
				vr, vt, vp := fn(p.R[i], p.Theta[j], p.Phi[k])
				v.R.Set(i, j, k, vr)
				v.T.Set(i, j, k, vt)
				v.P.Set(i, j, k, vp)
			}
		}
	}
}

// maxErrScalar measures max abs error over nodes margin in from the patch
// edge in every dimension.
func maxErrScalar(p *grid.Patch, g *field.Scalar, fn func(r, t, ph float64) float64, margin int) float64 {
	h := p.H
	var m float64
	for k := h + margin; k < h+p.Np-margin; k++ {
		for j := h + margin; j < h+p.Nt-margin; j++ {
			for i := h + margin; i < h+p.Nr-margin; i++ {
				e := math.Abs(g.At(i, j, k) - fn(p.R[i], p.Theta[j], p.Phi[k]))
				if e > m {
					m = e
				}
			}
		}
	}
	return m
}

func maxErrVector(p *grid.Patch, g *field.Vector, fn func(r, t, ph float64) (a, b, c float64), margin int) float64 {
	h := p.H
	var m float64
	for k := h + margin; k < h+p.Np-margin; k++ {
		for j := h + margin; j < h+p.Nt-margin; j++ {
			for i := h + margin; i < h+p.Nr-margin; i++ {
				wr, wt, wp := fn(p.R[i], p.Theta[j], p.Phi[k])
				for _, d := range []float64{
					g.R.At(i, j, k) - wr, g.T.At(i, j, k) - wt, g.P.At(i, j, k) - wp,
				} {
					if e := math.Abs(d); e > m {
						m = e
					}
				}
			}
		}
	}
	return m
}

// --- Analytic exactness on low-order fields ---

// TestGradOfX: s = x = r sin(t) cos(p) has gradient xhat, whose spherical
// components are (sin t cos p, cos t cos p, -sin p); the Laplacian is 0.
func TestGradOfX(t *testing.T) {
	p := patch(21)
	w := NewWorkspace(p)
	s := p.NewScalar()
	fillScalar(p, s, func(r, th, ph float64) float64 { return r * math.Sin(th) * math.Cos(ph) })
	g := p.NewVector()
	Grad(p, s, g, w)
	err := maxErrVector(p, g, func(r, th, ph float64) (a, b, c float64) {
		return math.Sin(th) * math.Cos(ph), math.Cos(th) * math.Cos(ph), -math.Sin(ph)
	}, 0)
	if err > 5e-3 {
		t.Errorf("grad x error %g", err)
	}
	lap := p.NewScalar()
	LapScalar(p, s, lap, w)
	if e := maxErrScalar(p, lap, func(r, th, ph float64) float64 { return 0 }, 1); e > 5e-2 {
		t.Errorf("lap x error %g", e)
	}
}

// TestGradLapOfR2: s = r^2 has grad (2r, 0, 0) and Laplacian 6, both exact
// for second-order stencils on the radial quadratic.
func TestGradLapOfR2(t *testing.T) {
	p := patch(17)
	w := NewWorkspace(p)
	s := p.NewScalar()
	fillScalar(p, s, func(r, th, ph float64) float64 { return r * r })
	g := p.NewVector()
	Grad(p, s, g, w)
	if e := maxErrVector(p, g, func(r, th, ph float64) (a, b, c float64) { return 2 * r, 0, 0 }, 0); e > 1e-10 {
		t.Errorf("grad r^2 error %g", e)
	}
	lap := p.NewScalar()
	LapScalar(p, s, lap, w)
	if e := maxErrScalar(p, lap, func(r, th, ph float64) float64 { return 6 }, 0); e > 1e-9 {
		t.Errorf("lap r^2 error %g", e)
	}
}

// TestDivCurlOfPosition: v = r rhat has div 3 and curl 0, exactly.
func TestDivCurlOfPosition(t *testing.T) {
	p := patch(17)
	w := NewWorkspace(p)
	v := p.NewVector()
	fillVector(p, v, func(r, th, ph float64) (a, b, c float64) { return r, 0, 0 })
	d := p.NewScalar()
	Div(p, v, d, w)
	if e := maxErrScalar(p, d, func(r, th, ph float64) float64 { return 3 }, 0); e > 1e-10 {
		t.Errorf("div position error %g", e)
	}
	c := p.NewVector()
	Curl(p, v, c, w)
	if e := maxErrVector(p, c, func(r, th, ph float64) (a, b, cc float64) { return 0, 0, 0 }, 0); e > 1e-10 {
		t.Errorf("curl position error %g", e)
	}
}

// TestRigidRotation: v = zhat x r has spherical components
// (0, 0, r sin t), div 0, curl 2 zhat = (2 cos t, -2 sin t, 0), zero
// strain (S = 0), and vanishing vector Laplacian.
func TestRigidRotation(t *testing.T) {
	p := patch(21)
	w := NewWorkspace(p)
	v := p.NewVector()
	fillVector(p, v, func(r, th, ph float64) (a, b, c float64) { return 0, 0, r * math.Sin(th) })

	d := p.NewScalar()
	Div(p, v, d, w)
	if e := maxErrScalar(p, d, func(r, th, ph float64) float64 { return 0 }, 0); e > 1e-9 {
		t.Errorf("div rigid rotation %g", e)
	}

	c := p.NewVector()
	Curl(p, v, c, w)
	err := maxErrVector(p, c, func(r, th, ph float64) (a, b, cc float64) {
		return 2 * math.Cos(th), -2 * math.Sin(th), 0
	}, 0)
	if err > 5e-3 {
		t.Errorf("curl rigid rotation %g", err)
	}

	s := p.NewScalar()
	StrainSquared(p, v, s, w)
	// S vanishes analytically; numerically it is the square of the
	// truncation error of the angular derivatives.
	if e := maxErrScalar(p, s, func(r, th, ph float64) float64 { return 0 }, 0); e > 1e-5 {
		t.Errorf("strain of rigid rotation %g", e)
	}

	lap := p.NewVector()
	LapVector(p, v, lap, w)
	if e := maxErrVector(p, lap, func(r, th, ph float64) (a, b, cc float64) { return 0, 0, 0 }, 1); e > 5e-2 {
		t.Errorf("vector laplacian of rigid rotation %g", e)
	}
}

// TestCentripetal: for rigid rotation v, div(v v) = (v.grad)v is the
// centripetal acceleration -w^2 varpi varpihat with components
// (-r sin^2 t, -r sin t cos t, 0).
func TestCentripetal(t *testing.T) {
	p := patch(33)
	w := NewWorkspace(p)
	v := p.NewVector()
	fillVector(p, v, func(r, th, ph float64) (a, b, c float64) { return 0, 0, r * math.Sin(th) })
	out := p.NewVector()
	DivTensorVF(p, v, v, out, w)
	err := maxErrVector(p, out, func(r, th, ph float64) (a, b, c float64) {
		st := math.Sin(th)
		return -r * st * st, -r * st * math.Cos(th), 0
	}, 1)
	if err > 2e-2 {
		t.Errorf("centripetal error %g", err)
	}
}

// TestVDotGrad: v = r rhat advecting s = r^2 gives 2 r^2 exactly.
func TestVDotGrad(t *testing.T) {
	p := patch(17)
	w := NewWorkspace(p)
	v := p.NewVector()
	fillVector(p, v, func(r, th, ph float64) (a, b, c float64) { return r, 0, 0 })
	s := p.NewScalar()
	fillScalar(p, s, func(r, th, ph float64) float64 { return r * r })
	out := p.NewScalar()
	VDotGrad(p, v, s, out, w)
	if e := maxErrScalar(p, out, func(r, th, ph float64) float64 { return 2 * r * r }, 0); e > 1e-9 {
		t.Errorf("v.grad error %g", e)
	}
}

// TestStrainOfAzimuthalShear: v = (0, 0, r^2) has
// S = (r^2/2)(1 + cot^2 t).
func TestStrainOfAzimuthalShear(t *testing.T) {
	p := patch(33)
	w := NewWorkspace(p)
	v := p.NewVector()
	fillVector(p, v, func(r, th, ph float64) (a, b, c float64) { return 0, 0, r * r })
	s := p.NewScalar()
	StrainSquared(p, v, s, w)
	err := maxErrScalar(p, s, func(r, th, ph float64) float64 {
		cot := math.Cos(th) / math.Sin(th)
		return r * r / 2 * (1 + cot*cot)
	}, 1)
	if err > 2e-2 {
		t.Errorf("shear strain error %g", err)
	}
}

// --- Discrete vector identities (converge at second order) ---

func smoothScalar(r, th, ph float64) float64 {
	return math.Sin(2*r) * math.Sin(th) * math.Sin(th) * math.Cos(ph)
}

func smoothVector(r, th, ph float64) (a, b, c float64) {
	return r * math.Sin(th) * math.Cos(ph),
		math.Sin(2*r) * math.Cos(th),
		r * r * math.Sin(th) * math.Sin(ph)
}

func curlGradMax(nt int) float64 {
	p := patch(nt)
	w := NewWorkspace(p)
	s := p.NewScalar()
	fillScalar(p, s, smoothScalar)
	g := p.NewVector()
	Grad(p, s, g, w)
	c := p.NewVector()
	Curl(p, g, c, w)
	return maxErrVector(p, c, func(r, th, ph float64) (a, b, cc float64) { return 0, 0, 0 }, 2)
}

func TestCurlGradIsZero(t *testing.T) {
	e1 := curlGradMax(17)
	e2 := curlGradMax(33)
	if rate := math.Log2(e1 / e2); rate < 1.5 {
		t.Errorf("curl(grad) convergence rate %.2f (errors %g -> %g)", rate, e1, e2)
	}
}

func divCurlMax(nt int) float64 {
	p := patch(nt)
	w := NewWorkspace(p)
	v := p.NewVector()
	fillVector(p, v, smoothVector)
	c := p.NewVector()
	Curl(p, v, c, w)
	d := p.NewScalar()
	Div(p, c, d, w)
	return maxErrScalar(p, d, func(r, th, ph float64) float64 { return 0 }, 2)
}

func TestDivCurlIsZero(t *testing.T) {
	e1 := divCurlMax(17)
	e2 := divCurlMax(33)
	if rate := math.Log2(e1 / e2); rate < 1.5 {
		t.Errorf("div(curl) convergence rate %.2f (errors %g -> %g)", rate, e1, e2)
	}
}

// TestLapVectorIdentity: lap v = grad(div v) - curl(curl v); the direct
// component formula must agree with the composed form to truncation
// error, which shrinks at second order. The comparison margin is a fixed
// *physical* fraction of the domain (nt/8 nodes) so that both resolutions
// exclude the same boundary-contaminated zone.
func TestLapVectorIdentity(t *testing.T) {
	errAt := func(nt int) float64 {
		margin := nt / 8
		p := patch(nt)
		w := NewWorkspace(p)
		v := p.NewVector()
		fillVector(p, v, smoothVector)

		direct := p.NewVector()
		LapVector(p, v, direct, w)

		d := p.NewScalar()
		Div(p, v, d, w)
		gd := p.NewVector()
		Grad(p, d, gd, w)
		c := p.NewVector()
		Curl(p, v, c, w)
		cc := p.NewVector()
		Curl(p, c, cc, w)

		h := p.H
		var m float64
		for k := h + margin; k < h+p.Np-margin; k++ {
			for j := h + margin; j < h+p.Nt-margin; j++ {
				for i := h + margin; i < h+p.Nr-margin; i++ {
					for _, dd := range []float64{
						direct.R.At(i, j, k) - (gd.R.At(i, j, k) - cc.R.At(i, j, k)),
						direct.T.At(i, j, k) - (gd.T.At(i, j, k) - cc.T.At(i, j, k)),
						direct.P.At(i, j, k) - (gd.P.At(i, j, k) - cc.P.At(i, j, k)),
					} {
						if e := math.Abs(dd); e > m {
							m = e
						}
					}
				}
			}
		}
		return m
	}
	e1 := errAt(17)
	e2 := errAt(33)
	if rate := math.Log2(e1 / e2); rate < 1.5 {
		t.Errorf("lap identity convergence rate %.2f (errors %g -> %g)", rate, e1, e2)
	}
}

// TestDivTensorProductRule: div(v f) = (div v) f + (v.grad) f for each
// component — verified against a convergence-rate criterion.
func TestDivTensorProductRule(t *testing.T) {
	errAt := func(nt int) float64 {
		margin := nt / 8
		p := patch(nt)
		w := NewWorkspace(p)
		v := p.NewVector()
		f := p.NewVector()
		fillVector(p, v, smoothVector)
		fillVector(p, f, func(r, th, ph float64) (a, b, c float64) {
			return math.Cos(r) * math.Sin(th), r * math.Cos(th) * math.Sin(ph), math.Sin(r)
		})
		got := p.NewVector()
		DivTensorVF(p, v, f, got, w)

		divv := p.NewScalar()
		Div(p, v, divv, w)

		// (v.grad) of a vector field has Christoffel terms; build the
		// expected value from the scalar advection of each component plus
		// the same correction terms DivTensorVF uses.
		adv := p.NewVector()
		for c, fc := range f.Components() {
			VDotGrad(p, v, fc, adv.Components()[c], w)
		}
		h := p.H
		var m float64
		for k := h + margin; k < h+p.Np-margin; k++ {
			for j := h + margin; j < h+p.Nt-margin; j++ {
				cot := p.CotT[j]
				for i := h + margin; i < h+p.Nr-margin; i++ {
					ir := 1 / p.R[i]
					vr, vt, vp := v.R.At(i, j, k), v.T.At(i, j, k), v.P.At(i, j, k)
					fr, ft, fp := f.R.At(i, j, k), f.T.At(i, j, k), f.P.At(i, j, k)
					dv := divv.At(i, j, k)
					wantR := dv*fr + adv.R.At(i, j, k) - (vt*ft+vp*fp)*ir
					wantT := dv*ft + adv.T.At(i, j, k) + (vt*fr-cot*vp*fp)*ir
					wantP := dv*fp + adv.P.At(i, j, k) + (vp*fr+cot*vp*ft)*ir
					for _, dd := range []float64{
						got.R.At(i, j, k) - wantR,
						got.T.At(i, j, k) - wantT,
						got.P.At(i, j, k) - wantP,
					} {
						if e := math.Abs(dd); e > m {
							m = e
						}
					}
					_ = vr
				}
			}
		}
		return m
	}
	e1 := errAt(17)
	e2 := errAt(33)
	if rate := math.Log2(e1 / e2); rate < 1.5 {
		t.Errorf("product rule convergence rate %.2f (errors %g -> %g)", rate, e1, e2)
	}
}

// TestWorkspaceReuse: repeated operator evaluation must not grow the pool.
func TestWorkspaceReuse(t *testing.T) {
	p := patch(9)
	w := NewWorkspace(p)
	v := p.NewVector()
	fillVector(p, v, smoothVector)
	out := p.NewVector()
	s := p.NewScalar()
	for n := 0; n < 3; n++ {
		Curl(p, v, out, w)
		Div(p, v, s, w)
		LapVector(p, v, out, w)
		StrainSquared(p, v, s, w)
		DivTensorVF(p, v, v, out, w)
	}
	first := w.Allocated()
	for n := 0; n < 5; n++ {
		Curl(p, v, out, w)
		LapVector(p, v, out, w)
		DivTensorVF(p, v, v, out, w)
	}
	if w.Allocated() != first {
		t.Errorf("workspace grew from %d to %d scratch fields", first, w.Allocated())
	}
}
