package sphops

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/simd"
)

// withLanes runs f with the lane bodies switched on or off, restoring
// the switch afterwards.
func withLanes(on bool, f func()) {
	prev := simd.AVX2
	simd.AVX2 = on
	defer func() { simd.AVX2 = prev }()
	f()
}

// sameBits reports whether a and b are the same float64 bit for bit,
// except that any two NaNs agree: the compiler may commute the operands
// of a scalar add or multiply, and with two NaN operands x86 returns
// the payload of the first.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// specials are the adversarial values salted over the inputs.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072e-308, -1e-310,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead00000001),
}

// TestLanesMatchGo compares CurlOn and DivOn with the lane bodies on
// and off, on both panels (every global-edge column included) at radial
// sizes covering every n mod 4 (and Nr 3, too short for one lane
// iteration), for a smooth field and for the same
// field salted with zeros of both signs, subnormals, infinities and
// NaNs. Outputs must agree bit for bit, NaN payloads aside.
func TestLanesMatchGo(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no lane bodies in this build or on this CPU")
	}
	for _, nr := range []int{3, 9, 10, 11, 12, 17, 33} {
		for _, panel := range []grid.Panel{grid.Yin, grid.Yang} {
			p := grid.NewPatch(grid.NewSpec(nr, 9), panel, 1)
			v := field.NewVector(p.Shape)
			fillVector(p, v, func(r, th, ph float64) (float64, float64, float64) {
				return r * math.Sin(th) * math.Cos(2*ph), r * r * math.Cos(th), math.Sin(3*th) / r
			})
			for _, adversarial := range []bool{false, true} {
				if adversarial {
					for ci, c := range []*field.Scalar{v.R, v.T, v.P} {
						for n := range c.Data {
							if (n*7+ci*3)%13 == 0 {
								c.Data[n] = specials[(n/13+ci)%len(specials)]
							}
						}
					}
				}
				reg := p.OwnedRegion()
				w := NewWorkspace(p)
				curlGo, curlLane := field.NewVector(p.Shape), field.NewVector(p.Shape)
				divGo, divLane := field.NewScalar(p.Shape), field.NewScalar(p.Shape)
				withLanes(false, func() { CurlOn(p, reg, v, curlGo, w); DivOn(p, reg, v, divGo, w) })
				withLanes(true, func() { CurlOn(p, reg, v, curlLane, w); DivOn(p, reg, v, divLane, w) })
				for name, pair := range map[string][2]*field.Scalar{
					"curl r": {curlGo.R, curlLane.R}, "curl theta": {curlGo.T, curlLane.T},
					"curl phi": {curlGo.P, curlLane.P}, "div": {divGo, divLane},
				} {
					for n := range pair[0].Data {
						if !sameBits(pair[0].Data[n], pair[1].Data[n]) {
							t.Fatalf("Nr %d panel %v adversarial %v: %s differs at %d: Go %v, lanes %v",
								nr, panel, adversarial, name, n, pair[0].Data[n], pair[1].Data[n])
						}
					}
				}
			}
		}
	}
}
