// Package viz produces the paper's visual artifacts from simulation
// data: the Yin-Yang coverage picture (Fig. 1) and the equatorial-plane
// convection-structure slices with cyclonic/anti-cyclonic column
// detection (Fig. 2), rendered as portable pixmaps.
package viz

import (
	"fmt"
	"io"
	"math"

	"repro/internal/coords"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/sphops"
)

// Image is a scalar raster with an inside-the-domain mask.
type Image struct {
	W, H int
	Data []float64
	Mask []bool
}

// NewImage allocates a w x h image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Data: make([]float64, w*h), Mask: make([]bool, w*h)}
}

// MaxAbs returns the maximum absolute masked value.
func (im *Image) MaxAbs() float64 {
	var m float64
	for i, ok := range im.Mask {
		if ok {
			if a := math.Abs(im.Data[i]); a > m {
				m = a
			}
		}
	}
	return m
}

// Quantity selects what a sampler extracts from the solver state.
type Quantity int

// Sampleable quantities.
// VTheta and VPhi sample the panel-local tangential components (useful
// on the equatorial band, which the Yin panel covers in its own frame);
// the VCart/BCart quantities are geographic Cartesian components,
// rotated per node before interpolation, and are frame-safe everywhere.
const (
	Temperature Quantity = iota
	Density
	Pressure
	VRadial
	VTheta
	VPhi
	VortZ // z component of vorticity, the column marker of Fig. 2
	BRadial
	VCartX
	VCartY
	VCartZ
	BCartX
	BCartY
	BCartZ
)

// Sampler extracts point values of derived quantities from a solver's
// current state; velocity, magnetic field and vorticity are computed
// once at construction.
type Sampler struct {
	sv   *mhd.Solver
	vort [2]*field.Vector
}

// NewSampler builds a sampler over the solver's current state.
func NewSampler(sv *mhd.Solver) *Sampler {
	s := &Sampler{sv: sv}
	for pi, pl := range sv.Panels {
		mhd.ComputeVTB(pl, &pl.U)
		s.vort[pi] = pl.Patch.NewVector()
		sphops.Curl(pl.Patch, pl.V, s.vort[pi], pl.W)
	}
	return s
}

// valueAt returns quantity q at padded node (i, j, k) of panel pi.
func (s *Sampler) valueAt(q Quantity, pi, i, j, k int) float64 {
	pl := s.sv.Panels[pi]
	switch q {
	case Temperature:
		return pl.T.At(i, j, k)
	case Density:
		return pl.U.Rho.At(i, j, k)
	case Pressure:
		return pl.U.P.At(i, j, k)
	case VRadial:
		return pl.V.R.At(i, j, k)
	case VTheta:
		return pl.V.T.At(i, j, k)
	case VPhi:
		return pl.V.P.At(i, j, k)
	case BRadial:
		return pl.B.R.At(i, j, k)
	case VortZ:
		// Convert the local spherical vorticity components to the
		// geographic z component.
		w := s.vort[pi]
		return s.geoCart(pi, i, j, k, w.R.At(i, j, k), w.T.At(i, j, k), w.P.At(i, j, k)).Z
	case VCartX, VCartY, VCartZ:
		c := s.geoCart(pi, i, j, k, pl.V.R.At(i, j, k), pl.V.T.At(i, j, k), pl.V.P.At(i, j, k))
		return pick(c, q-VCartX)
	case BCartX, BCartY, BCartZ:
		c := s.geoCart(pi, i, j, k, pl.B.R.At(i, j, k), pl.B.T.At(i, j, k), pl.B.P.At(i, j, k))
		return pick(c, q-BCartX)
	}
	panic("viz: unknown quantity")
}

// geoCart rotates panel-local spherical vector components at node
// (i, j, k) into geographic Cartesian components.
func (s *Sampler) geoCart(pi, i, j, k int, vr, vt, vp float64) coords.Cartesian {
	p := s.sv.Panels[pi].Patch
	c := coords.SphToCartVec(p.Theta[j], p.Phi[k], coords.SphVec{VR: vr, VT: vt, VP: vp})
	if p.Panel == grid.Yang {
		c = coords.YinYang(c)
	}
	return c
}

func pick(c coords.Cartesian, axis Quantity) float64 {
	switch axis {
	case 0:
		return c.X
	case 1:
		return c.Y
	}
	return c.Z
}

// SampleAt trilinearly samples quantity q at the geographic spherical
// point (r, theta, phi), choosing the panel whose footprint holds the
// point farther from the rim. Returns false outside the shell.
func (s *Sampler) SampleAt(q Quantity, r, theta, phi float64) (float64, bool) {
	spec := s.sv.Spec
	if r < spec.RI || r > spec.RO {
		return 0, false
	}
	// Panel choice.
	tY, pY := coords.YinYangAngles(theta, phi)
	pi := 0
	tt, pp := theta, phi
	inYin := grid.Contains(theta, phi, 0)
	inYang := grid.Contains(tY, pY, 0)
	switch {
	case inYin && inYang:
		if rimDistance(tY, pY) > rimDistance(theta, phi) {
			pi = 1
			tt, pp = tY, pY
		}
	case inYang:
		pi = 1
		tt, pp = tY, pY
	case !inYin:
		return 0, false
	}
	pl := s.sv.Panels[pi]
	p := pl.Patch
	h := p.H
	fi := (r - spec.RI) / p.Dr
	i0 := clampInt(int(math.Floor(fi)), 0, spec.Nr-2)
	ai := fi - float64(i0)

	sample2D := func(i int) float64 {
		return s.angularBilinear(q, pi, i+h, tt, pp)
	}
	v := (1-ai)*sample2D(i0) + ai*sample2D(i0+1)
	return v, true
}

func (s *Sampler) angularBilinear(q Quantity, pi, i int, theta, phi float64) float64 {
	p := s.sv.Panels[pi].Patch
	h := p.H
	fj := (theta - grid.ThetaMin) / p.Dt
	fk := (phi - grid.PhiMin) / p.Dp
	j0 := clampInt(int(math.Floor(fj)), 0, p.Spec.Nt-2)
	k0 := clampInt(int(math.Floor(fk)), 0, p.Spec.Np-2)
	aj := fj - float64(j0)
	ak := fk - float64(k0)
	v00 := s.valueAt(q, pi, i, j0+h, k0+h)
	v10 := s.valueAt(q, pi, i, j0+1+h, k0+h)
	v01 := s.valueAt(q, pi, i, j0+h, k0+1+h)
	v11 := s.valueAt(q, pi, i, j0+1+h, k0+1+h)
	return (1-aj)*(1-ak)*v00 + aj*(1-ak)*v10 + (1-aj)*ak*v01 + aj*ak*v11
}

func rimDistance(theta, phi float64) float64 {
	m := theta - grid.ThetaMin
	if d := grid.ThetaMax - theta; d < m {
		m = d
	}
	if d := phi - grid.PhiMin; d < m {
		m = d
	}
	if d := grid.PhiMax - phi; d < m {
		m = d
	}
	return m
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// EquatorialSlice samples quantity q over the equatorial plane onto an
// n x n image spanning [-ro, ro]^2; pixels outside the shell are masked
// out. This regenerates the view of Fig. 2(a)/(c) of the paper.
func EquatorialSlice(s *Sampler, q Quantity, n int) *Image {
	im := NewImage(n, n)
	ro := s.sv.Spec.RO
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			px := (2*float64(x)/float64(n-1) - 1) * ro
			py := (2*float64(y)/float64(n-1) - 1) * ro
			r := math.Hypot(px, py)
			phi := math.Atan2(py, px)
			v, ok := s.SampleAt(q, r, math.Pi/2, phi)
			idx := y*n + x
			im.Data[idx] = v
			im.Mask[idx] = ok
		}
	}
	return im
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// CountColumns detects connected components of strong positive and
// negative values on a masked image: the cyclonic and anti-cyclonic
// convection columns of Fig. 2(c). threshold is a fraction of the image
// max-abs; 4-connectivity.
func CountColumns(im *Image, threshold float64) (cyclonic, anticyclonic int) {
	lim := im.MaxAbs() * threshold
	if lim <= 0 {
		return 0, 0
	}
	sign := make([]int8, len(im.Data))
	for i := range im.Data {
		if !im.Mask[i] {
			continue
		}
		switch {
		case im.Data[i] > lim:
			sign[i] = 1
		case im.Data[i] < -lim:
			sign[i] = -1
		}
	}
	seen := make([]bool, len(sign))
	var stack []int
	for start := range sign {
		if sign[start] == 0 || seen[start] {
			continue
		}
		s0 := sign[start]
		stack = append(stack[:0], start)
		seen[start] = true
		size := 0
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			x, y := i%im.W, i/im.W
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= im.W || ny < 0 || ny >= im.H {
					continue
				}
				ni := ny*im.W + nx
				if !seen[ni] && sign[ni] == s0 {
					seen[ni] = true
					stack = append(stack, ni)
				}
			}
		}
		// Ignore speckles smaller than a few pixels.
		if size >= 4 {
			if s0 > 0 {
				cyclonic++
			} else {
				anticyclonic++
			}
		}
	}
	return cyclonic, anticyclonic
}

// WritePPM renders the image with a blue-white-red diverging map
// (masked pixels black) as a binary PPM.
func WritePPM(w io.Writer, im *Image) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	scale := im.MaxAbs()
	if scale <= 0 {
		scale = 1
	}
	buf := make([]byte, 0, im.W*im.H*3)
	for i := range im.Data {
		if !im.Mask[i] {
			buf = append(buf, 0, 0, 0)
			continue
		}
		v := clamp(im.Data[i]/scale, -1, 1)
		var r, g, b float64
		if v >= 0 {
			r, g, b = 1, 1-v, 1-v
		} else {
			r, g, b = 1+v, 1+v, 1
		}
		buf = append(buf, byte(r*255), byte(g*255), byte(b*255))
	}
	_, err := w.Write(buf)
	return err
}

// CoverageMap rasterizes panel coverage on a lon-lat grid: 1 = Yin only,
// 2 = Yang only, 3 = overlap. With the basic Yin-Yang grid no cell is 0.
// It regenerates Fig. 1(b) quantitatively; OverlapPixelFraction compares
// against the analytic ~6%.
func CoverageMap(nLat, nLon int) *Image {
	im := NewImage(nLon, nLat)
	for y := 0; y < nLat; y++ {
		theta := (float64(y) + 0.5) * math.Pi / float64(nLat)
		for x := 0; x < nLon; x++ {
			phi := -math.Pi + (float64(x)+0.5)*2*math.Pi/float64(nLon)
			var v float64
			if grid.Contains(theta, phi, 0) {
				v += 1
			}
			tY, pY := coords.YinYangAngles(theta, phi)
			if grid.Contains(tY, pY, 0) {
				v += 2
			}
			idx := y*nLon + x
			im.Data[idx] = v
			im.Mask[idx] = v > 0
		}
	}
	return im
}

// OverlapPixelFraction integrates the overlap area fraction of a
// coverage map with sin(theta) weights.
func OverlapPixelFraction(im *Image) float64 {
	var overlap, total float64
	for y := 0; y < im.H; y++ {
		w := math.Sin((float64(y) + 0.5) * math.Pi / float64(im.H))
		for x := 0; x < im.W; x++ {
			total += w
			//yyvet:ignore float-eq coverage codes are small integers assigned exactly; 3 marks Yin+Yang overlap
			if im.Data[y*im.W+x] == 3 {
				overlap += w
			}
		}
	}
	return overlap / total
}
