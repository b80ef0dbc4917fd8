package viz

import (
	"math"

	"repro/internal/coords"
)

// Tracer integrates massless particles along the sampled velocity field
// — the tool behind streamline views like Fig. 2(b)'s tilted look at the
// convection columns. Particles advect with second-order midpoint steps
// in Cartesian space; a particle that leaves the shell is frozen where
// it crossed.
type Tracer struct {
	s *Sampler
}

// NewTracer builds a tracer over a sampler's state.
func NewTracer(s *Sampler) *Tracer { return &Tracer{s: s} }

// velocityAt samples the geographic Cartesian velocity at a Cartesian
// point; ok reports whether the point is inside the shell.
func (tr *Tracer) velocityAt(c coords.Cartesian) (coords.Cartesian, bool) {
	sp := c.ToSpherical()
	vx, ok := tr.s.SampleAt(VCartX, sp.R, sp.Theta, sp.Phi)
	if !ok {
		return coords.Cartesian{}, false
	}
	vy, _ := tr.s.SampleAt(VCartY, sp.R, sp.Theta, sp.Phi)
	vz, _ := tr.s.SampleAt(VCartZ, sp.R, sp.Theta, sp.Phi)
	return coords.Cartesian{X: vx, Y: vy, Z: vz}, true
}

// Path integrates a particle from start for n steps of size dt and
// returns the visited points (including the start). Integration stops
// early if the particle exits the shell.
func (tr *Tracer) Path(start coords.Cartesian, dt float64, n int) []coords.Cartesian {
	path := make([]coords.Cartesian, 0, n+1)
	path = append(path, start)
	c := start
	for step := 0; step < n; step++ {
		v1, ok := tr.velocityAt(c)
		if !ok {
			break
		}
		mid := coords.Cartesian{X: c.X + 0.5*dt*v1.X, Y: c.Y + 0.5*dt*v1.Y, Z: c.Z + 0.5*dt*v1.Z}
		v2, ok := tr.velocityAt(mid)
		if !ok {
			break
		}
		c = coords.Cartesian{X: c.X + dt*v2.X, Y: c.Y + dt*v2.Y, Z: c.Z + dt*v2.Z}
		if r := math.Sqrt(c.X*c.X + c.Y*c.Y + c.Z*c.Z); r < tr.s.sv.Spec.RI || r > tr.s.sv.Spec.RO {
			break
		}
		path = append(path, c)
	}
	return path
}

// DrawPathsEquatorial renders a set of tracer paths projected onto the
// equatorial plane into an n x n image (path pixels get value +1 or -1
// by the particle's sense of circulation; the shell mask is set). This
// is the streamline view of Fig. 2(b): columns appear as closed loops.
func DrawPathsEquatorial(s *Sampler, paths [][]coords.Cartesian, n int) *Image {
	im := NewImage(n, n)
	ro := s.sv.Spec.RO
	ri := s.sv.Spec.RI
	// Mask the annulus.
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			px := (2*float64(x)/float64(n-1) - 1) * ro
			py := (2*float64(y)/float64(n-1) - 1) * ro
			r := math.Hypot(px, py)
			im.Mask[y*n+x] = r >= ri && r <= ro
		}
	}
	toPix := func(v float64) int {
		return int((v/ro + 1) / 2 * float64(n-1))
	}
	for _, path := range paths {
		if len(path) < 2 {
			continue
		}
		// Sense of circulation about the axis from the first segment.
		c0, c1 := path[0], path[1]
		cross := c0.X*c1.Y - c0.Y*c1.X
		v := 1.0
		if cross < 0 {
			v = -1
		}
		for _, c := range path {
			x, y := toPix(c.X), toPix(c.Y)
			if x >= 0 && x < n && y >= 0 && y < n {
				im.Data[y*n+x] = v
			}
		}
	}
	return im
}

// SeedEquatorialRing returns m tracer start points on a ring of radius r
// in the equatorial plane.
func SeedEquatorialRing(r float64, m int) []coords.Cartesian {
	out := make([]coords.Cartesian, m)
	for i := range out {
		phi := 2 * math.Pi * float64(i) / float64(m)
		out[i] = coords.Cartesian{X: r * math.Cos(phi), Y: r * math.Sin(phi)}
	}
	return out
}
