// Package spectral implements a direct spherical-harmonic transform —
// Gauss-Legendre quadrature in latitude, trigonometric projection in
// longitude, stable normalized associated-Legendre recurrences — the
// computational core of the spectral-method codes the paper compares
// against in Table III (Shingu's atmospheric model, Yokokawa's
// turbulence code).
//
// Its role here is the comparator: the transform's measured flops per
// grid point grows with resolution (O(L) per point per transform for the
// Legendre stage alone), while the finite-difference stencils of yycore
// cost a resolution-independent ~2.3K flops per point per step. That
// contrast is exactly Table III's 38K (spectral atmosphere) versus 19K
// (FD geodynamo) flops-per-gridpoint column at similar sustained
// efficiency — the quantitative argument for finite differences on
// massively parallel machines.
package spectral

import (
	"fmt"
	"math"

	"repro/internal/perfcount"
)

// GaussLegendre returns the n nodes and weights of Gauss-Legendre
// quadrature on [-1, 1], exact for polynomials of degree 2n-1. Nodes are
// found by Newton iteration from the Chebyshev initial guess.
func GaussLegendre(n int) (x, w []float64, err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("spectral: need at least 1 node, got %d", n)
	}
	x = make([]float64, n)
	w = make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		// Initial guess (Chebyshev-like).
		z := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			// Legendre polynomial P_n(z) and derivative by recurrence.
			p1, p2 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				p1 = ((2*float64(j)+1)*z*p2 - float64(j)*p3) / (float64(j) + 1)
			}
			pp = float64(n) * (z*p1 - p2) / (z*z - 1)
			dz := p1 / pp
			z -= dz
			if math.Abs(dz) < 1e-15 {
				break
			}
		}
		x[i] = -z
		x[n-1-i] = z
		wi := 2 / ((1 - z*z) * pp * pp)
		w[i] = wi
		w[n-1-i] = wi
	}
	return x, w, nil
}

// legendreTable evaluates the orthonormal associated Legendre functions
// Phat_lm(x) for all 0 <= m <= l <= L at one x, filling tbl[l][m]. The
// normalization makes {Phat_lm e^{im phi}} orthonormal on the sphere.
func legendreTable(L int, x float64, tbl [][]float64) {
	sx := math.Sqrt(1 - x*x)
	tbl[0][0] = math.Sqrt(1 / (4 * math.Pi))
	for m := 1; m <= L; m++ {
		tbl[m][m] = -math.Sqrt((2*float64(m)+1)/(2*float64(m))) * sx * tbl[m-1][m-1]
	}
	for m := 0; m < L; m++ {
		tbl[m+1][m] = x * math.Sqrt(2*float64(m)+3) * tbl[m][m]
	}
	for m := 0; m <= L; m++ {
		for l := m + 2; l <= L; l++ {
			fl, fm := float64(l), float64(m)
			alm := math.Sqrt((4*fl*fl - 1) / (fl*fl - fm*fm))
			fl1 := fl - 1
			al1 := math.Sqrt((4*fl1*fl1 - 1) / (fl1*fl1 - fm*fm))
			tbl[l][m] = alm * (x*tbl[l-1][m] - tbl[l-2][m]/al1)
		}
	}
}

// Coeffs holds real spherical-harmonic coefficients: C[l][m] multiplies
// the cos(m phi) basis function and S[l][m] the sin(m phi) one (S[l][0]
// unused). The basis is orthonormal: f = sum C_lm Bc_lm + S_lm Bs_lm
// with Bc_l0 = Phat_l0, Bc_lm = sqrt2 Phat_lm cos(m phi), etc.
type Coeffs struct {
	L    int
	C, S [][]float64
}

// NewCoeffs allocates zero coefficients up to degree L.
func NewCoeffs(L int) *Coeffs {
	c := &Coeffs{L: L, C: make([][]float64, L+1), S: make([][]float64, L+1)}
	for l := 0; l <= L; l++ {
		c.C[l] = make([]float64, l+1)
		c.S[l] = make([]float64, l+1)
	}
	return c
}

// Transform is a spherical-harmonic analysis/synthesis engine of maximum
// degree L on its own Gauss-Legendre x equally-spaced grid.
type Transform struct {
	L          int
	NLat, NLon int
	W          []float64 // Gauss weights
	Phi        []float64
	// Precomputed Legendre tables per latitude: plm[j][l][m].
	plm [][][]float64
}

// NewTransform builds a transform of degree L. The grid (L+1 latitudes,
// 2L+2 longitudes) resolves products up to the transform's band limit
// for analysis of band-limited fields.
func NewTransform(L int) (*Transform, error) {
	if L < 1 {
		return nil, fmt.Errorf("spectral: need degree >= 1, got %d", L)
	}
	nLat := L + 1
	nLon := 2*L + 2
	x, w, err := GaussLegendre(nLat)
	if err != nil {
		return nil, err
	}
	t := &Transform{L: L, NLat: nLat, NLon: nLon, W: w}
	t.Phi = make([]float64, nLon)
	for k := range t.Phi {
		t.Phi[k] = 2 * math.Pi * float64(k) / float64(nLon)
	}
	t.plm = make([][][]float64, nLat)
	for j := 0; j < nLat; j++ {
		tbl := make([][]float64, L+1)
		for l := range tbl {
			tbl[l] = make([]float64, L+1)
		}
		legendreTable(L, x[j], tbl)
		t.plm[j] = tbl
	}
	return t, nil
}

// Grid allocates a field on the transform grid, indexed j*NLon + k.
func (t *Transform) Grid() []float64 { return make([]float64, t.NLat*t.NLon) }

// Analyze projects a grid field onto the harmonic coefficients.
func (t *Transform) Analyze(f []float64, c *Coeffs) error {
	if c.L != t.L || len(f) != t.NLat*t.NLon {
		return fmt.Errorf("spectral: shape mismatch")
	}
	L := t.L
	// Fourier analysis per latitude (direct, not FFT — the comparator
	// measures the classic transform structure).
	fc := make([][]float64, t.NLat) // fc[j][m]
	fs := make([][]float64, t.NLat)
	for j := 0; j < t.NLat; j++ {
		fc[j] = make([]float64, L+1)
		fs[j] = make([]float64, L+1)
		for m := 0; m <= L; m++ {
			var sc, ss float64
			for k := 0; k < t.NLon; k++ {
				v := f[j*t.NLon+k]
				sc += v * math.Cos(float64(m)*t.Phi[k])
				ss += v * math.Sin(float64(m)*t.Phi[k])
			}
			norm := 2 * math.Pi / float64(t.NLon)
			fc[j][m] = sc * norm
			fs[j][m] = ss * norm
		}
	}
	// Legendre analysis per order.
	for l := 0; l <= L; l++ {
		for m := 0; m <= l; m++ {
			var cc, cs float64
			for j := 0; j < t.NLat; j++ {
				p := t.plm[j][l][m]
				cc += t.W[j] * p * fc[j][m]
				cs += t.W[j] * p * fs[j][m]
			}
			if m == 0 {
				c.C[l][0] = cc
				c.S[l][0] = 0
			} else {
				// The real basis carries a sqrt2 against the complex-
				// normalized Phat.
				c.C[l][m] = cc * math.Sqrt2
				c.S[l][m] = cs * math.Sqrt2
			}
		}
	}
	n := int64(t.NLat * t.NLon)
	perfcount.AddFlops(n*int64(L+1)*4 + int64(t.NLat)*int64((L+1)*(L+2))*2)
	perfcount.AddVectorLoops(int64(t.NLat)*int64(L+1), n*int64(L+1))
	return nil
}

// Synthesize evaluates the harmonic expansion on the grid.
func (t *Transform) Synthesize(c *Coeffs, f []float64) error {
	if c.L != t.L || len(f) != t.NLat*t.NLon {
		return fmt.Errorf("spectral: shape mismatch")
	}
	L := t.L
	for j := 0; j < t.NLat; j++ {
		// Legendre synthesis: per-order latitude factors, then Fourier
		// synthesis in longitude. The real basis Bc_lm = sqrt2 Phat_lm
		// cos(m phi) contributes its sqrt2 exactly once here.
		gc := make([]float64, L+1)
		gs := make([]float64, L+1)
		for m := 0; m <= L; m++ {
			var sc, ss float64
			for l := m; l <= L; l++ {
				p := t.plm[j][l][m]
				sc += c.C[l][m] * p
				ss += c.S[l][m] * p
			}
			gc[m] = sc
			gs[m] = ss
		}
		for k := 0; k < t.NLon; k++ {
			v := gc[0]
			for m := 1; m <= L; m++ {
				ang := float64(m) * t.Phi[k]
				v += math.Sqrt2 * (gc[m]*math.Cos(ang) + gs[m]*math.Sin(ang))
			}
			f[j*t.NLon+k] = v
		}
	}
	n := int64(t.NLat * t.NLon)
	perfcount.AddFlops(n*int64(L+1)*4 + int64(t.NLat)*int64((L+1)*(L+2))*2)
	perfcount.AddVectorLoops(int64(t.NLat)*int64(L+1), n*int64(L+1))
	return nil
}

// FlopsPerPointPerTransformPair measures (via perfcount) the cost of one
// analysis + synthesis pair per grid point at degree L; the quantity the
// Table III comparison turns on.
func FlopsPerPointPerTransformPair(L int) (float64, error) {
	t, err := NewTransform(L)
	if err != nil {
		return 0, err
	}
	f := t.Grid()
	for i := range f {
		f[i] = math.Sin(3 * float64(i))
	}
	c := NewCoeffs(L)
	before := perfcount.Read()
	if err := t.Analyze(f, c); err != nil {
		return 0, err
	}
	if err := t.Synthesize(c, f); err != nil {
		return 0, err
	}
	d := perfcount.Read().Sub(before)
	return float64(d.Flops) / float64(t.NLat*t.NLon), nil
}
