package spectral

import (
	"math"
	"math/rand"
	"testing"
)

// TestGaussLegendreExactness: n-node rule integrates x^k exactly for
// k <= 2n-1 and fails beyond.
func TestGaussLegendreExactness(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		x, w, err := GaussLegendre(n)
		if err != nil {
			t.Fatal(err)
		}
		var wsum float64
		for _, wi := range w {
			wsum += wi
		}
		if math.Abs(wsum-2) > 1e-12 {
			t.Fatalf("n=%d: weights sum to %v", n, wsum)
		}
		for k := 0; k <= 2*n-1; k++ {
			var got float64
			for i := range x {
				got += w[i] * math.Pow(x[i], float64(k))
			}
			want := 0.0
			if k%2 == 0 {
				want = 2 / float64(k+1)
			}
			if math.Abs(got-want) > 1e-10 {
				t.Fatalf("n=%d k=%d: %v vs %v", n, k, got, want)
			}
		}
	}
	if _, _, err := GaussLegendre(0); err == nil {
		t.Error("zero nodes accepted")
	}
}

// TestLegendreOrthonormal: sum_j w_j Phat_lm Phat_l'm = delta_ll'/(2 pi).
func TestLegendreOrthonormal(t *testing.T) {
	const L = 12
	x, w, _ := GaussLegendre(L + 1)
	tbls := make([][][]float64, len(x))
	for j := range x {
		tbl := make([][]float64, L+1)
		for l := range tbl {
			tbl[l] = make([]float64, L+1)
		}
		legendreTable(L, x[j], tbl)
		tbls[j] = tbl
	}
	for m := 0; m <= L; m++ {
		for l1 := m; l1 <= L; l1++ {
			for l2 := m; l2 <= L; l2++ {
				if l1+l2 > 2*L+1 { // beyond quadrature exactness
					continue
				}
				var s float64
				for j := range x {
					s += w[j] * tbls[j][l1][m] * tbls[j][l2][m]
				}
				want := 0.0
				if l1 == l2 {
					want = 1 / (2 * math.Pi)
				}
				if math.Abs(s-want) > 1e-10 {
					t.Fatalf("m=%d l=%d,%d: %v vs %v", m, l1, l2, s, want)
				}
			}
		}
	}
}

// TestRoundTrip: synthesize random band-limited coefficients, analyze,
// recover them to near machine precision.
func TestRoundTrip(t *testing.T) {
	const L = 10
	tr, err := NewTransform(L)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	c := NewCoeffs(L)
	for l := 0; l <= L; l++ {
		for m := 0; m <= l; m++ {
			c.C[l][m] = r.NormFloat64()
			if m > 0 {
				c.S[l][m] = r.NormFloat64()
			}
		}
	}
	f := tr.Grid()
	if err := tr.Synthesize(c, f); err != nil {
		t.Fatal(err)
	}
	got := NewCoeffs(L)
	if err := tr.Analyze(f, got); err != nil {
		t.Fatal(err)
	}
	var m float64
	for l := 0; l <= L; l++ {
		for mm := 0; mm <= l; mm++ {
			if e := math.Abs(got.C[l][mm] - c.C[l][mm]); e > m {
				m = e
			}
			if e := math.Abs(got.S[l][mm] - c.S[l][mm]); e > m {
				m = e
			}
		}
	}
	if m > 1e-10 {
		t.Errorf("round-trip error %g", m)
	}
}

// TestAnalyzeKnownField: f = Y10-like cos(theta) projects onto C[1][0]
// only, with the orthonormal amplitude sqrt(4 pi / 3).
func TestAnalyzeKnownField(t *testing.T) {
	const L = 6
	tr, _ := NewTransform(L)
	x, _, err := GaussLegendre(tr.NLat) // the transform's latitudes, as cos(theta)
	if err != nil {
		t.Fatal(err)
	}
	f := tr.Grid()
	for j := 0; j < tr.NLat; j++ {
		for k := 0; k < tr.NLon; k++ {
			f[j*tr.NLon+k] = x[j]
		}
	}
	c := NewCoeffs(L)
	if err := tr.Analyze(f, c); err != nil {
		t.Fatal(err)
	}
	// cos(theta) = sqrt(4 pi / 3) * Phat_10.
	want := math.Sqrt(4 * math.Pi / 3)
	if math.Abs(math.Abs(c.C[1][0])-want) > 1e-10 {
		t.Errorf("C[1][0] = %v, want +-%v", c.C[1][0], want)
	}
	// Everything else vanishes.
	for l := 0; l <= L; l++ {
		for m := 0; m <= l; m++ {
			if l == 1 && m == 0 {
				continue
			}
			if math.Abs(c.C[l][m]) > 1e-10 || math.Abs(c.S[l][m]) > 1e-10 {
				t.Errorf("leakage into (%d,%d): %v / %v", l, m, c.C[l][m], c.S[l][m])
			}
		}
	}
}

// TestParsevalIdentity: the orthonormal basis preserves the surface
// integral of f^2.
func TestParsevalIdentity(t *testing.T) {
	const L = 8
	tr, _ := NewTransform(L)
	r := rand.New(rand.NewSource(9))
	c := NewCoeffs(L)
	var want float64
	for l := 0; l <= L; l++ {
		for m := 0; m <= l; m++ {
			c.C[l][m] = r.NormFloat64()
			want += c.C[l][m] * c.C[l][m]
			if m > 0 {
				c.S[l][m] = r.NormFloat64()
				want += c.S[l][m] * c.S[l][m]
			}
		}
	}
	f := tr.Grid()
	if err := tr.Synthesize(c, f); err != nil {
		t.Fatal(err)
	}
	var got float64
	for j := 0; j < tr.NLat; j++ {
		for k := 0; k < tr.NLon; k++ {
			v := f[j*tr.NLon+k]
			got += tr.W[j] * v * v * 2 * math.Pi / float64(tr.NLon)
		}
	}
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Errorf("Parseval: grid %v vs coeffs %v", got, want)
	}
}

// TestFlopsPerPointGrows: the transform's per-point cost grows with
// resolution — the structural contrast with finite differences that
// Table III's flops-per-gridpoint column reflects.
func TestFlopsPerPointGrows(t *testing.T) {
	f16, err := FlopsPerPointPerTransformPair(16)
	if err != nil {
		t.Fatal(err)
	}
	f64, err := FlopsPerPointPerTransformPair(64)
	if err != nil {
		t.Fatal(err)
	}
	if f16 <= 0 {
		t.Fatal("no flops measured")
	}
	ratio := f64 / f16
	if ratio < 3 {
		t.Errorf("per-point cost should grow ~linearly with L: %v -> %v (ratio %.2f)", f16, f64, ratio)
	}
}

func TestTransformValidation(t *testing.T) {
	if _, err := NewTransform(0); err == nil {
		t.Error("degree 0 accepted")
	}
	tr, _ := NewTransform(4)
	if err := tr.Analyze(make([]float64, 3), NewCoeffs(4)); err == nil {
		t.Error("shape mismatch accepted")
	}
	if err := tr.Synthesize(NewCoeffs(5), tr.Grid()); err == nil {
		t.Error("degree mismatch accepted")
	}
}
