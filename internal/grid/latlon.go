package grid

import "math"

// LatLonSpec describes the traditional full latitude-longitude spherical
// shell grid the paper's previous geodynamo code used, and whose polar
// coordinate singularity and grid convergence motivated the Yin-Yang
// design. Colatitude carries Nt nodes from 0 to pi (poles included);
// longitude carries Np equally spaced periodic nodes (no duplicated seam
// node); radius carries Nr nodes through the same shell.
type LatLonSpec struct {
	Nr, Nt, Np int
}

// NewLatLonSpec builds a lat-lon grid with the same angular spacing as the
// Yin-Yang spec s would use, covering the full sphere: this is the
// "equivalent resolution" baseline for the grid-economy ablation.
func NewLatLonSpec(s Spec) LatLonSpec {
	dt := s.Dt()
	nt := int(math.Round(math.Pi/dt)) + 1
	np := int(math.Round(2 * math.Pi / s.Dp()))
	return LatLonSpec{Nr: s.Nr, Nt: nt, Np: np}
}

// Dt and Dp return the angular spacings; Dp is the full 2 pi over Np
// periodic nodes.
//
//yyvet:ignore reach oracle for TestPoleClustering, through MinAngularSpacing
func (s LatLonSpec) Dt() float64 { return math.Pi / float64(s.Nt-1) }

//yyvet:ignore reach oracle for TestPoleClustering, through MinAngularSpacing
func (s LatLonSpec) Dp() float64 { return 2 * math.Pi / float64(s.Np) }

// TotalPoints returns the node count.
func (s LatLonSpec) TotalPoints() int64 {
	return int64(s.Nr) * int64(s.Nt) * int64(s.Np)
}

// MinAngularSpacing returns the smallest distance between adjacent nodes
// on the unit sphere. On the lat-lon grid the longitudinal spacing
// collapses like sin(theta) approaching the poles; the first off-pole row
// sits at theta = Dt, so the minimum shrinks quadratically with
// resolution — this is the grid-convergence problem that throttles the
// explicit time step (ablation A3).
//
//yyvet:ignore reach oracle for TestPoleClustering: the lat-lon pole spacing the Yin-Yang grid is measured against
func (s LatLonSpec) MinAngularSpacing() float64 {
	minLon := s.Dp() * math.Sin(s.Dt()) // first row off the pole
	if dt := s.Dt(); dt < minLon {
		return dt
	}
	return minLon
}

// PointRatioVersusYinYang returns how many times more grid nodes the full
// lat-lon grid spends than the Yin-Yang pair at the same angular
// resolution. In the continuum limit the lat-lon grid covers the sphere
// with 4 pi * (2/pi) excess near-pole crowding relative to the Yin-Yang
// pair's 1.06 coverage; discretely this is simply the node-count ratio.
func PointRatioVersusYinYang(y Spec) float64 {
	ll := NewLatLonSpec(y)
	return float64(ll.TotalPoints()) / float64(y.TotalPoints())
}
