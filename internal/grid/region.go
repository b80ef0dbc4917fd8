package grid

// Rect is a half-open rectangle of padded angular indices: colatitude
// rows j in [J0, J1), longitude columns k in [K0, K1). The radial index
// is never split — every kernel sweeps the full radial extent of each
// (j, k) column, the vectorization dimension — so a Rect fully
// describes an angular sub-block of a patch.
type Rect struct {
	J0, J1, K0, K1 int
}

// Empty reports whether the rectangle contains no columns.
func (r Rect) Empty() bool { return r.J0 >= r.J1 || r.K0 >= r.K1 }

// Columns returns the number of (j, k) columns in the rectangle.
func (r Rect) Columns() int {
	if r.Empty() {
		return 0
	}
	return (r.J1 - r.J0) * (r.K1 - r.K0)
}

// Region is a set of pairwise-disjoint rectangles, evaluated in order.
// Kernels that take a Region touch exactly the columns it covers, so a
// computation split into {interior} then {rim} phases visits every owned
// column exactly once.
type Region []Rect

// Columns returns the total column count over all rectangles.
func (rg Region) Columns() int {
	n := 0
	for _, r := range rg {
		n += r.Columns()
	}
	return n
}

// Owned returns the patch's full owned-column rectangle [H, H+Nt) x
// [H, H+Np) — the region every full-patch kernel sweeps.
func (p *Patch) Owned() Rect {
	h := p.H
	return Rect{J0: h, J1: h + p.Nt, K0: h, K1: h + p.Np}
}

// OwnedRegion is Owned as a one-rectangle Region.
func (p *Patch) OwnedRegion() Region { return Region{p.Owned()} }

// SplitInteriorRim partitions the owned columns into an interior
// rectangle and a rim region of width w along every decomposition seam
// (a patch edge that is not a global panel boundary). Interior columns
// are at least w columns away from every seam, so a stencil of radius w
// evaluated on the interior never reads a halo cell; rim columns are the
// remainder and may only be computed after the halo exchange completes.
//
// The rim rectangles are pairwise disjoint and, together with the
// interior, cover every owned column exactly once: seam-side row strips
// span the full owned width, and seam-side column strips are restricted
// to the interior row range. A patch whose edges are all global
// boundaries (a full serial panel) has an empty rim. When w is large
// enough to consume the whole extent, the interior collapses to empty
// and the strips still partition the owned columns.
func (p *Patch) SplitInteriorRim(w int) (Rect, Region) {
	own := p.Owned()
	in := own
	if !p.GlobalEdge(2) {
		in.J0 += w
	}
	if !p.GlobalEdge(3) {
		in.J1 -= w
	}
	if !p.GlobalEdge(4) {
		in.K0 += w
	}
	if !p.GlobalEdge(5) {
		in.K1 -= w
	}
	// Oversized w: collapse the interior onto a cut inside the owned
	// range so the strips below still partition without overlapping.
	in.J0, in.J1 = clampCut(in.J0, in.J1, own.J0, own.J1)
	in.K0, in.K1 = clampCut(in.K0, in.K1, own.K0, own.K1)

	var rim Region
	add := func(r Rect) {
		if !r.Empty() {
			rim = append(rim, r)
		}
	}
	add(Rect{own.J0, in.J0, own.K0, own.K1}) // north strip, full width
	add(Rect{in.J1, own.J1, own.K0, own.K1}) // south strip, full width
	add(Rect{in.J0, in.J1, own.K0, in.K0})   // west strip, interior rows
	add(Rect{in.J0, in.J1, in.K1, own.K1})   // east strip, interior rows
	if in.Empty() {
		in = Rect{}
	}
	return in, rim
}

// clampCut resolves an over-shrunk [lo, hi) interval: when lo > hi the
// interval is collapsed to an empty cut at a point inside [min, max], so
// the surrounding strips [min, lo) and [hi, max) stay disjoint and
// jointly cover [min, max).
func clampCut(lo, hi, min, max int) (int, int) {
	if lo <= hi {
		return lo, hi
	}
	cut := hi
	if cut < min {
		cut = min
	}
	if cut > max {
		cut = max
	}
	return cut, cut
}
