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
