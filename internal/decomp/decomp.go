// Package decomp parallelizes the yycore solver the way the paper does
// on the Earth Simulator (section IV): the total process count is even;
// the world communicator is split into two identical panels (the Yin grid
// and the Yang grid); within each panel a two-dimensional process grid
// decomposes the horizontal (theta, phi) space, each process keeping the
// whole radial extent — the vectorization dimension; the four nearest
// neighbours exchange halos point-to-point, and the Yin<->Yang overset
// interpolation flows between the panels under the world communicator.
package decomp

import (
	"fmt"

	"repro/internal/grid"
)

// Partition splits n items into parts contiguous balanced blocks and
// returns the parts+1 block boundaries.
func Partition(n, parts int) []int {
	if parts <= 0 || n < parts {
		panic(fmt.Sprintf("decomp: cannot split %d items into %d parts", n, parts))
	}
	bounds := make([]int, parts+1)
	base := n / parts
	rem := n % parts
	pos := 0
	for b := 0; b < parts; b++ {
		bounds[b] = pos
		pos += base
		if b < rem {
			pos++
		}
	}
	bounds[parts] = n
	return bounds
}

// BlockOf returns the index of the block containing item i.
func BlockOf(bounds []int, i int) int {
	for b := 0; b+1 < len(bounds); b++ {
		if i >= bounds[b] && i < bounds[b+1] {
			return b
		}
	}
	panic(fmt.Sprintf("decomp: item %d outside bounds %v", i, bounds))
}

// ChooseDims picks the process-grid shape (pt x pp) for one panel of
// nPanel processes that minimizes the halo-exchange perimeter for the
// panel's Nt x Np horizontal extent. Each block must keep at least two
// nodes per dimension.
func ChooseDims(nPanel int, s grid.Spec) (pt, pp int, err error) {
	if nPanel <= 0 {
		return 0, 0, fmt.Errorf("decomp: need positive panel process count, got %d", nPanel)
	}
	best := -1.0
	for a := 1; a <= nPanel; a++ {
		if nPanel%a != 0 {
			continue
		}
		b := nPanel / a
		if s.Nt/a < 2 || s.Np/b < 2 {
			continue
		}
		// Total halo traffic ~ a*Np + b*Nt row-columns.
		cost := float64(a)*float64(s.Np) + float64(b)*float64(s.Nt)
		if best < 0 || cost < best {
			best = cost
			pt, pp = a, b
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("decomp: %d processes cannot tile a %dx%d panel", nPanel, s.Nt, s.Np)
	}
	return pt, pp, nil
}

// Layout describes the full two-panel decomposition for a world of
// nProcs processes.
type Layout struct {
	Spec    grid.Spec
	NProcs  int
	PT, PP  int   // process grid within each panel
	TBounds []int // theta block boundaries, len PT+1
	PBounds []int // phi block boundaries, len PP+1
}

// NewLayout validates and builds the decomposition: nProcs must be even
// and each panel's share must tile the panel. The process-grid shape is
// chosen to minimize halo traffic.
func NewLayout(s grid.Spec, nProcs int) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if nProcs <= 0 || nProcs%2 != 0 {
		return nil, fmt.Errorf("decomp: total process count must be even and positive, got %d", nProcs)
	}
	pt, pp, err := ChooseDims(nProcs/2, s)
	if err != nil {
		return nil, err
	}
	return NewLayoutDims(s, nProcs, pt, pp)
}

// NewLayoutDims builds the decomposition with an explicit pt x pp
// process grid per panel (used by the decomposition-shape ablation).
func NewLayoutDims(s grid.Spec, nProcs, pt, pp int) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if nProcs <= 0 || nProcs%2 != 0 || pt*pp != nProcs/2 {
		return nil, fmt.Errorf("decomp: %dx%d grid incompatible with %d processes", pt, pp, nProcs)
	}
	if s.Nt/pt < 2 || s.Np/pp < 2 {
		return nil, fmt.Errorf("decomp: %dx%d grid leaves blocks under 2 nodes for %dx%d panel", pt, pp, s.Nt, s.Np)
	}
	return &Layout{
		Spec:    s,
		NProcs:  nProcs,
		PT:      pt,
		PP:      pp,
		TBounds: Partition(s.Nt, pt),
		PBounds: Partition(s.Np, pp),
	}, nil
}

// PanelOf returns the panel a world rank belongs to: the lower half of
// the world is the Yin panel, the upper half the Yang panel.
func (l *Layout) PanelOf(world int) grid.Panel {
	if world < l.NProcs/2 {
		return grid.Yin
	}
	return grid.Yang
}

// CartRankOf returns the rank within the panel communicator.
func (l *Layout) CartRankOf(world int) int {
	return world % (l.NProcs / 2)
}

// WorldRank returns the world rank of the process at cart position
// (bt, bp) of the given panel.
func (l *Layout) WorldRank(p grid.Panel, bt, bp int) int {
	cart := bt*l.PP + bp
	if p == grid.Yang {
		cart += l.NProcs / 2
	}
	return cart
}

// OwnerOf returns the world rank owning global horizontal node (j, k) of
// the given panel.
func (l *Layout) OwnerOf(p grid.Panel, j, k int) int {
	return l.WorldRank(p, BlockOf(l.TBounds, j), BlockOf(l.PBounds, k))
}

// BlockRange returns the node ranges of cart position (bt, bp).
func (l *Layout) BlockRange(bt, bp int) (jlo, jhi, klo, khi int) {
	return l.TBounds[bt], l.TBounds[bt+1], l.PBounds[bp], l.PBounds[bp+1]
}

// SubPatch builds the grid patch of the given world rank.
func (l *Layout) SubPatch(world, halo int) *grid.Patch {
	p := l.PanelOf(world)
	cart := l.CartRankOf(world)
	bt, bp := cart/l.PP, cart%l.PP
	jlo, jhi, klo, khi := l.BlockRange(bt, bp)
	return grid.NewSubPatch(l.Spec, p, halo, 0, l.Spec.Nr, jlo, jhi, klo, khi)
}
