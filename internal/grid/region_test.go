package grid

import "testing"

// splitmix64 is the deterministic PRNG of the property suites: the same
// seeds always generate the same patch shapes, so a failure reproduces.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func intersects(a, b Rect) bool {
	return a.J0 < b.J1 && b.J0 < a.J1 && a.K0 < b.K1 && b.K0 < a.K1
}

func inside(a, outer Rect) bool {
	return a.Empty() || (a.J0 >= outer.J0 && a.J1 <= outer.J1 && a.K0 >= outer.K0 && a.K1 <= outer.K1)
}

// TestSplitInteriorRimPartition is the interior/rim partition property
// test behind the overlapped RHS schedule: for randomly shaped
// sub-blocks of random specs, the interior and rim tiles are pairwise
// disjoint, stay inside the owned rectangle, cover every owned column
// exactly once, and the interior keeps at least the stencil radius away
// from every seam — so an interior stencil can never read a halo cell.
// All properties are asserted from the tile bounds; the exhaustive
// column scan re-verifies the exactly-once cover on every column rather
// than sampling.
func TestSplitInteriorRimPartition(t *testing.T) {
	seed := uint64(0x9d06_8_2026)
	next := func(n int) int {
		seed = splitmix64(seed)
		return int(seed % uint64(n))
	}
	for trial := 0; trial < 300; trial++ {
		nt := 5 + next(16)
		s := NewSpec(5+next(8), nt)
		jlo := next(s.Nt - 1)
		jhi := jlo + 2 + next(s.Nt-jlo-1)
		if jhi > s.Nt {
			jhi = s.Nt
		}
		klo := next(s.Np - 1)
		khi := klo + 2 + next(s.Np-klo-1)
		if khi > s.Np {
			khi = s.Np
		}
		h := 1 + next(3)
		w := 1 + next(3)
		p := NewSubPatch(s, Yin, h, 0, s.Nr, jlo, jhi, klo, khi)
		in, rim := p.SplitInteriorRim(w)
		own := p.Owned()
		tiles := append(Region{in}, rim...)

		// Tile-bound properties: inside the owned rect, pairwise disjoint,
		// column counts summing to the owned count.
		cols := 0
		for ti, a := range tiles {
			if !inside(a, own) {
				t.Fatalf("trial %d: tile %v escapes owned %v", trial, a, own)
			}
			cols += a.Columns()
			for _, b := range tiles[ti+1:] {
				if intersects(a, b) {
					t.Fatalf("trial %d: tiles %v and %v overlap", trial, a, b)
				}
			}
		}
		if cols != own.Columns() {
			t.Fatalf("trial %d: tiles cover %d of %d owned columns", trial, cols, own.Columns())
		}

		// Seam distance: on every seam side the interior bound sits at
		// least w columns inside the owned edge, so a radius-w stencil on
		// any interior column touches owned columns only.
		if !in.Empty() {
			for _, c := range []struct {
				side  int
				holds bool
			}{
				{2, in.J0 >= own.J0+w},
				{3, in.J1 <= own.J1-w},
				{4, in.K0 >= own.K0+w},
				{5, in.K1 <= own.K1-w},
			} {
				if !p.GlobalEdge(c.side) && !c.holds {
					t.Fatalf("trial %d: interior %v within %d of seam side %d (owned %v)", trial, in, w, c.side, own)
				}
			}
		}

		// Exhaustive cover: every owned column is claimed exactly once.
		for j := own.J0; j < own.J1; j++ {
			for k := own.K0; k < own.K1; k++ {
				hits := 0
				for _, a := range tiles {
					if j >= a.J0 && j < a.J1 && k >= a.K0 && k < a.K1 {
						hits++
					}
				}
				if hits != 1 {
					t.Fatalf("trial %d: column (%d,%d) covered %d times", trial, j, k, hits)
				}
			}
		}
	}
}
