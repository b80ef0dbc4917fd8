package mhd

import (
	"repro/internal/perfcount"
)

// ApplyWallBC imposes the physical boundary conditions on the spherical
// walls of one panel block (only where the block actually touches a
// wall):
//
//   - rigid no-slip, impermeable walls: f = 0;
//   - fixed wall temperatures T(ri) = TIn, T(ro) = 1, imposed through
//     p = rho * T_wall (rho itself evolves by continuity, with one-sided
//     differences at the walls);
//   - the magnetic wall condition selected by Params.MagBC: confined
//     (A = 0: perfectly conducting, line-tied, zero normal flux) or
//     pseudo-vacuum (vanishing tangential field); see MagneticBC.
//
// Wall values are set along entire angular columns (rim and halo columns
// included) so that subsequently exchanged or differentiated data see
// consistent walls.
func ApplyWallBC(pl *Panel, prm Params) {
	p := pl.Patch
	_, ntP, npP := p.Padded()
	h := p.H
	type wall struct {
		i    int
		temp float64
	}
	var wallsA [2]wall
	walls := wallsA[:0]
	if p.GlobalEdge(0) {
		walls = append(walls, wall{h, prm.TIn})
	}
	if p.GlobalEdge(1) {
		walls = append(walls, wall{h + p.Nr - 1, 1.0})
	}
	for _, wl := range walls {
		for k := 0; k < npP; k++ {
			for j := 0; j < ntP; j++ {
				pl.U.F.R.Set(wl.i, j, k, 0)
				pl.U.F.T.Set(wl.i, j, k, 0)
				pl.U.F.P.Set(wl.i, j, k, 0)
				pl.U.P.Set(wl.i, j, k, pl.U.Rho.At(wl.i, j, k)*wl.temp)
			}
		}
		applyMagneticWall(pl, prm.MagBC, wl.i, wl.i == p.H)
	}
	perfcount.AddScalarOps(int64(len(walls)) * int64(ntP) * int64(npP))
}
