// Package snapshot implements the run's persistent data products, the
// paper's section-V pipeline: binary checkpoints of the full state (for
// exact restart) and visualization exports of the Cartesian-component
// fields B, v, omega and T — the paper saved 127 such snapshots, about
// 500 GB, during one six-hour run.
//
// The checkpoint format is a self-describing little-endian binary
// container: a magic header, the grid spec and physical parameters, then
// the interior of the eight state scalars of each panel, and a trailing
// CRC-32 (codec.go). Restarting from a checkpoint is bit-exact (tested).
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/coords"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/sphops"
)

// Magic identifies checkpoint files; the version gates format changes.
const (
	Magic   = "YYGO"
	Version = 2
)

// VizExport is the visualization product of section V: the Cartesian
// components of B, v and omega plus T, in single precision, on the panel
// node set with optional angular subsampling.
type VizExport struct {
	Spec      grid.Spec
	Subsample int // keep every Subsample-th angular node (1 = all)
	Time      float64
	// Fields[panel][f] with f indexing Bx,By,Bz,Vx,Vy,Vz,Wx,Wy,Wz,T;
	// each slice is radial-fastest over the kept nodes.
	Fields [2][10][]float32
	// KeptNt, KeptNp are the angular node counts after subsampling.
	KeptNt, KeptNp int
}

// FieldNames lists the export field order.
func FieldNames() [10]string {
	return [10]string{"Bx", "By", "Bz", "Vx", "Vy", "Vz", "Wx", "Wy", "Wz", "T"}
}

// BuildVizExport converts the solver's state into the section-V product.
// The spherical components of v, B and the derived vorticity are rotated
// into geographic Cartesian components exactly as the paper stored them
// ("it is convenient for data visualization/analysis purpose to store
// the Cartesian components").
func BuildVizExport(sv *mhd.Solver, subsample int) (*VizExport, error) {
	if subsample < 1 {
		return nil, fmt.Errorf("snapshot: subsample must be >= 1, got %d", subsample)
	}
	ex := &VizExport{Spec: sv.Spec, Subsample: subsample, Time: sv.Time}
	for pi, pl := range sv.Panels {
		mhd.ComputeVTB(pl, &pl.U)
		p := pl.Patch
		h := p.H
		vort := p.NewVector()
		sphops.Curl(p, pl.V, vort, pl.W)

		keptJ := keepIndices(p.Nt, subsample)
		keptK := keepIndices(p.Np, subsample)
		ex.KeptNt, ex.KeptNp = len(keptJ), len(keptK)
		n := sv.Spec.Nr * len(keptJ) * len(keptK)
		for f := range ex.Fields[pi] {
			ex.Fields[pi][f] = make([]float32, 0, n)
		}
		for _, k := range keptK {
			for _, j := range keptJ {
				th, ph := p.Theta[j+h], p.Phi[k+h]
				for i := h; i < h+p.Nr; i++ {
					b := toGeoCart(p.Panel, th, ph, pl.B.R.At(i, j+h, k+h), pl.B.T.At(i, j+h, k+h), pl.B.P.At(i, j+h, k+h))
					v := toGeoCart(p.Panel, th, ph, pl.V.R.At(i, j+h, k+h), pl.V.T.At(i, j+h, k+h), pl.V.P.At(i, j+h, k+h))
					w := toGeoCart(p.Panel, th, ph, vort.R.At(i, j+h, k+h), vort.T.At(i, j+h, k+h), vort.P.At(i, j+h, k+h))
					ex.Fields[pi][0] = append(ex.Fields[pi][0], float32(b.X))
					ex.Fields[pi][1] = append(ex.Fields[pi][1], float32(b.Y))
					ex.Fields[pi][2] = append(ex.Fields[pi][2], float32(b.Z))
					ex.Fields[pi][3] = append(ex.Fields[pi][3], float32(v.X))
					ex.Fields[pi][4] = append(ex.Fields[pi][4], float32(v.Y))
					ex.Fields[pi][5] = append(ex.Fields[pi][5], float32(v.Z))
					ex.Fields[pi][6] = append(ex.Fields[pi][6], float32(w.X))
					ex.Fields[pi][7] = append(ex.Fields[pi][7], float32(w.Y))
					ex.Fields[pi][8] = append(ex.Fields[pi][8], float32(w.Z))
					ex.Fields[pi][9] = append(ex.Fields[pi][9], float32(pl.T.At(i, j+h, k+h)))
				}
			}
		}
	}
	return ex, nil
}

func keepIndices(n, sub int) []int {
	var out []int
	for i := 0; i < n; i += sub {
		out = append(out, i)
	}
	return out
}

func toGeoCart(panel grid.Panel, th, ph, vr, vt, vp float64) coords.Cartesian {
	c := coords.SphToCartVec(th, ph, coords.SphVec{VR: vr, VT: vt, VP: vp})
	if panel == grid.Yang {
		c = coords.YinYang(c)
	}
	return c
}

// Bytes returns the export's payload size, the quantity the paper's
// "about 500 GB" refers to across 127 saves.
func (ex *VizExport) Bytes() int64 {
	var n int64
	for pi := range ex.Fields {
		for f := range ex.Fields[pi] {
			n += int64(4 * len(ex.Fields[pi][f]))
		}
	}
	return n
}

// WriteVizExport streams the export as a simple binary container:
// magic "YYVZ", spec ints, subsample, time, then each panel's ten field
// arrays in FieldNames order.
func WriteVizExport(w io.Writer, ex *VizExport) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString("YYVZ"); err != nil {
		return err
	}
	meta := []int32{int32(ex.Spec.Nr), int32(ex.Spec.Nt), int32(ex.Spec.Np),
		int32(ex.Subsample), int32(ex.KeptNt), int32(ex.KeptNp)}
	if err := binary.Write(bw, binary.LittleEndian, meta); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, ex.Time); err != nil {
		return err
	}
	for pi := range ex.Fields {
		for f := range ex.Fields[pi] {
			if err := binary.Write(bw, binary.LittleEndian, ex.Fields[pi][f]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
