package es

import (
	"fmt"
	"strings"
)

// TableIIRow pairs one of the paper's six measured configurations with
// the model's prediction.
type TableIIRow struct {
	Procs       int
	Nr          int
	PaperTFlops float64
	PaperEff    float64 // percent
	ModelTFlops float64
	ModelEff    float64 // percent
}

// PaperTableII lists the measured rows of Table II of the paper.
func PaperTableII() []TableIIRow {
	return []TableIIRow{
		{Procs: 4096, Nr: 511, PaperTFlops: 15.2, PaperEff: 46},
		{Procs: 3888, Nr: 511, PaperTFlops: 13.8, PaperEff: 44},
		{Procs: 3888, Nr: 255, PaperTFlops: 12.1, PaperEff: 39},
		{Procs: 2560, Nr: 511, PaperTFlops: 10.3, PaperEff: 50},
		{Procs: 2560, Nr: 255, PaperTFlops: 9.17, PaperEff: 45},
		{Procs: 1200, Nr: 255, PaperTFlops: 5.40, PaperEff: 56},
	}
}

// TableII evaluates the model for every measured configuration of the
// paper's Table II.
func TableII(m Machine, mp ModelParams, prof StepProfile) ([]TableIIRow, error) {
	rows := PaperTableII()
	for i := range rows {
		p, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(rows[i].Nr), Procs: rows[i].Procs})
		if err != nil {
			return nil, err
		}
		rows[i].ModelTFlops = p.TFlops
		rows[i].ModelEff = p.Efficiency * 100
	}
	return rows, nil
}

// FormatTableII renders the comparison table.
func FormatTableII(rows []TableIIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-22s %-14s %-12s %-14s %-12s\n",
		"processors", "grid points", "paper Tflops", "paper eff", "model Tflops", "model eff")
	for _, r := range rows {
		grid := fmt.Sprintf("%d x 514 x 1538 x 2", r.Nr)
		fmt.Fprintf(&b, "%-10d %-22s %-14.3g %-12s %-14.3g %-12s\n",
			r.Procs, grid, r.PaperTFlops, fmt.Sprintf("%.0f%%", r.PaperEff),
			r.ModelTFlops, fmt.Sprintf("%.0f%%", r.ModelEff))
	}
	return b.String()
}

// PeerResult is a published Earth Simulator performance result from the
// SC2002/SC2003 papers the paper compares against in Table III.
type PeerResult struct {
	Name       string
	TFlops     float64
	Nodes      int // processor nodes used
	EffPct     float64
	GridPoints float64
	Kind       string // simulation kind
	Field      string
	Method     string
	Parallel   string
}

// PeerResults returns the published comparison rows of Table III (the
// yycore row is computed by the model, see TableIII).
func PeerResults() []PeerResult {
	return []PeerResult{
		{Name: "Shingu", TFlops: 26.6, Nodes: 640, EffPct: 65, GridPoints: 7.1e8,
			Kind: "fluid", Field: "atmosphere", Method: "spectral", Parallel: "MPI-microtask"},
		{Name: "Yokokawa", TFlops: 16.4, Nodes: 512, EffPct: 50, GridPoints: 8.6e9,
			Kind: "fluid", Field: "turbulence", Method: "spectral", Parallel: "MPI-microtask"},
		{Name: "Sakagami", TFlops: 14.9, Nodes: 512, EffPct: 45, GridPoints: 1.7e10,
			Kind: "fluid", Field: "inertial fusion", Method: "finite volume", Parallel: "HPF (flat MPI)"},
		{Name: "Komatitsch", TFlops: 5, Nodes: 243, EffPct: 32, GridPoints: 5.5e9,
			Kind: "wave propagation", Field: "seismic wave", Method: "spectral element", Parallel: "flat MPI"},
	}
}

// TableIIIRow is one column of the paper's Table III with the derived
// metrics (grid points per AP, sustained flops per grid point).
type TableIIIRow struct {
	PeerResult
	PointsPerAP float64
	FlopsPerGP  float64
}

// TableIII builds the full comparison: the four published peers plus the
// yycore row computed by the performance model at the paper's flagship
// configuration (4096 processors = 512 nodes).
func TableIII(m Machine, mp ModelParams, prof StepProfile) ([]TableIIIRow, error) {
	p, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(511), Procs: 4096})
	if err != nil {
		return nil, err
	}
	peers := PeerResults()
	rows := make([]TableIIIRow, 0, len(peers)+1)
	for _, pr := range peers {
		rows = append(rows, derive(m, pr))
	}
	self := PeerResult{
		Name:       "Kageyama et al. (this model)",
		TFlops:     p.TFlops,
		Nodes:      p.Config.Procs / m.APsPerNode,
		EffPct:     p.Efficiency * 100,
		GridPoints: float64(p.Config.Spec.TotalPoints()),
		Kind:       "fluid",
		Field:      "geodynamo",
		Method:     "finite difference",
		Parallel:   "flat MPI",
	}
	rows = append(rows, derive(m, self))
	return rows, nil
}

func derive(m Machine, pr PeerResult) TableIIIRow {
	aps := pr.Nodes * m.APsPerNode
	return TableIIIRow{
		PeerResult:  pr,
		PointsPerAP: pr.GridPoints / float64(aps),
		FlopsPerGP:  pr.TFlops * 1e12 / pr.GridPoints,
	}
}

// FormatTableIII renders the comparison like the paper's Table III.
func FormatTableIII(rows []TableIIIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-12s %-6s %-10s %-10s %-11s %-17s %-16s %-17s %s\n",
		"Paper", "Flops/PN", "eff", "g.p.", "g.p./AP", "Flops/g.p.", "Simulation kind", "Field", "Method", "Parallelization")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-12s %-6s %-10.2g %-10.2g %-11s %-17s %-16s %-17s %s\n",
			r.Name,
			fmt.Sprintf("%.3gT/%d", r.TFlops, r.Nodes),
			fmt.Sprintf("%.0f%%", r.EffPct),
			r.GridPoints, r.PointsPerAP,
			fmt.Sprintf("%.2gK", r.FlopsPerGP/1e3),
			r.Kind, r.Field, r.Method, r.Parallel)
	}
	return b.String()
}

// ScalingPoint is one point of the model's strong-scaling curve.
type ScalingPoint struct {
	TFlops     float64
	Efficiency float64
}

// ScalingCurve sweeps the model over process counts at a fixed grid —
// the continuous version of Table II's scattered rows, showing where the
// flat-MPI efficiency knee falls.
func ScalingCurve(m Machine, mp ModelParams, prof StepProfile, nr int, procs []int) ([]ScalingPoint, error) {
	out := make([]ScalingPoint, 0, len(procs))
	for _, p := range procs {
		pred, err := Predict(m, mp, prof, RunConfig{Spec: PaperSpec(nr), Procs: p})
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingPoint{TFlops: pred.TFlops, Efficiency: pred.Efficiency})
	}
	return out, nil
}
