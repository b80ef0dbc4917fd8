package es

import (
	"fmt"
	"math"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// ModelParams are the calibration constants of the performance model.
// The defaults are fitted so that the model regenerates Table II of the
// paper from the measured step profile; they stay within the physically
// plausible range for the Earth Simulator's 500 MHz vector pipes and
// crossbar network.
type ModelParams struct {
	// VectorStartupSec is the fixed cost of issuing one innermost vector
	// loop (pipeline fill + loop control).
	VectorStartupSec float64
	// ScalarOpRate is the sustained rate of inherently scalar operations.
	ScalarOpRate float64
	// MemBytesPerFlop throttles vector execution by memory traffic: the
	// sustained vector rate is peak / (1 + MemBytesPerFlop*peak/memBW),
	// folded here into a single effective slowdown factor.
	VectorSlowdown float64
	// EffLinkBW is the effective point-to-point bandwidth seen by one
	// process (the node's 12.3 GB/s x 2 crossbar shared by 8 flat-MPI
	// processes, minus protocol overhead).
	EffLinkBW float64
	// MsgLatencySec is the per-message cost.
	MsgLatencySec float64
	// SyncPerProcSec models the per-step synchronization and jitter cost
	// that grows with the total number of flat-MPI processes (the reason
	// hybrid parallelization needs smaller problems than flat MPI for the
	// same efficiency, cf. Nakajima 2002 cited by the paper).
	SyncPerProcSec float64
	// BankPenalty multiplies vector time when the radial extent is a
	// multiple of the vector register length (memory bank conflicts);
	// half the penalty applies at multiples of half the register.
	BankPenalty float64
	// ScalarOpsPerLoop charges the scalar loop-control work of each
	// vector loop when computing the vector operation ratio.
	ScalarOpsPerLoop float64
	// FieldsPerPoint and MemOverheadMB size the per-process memory
	// estimate.
	FieldsPerPoint float64
	MemOverheadMB  float64
}

// DefaultModelParams returns the calibrated constants.
func DefaultModelParams() ModelParams {
	return ModelParams{
		VectorStartupSec: 6.0e-8,
		ScalarOpRate:     2.0e8,
		VectorSlowdown:   1.2,
		EffLinkBW:        1.8e9,
		MsgLatencySec:    1.2e-5,
		SyncPerProcSec:   4.0e-6,
		BankPenalty:      1.5,
		ScalarOpsPerLoop: 4.8,
		FieldsPerPoint:   70,
		MemOverheadMB:    180,
	}
}

// RunConfig is one performance experiment: a grid and a process count.
// ForceDims, when non-zero, overrides the automatic process-grid shape
// (for the decomposition-shape ablation).
type RunConfig struct {
	Spec      grid.Spec
	Procs     int
	ForceDims [2]int
}

// Prediction is the model's output for one run configuration.
type Prediction struct {
	Config       RunConfig
	TFlops       float64
	Efficiency   float64 // fraction of aggregate peak
	StepTime     float64 // seconds per time step
	VecTime      float64 // vector share of StepTime on the critical path
	CommFraction float64
	Imbalance    float64 // max block / mean block

	AvgVectorLength float64
	VectorOpRatio   float64
	MemPerProcGB    float64
}

// maxBlock returns the largest block extents of a balanced partition.
func maxBlock(n, parts int) int {
	b := n / parts
	if n%parts != 0 {
		b++
	}
	return b
}

// Predict evaluates the performance model for one run configuration.
func Predict(m Machine, mp ModelParams, prof StepProfile, cfg RunConfig) (Prediction, error) {
	s := cfg.Spec
	if err := s.Validate(); err != nil {
		return Prediction{}, err
	}
	if cfg.Procs > m.TotalAPs() {
		return Prediction{}, fmt.Errorf("es: %d processes exceed the machine's %d APs", cfg.Procs, m.TotalAPs())
	}
	var l *decomp.Layout
	var err error
	if cfg.ForceDims[0] > 0 {
		l, err = decomp.NewLayoutDims(s, cfg.Procs, cfg.ForceDims[0], cfg.ForceDims[1])
	} else {
		l, err = decomp.NewLayout(s, cfg.Procs)
	}
	if err != nil {
		return Prediction{}, err
	}
	ntB := maxBlock(s.Nt, l.PT)
	npB := maxBlock(s.Np, l.PP)
	aMax := float64(ntB * npB)
	aAvg := float64(s.Nt) * float64(s.Np) / float64(l.PT*l.PP)
	nrP := float64(s.Nr + 2)

	// --- Compute time on the critical (largest-block) process. ---
	peak := m.APPeakFlops
	bank := 1.0
	switch {
	case s.Nr%m.VectorRegLen == 0:
		bank = mp.BankPenalty
	case s.Nr%(m.VectorRegLen/2) == 0:
		bank = 1 + (mp.BankPenalty-1)/2
	}
	flopsLoc := prof.FlopsPerPoint * float64(s.Nr) * aMax
	tVec := flopsLoc / peak * mp.VectorSlowdown * bank
	tStart := prof.LoopsPerColumn * aMax * mp.VectorStartupSec
	tScal := prof.ScalarOpsPerColumn * aMax / mp.ScalarOpRate

	// --- Communication on the critical process. ---
	// Per stage our algorithm exchanges: the 8 state fields once (the
	// post-overset update needs only the thin rim-crossing refresh), the
	// 3 magnetic-field components, and the div v intermediate: 12
	// field-halo layers. RK4 has 4 stages.
	const layersPerStep = 4 * (8 + 3 + 1)
	rows := 0.0
	msgs := 0.0
	if l.PT > 1 {
		rows += 2 * float64(npB)
		msgs += 2
	}
	if l.PP > 1 {
		rows += 2 * float64(ntB)
		msgs += 2
	}
	haloBytes := layersPerStep * rows * nrP * 8
	haloMsgs := 4 * 4 * msgs // 4 stages x 4 exchange operations

	// Overset: a panel-edge block owns about (ntB + npB) rim columns;
	// each flows 8 columns of nrP values per constraint application (4
	// applications per step), in each direction.
	rimCols := float64(ntB + npB)
	oversetBytes := 4 * rimCols * 8 * nrP * 8 * 2
	oversetMsgs := 4.0 * 2

	tComm := (haloBytes+oversetBytes)/mp.EffLinkBW + (haloMsgs+oversetMsgs)*mp.MsgLatencySec
	tSync := mp.SyncPerProcSec * float64(cfg.Procs)

	tStep := tVec + tStart + tScal + tComm + tSync
	totalPoints := float64(s.TotalPoints())
	totalFlopsPerStep := prof.FlopsPerPoint * totalPoints
	tflops := totalFlopsPerStep / tStep / 1e12

	chunks := math.Ceil(float64(s.Nr) / float64(m.VectorRegLen))
	avl := float64(s.Nr) / chunks * math.Min(prof.ElemsPerLoopOverNr, 1)
	if prof.ElemsPerLoopOverNr > 1 {
		// Loops covering padded rows slightly exceed Nr elements.
		avl = math.Min(float64(s.Nr)/chunks*prof.ElemsPerLoopOverNr, float64(m.VectorRegLen)-4)
	}
	elemsPerColumn := prof.LoopsPerColumn * float64(s.Nr) * prof.ElemsPerLoopOverNr
	scalarPerColumn := prof.ScalarOpsPerColumn + prof.LoopsPerColumn*mp.ScalarOpsPerLoop
	vor := elemsPerColumn / (elemsPerColumn + scalarPerColumn)

	memGB := (mp.FieldsPerPoint*nrP*float64(ntB+2)*float64(npB+2)*8 + mp.MemOverheadMB*1e6) / 1e9

	return Prediction{
		Config:          cfg,
		TFlops:          tflops,
		Efficiency:      tflops * 1e12 / (float64(cfg.Procs) * peak),
		StepTime:        tStep,
		VecTime:         tVec,
		CommFraction:    tComm / tStep,
		Imbalance:       aMax / aAvg,
		AvgVectorLength: avl,
		VectorOpRatio:   vor,
		MemPerProcGB:    memGB,
	}, nil
}

// PaperSpec returns the paper's production grid with the given radial
// size (511 or 255): 514 latitudinal x 1538 longitudinal nodes per panel.
func PaperSpec(nr int) grid.Spec {
	return grid.Spec{Nr: nr, Nt: 514, Np: 1538, RI: 0.35, RO: 1.0}
}

// PredictHybrid evaluates the model for hybrid parallelization — MPI
// between nodes, microtasking across the 8 APs within each node — the
// alternative the paper declined in favour of flat MPI. cfg.Procs still
// counts APs; the MPI process count becomes cfg.Procs / APsPerNode, so
// each process owns a block eight times larger, amortizing the fixed
// per-process costs. This regenerates the paper's (and Nakajima 2002's)
// observation that flat MPI needs a larger problem to reach the same
// efficiency.
func PredictHybrid(m Machine, mp ModelParams, prof StepProfile, cfg RunConfig) (Prediction, error) {
	s := cfg.Spec
	if err := s.Validate(); err != nil {
		return Prediction{}, err
	}
	if cfg.Procs%m.APsPerNode != 0 {
		return Prediction{}, fmt.Errorf("es: hybrid needs a multiple of %d APs, got %d", m.APsPerNode, cfg.Procs)
	}
	nodes := cfg.Procs / m.APsPerNode
	l, err := decomp.NewLayout(s, nodes)
	if err != nil {
		return Prediction{}, err
	}
	ntB := maxBlock(s.Nt, l.PT)
	npB := maxBlock(s.Np, l.PP)
	aMax := float64(ntB * npB)
	aAvg := float64(s.Nt) * float64(s.Np) / float64(l.PT*l.PP)
	nrP := float64(s.Nr + 2)
	aps := float64(m.APsPerNode)

	// The node's 8 APs share the block: vector work, loop startups and
	// scalar work all divide by 8, at a microtasking efficiency below 1
	// (fork/join and imbalance inside the node).
	const microEff = 0.92
	peak := m.APPeakFlops
	bank := 1.0
	switch {
	case s.Nr%m.VectorRegLen == 0:
		bank = mp.BankPenalty
	case s.Nr%(m.VectorRegLen/2) == 0:
		bank = 1 + (mp.BankPenalty-1)/2
	}
	flopsLoc := prof.FlopsPerPoint * float64(s.Nr) * aMax
	tVec := flopsLoc / (peak * aps * microEff) * mp.VectorSlowdown * bank
	tStart := prof.LoopsPerColumn * aMax / aps * mp.VectorStartupSec / microEff
	tScal := prof.ScalarOpsPerColumn * aMax / aps / mp.ScalarOpRate

	const layersPerStep = 4 * (8 + 3 + 1)
	rows := 0.0
	msgs := 0.0
	if l.PT > 1 {
		rows += 2 * float64(npB)
		msgs += 2
	}
	if l.PP > 1 {
		rows += 2 * float64(ntB)
		msgs += 2
	}
	haloBytes := layersPerStep * rows * nrP * 8
	haloMsgs := 4 * 4 * msgs
	rimCols := float64(ntB + npB)
	oversetBytes := 4 * rimCols * 8 * nrP * 8 * 2
	oversetMsgs := 4.0 * 2
	// One MPI process per node owns the full node links.
	nodeBW := mp.EffLinkBW * aps
	tComm := (haloBytes+oversetBytes)/nodeBW + (haloMsgs+oversetMsgs)*mp.MsgLatencySec
	tSync := mp.SyncPerProcSec * float64(nodes)

	tStep := tVec + tStart + tScal + tComm + tSync
	tflops := prof.FlopsPerPoint * float64(s.TotalPoints()) / tStep / 1e12

	return Prediction{
		Config:       cfg,
		TFlops:       tflops,
		Efficiency:   tflops * 1e12 / (float64(cfg.Procs) * peak),
		StepTime:     tStep,
		VecTime:      tVec,
		CommFraction: tComm / tStep,
		Imbalance:    aMax / aAvg,
	}, nil
}
