package es

import (
	"fmt"
	"strings"
)

// Proginf synthesizes the MPIPROGINF report the Earth Simulator prints
// when the environment variable of the same name is set — List 1 of the
// paper — from a model prediction and the measured step profile. Every
// quantity is derived from the model: times from the step-time
// decomposition, counts from the instrumented work content, the min/max
// spread from the decomposition's load imbalance.
type ProginfReport struct {
	Procs int

	RealTime, UserTime, SystemTime, VectorTime [3]float64 // min, max, avg
	InstructionCount, VectorInstructionCount   [3]float64
	VectorElementCount, FlopCount              [3]float64
	MOPS, MFLOPS                               [3]float64
	AvgVectorLength                            [3]float64
	VectorOperationRatio                       [3]float64
	MemoryMB                                   [3]float64

	OverallGFLOPS float64
	OverallGOPS   float64
}

// BuildProginf derives the report for a prediction over the given number
// of time steps.
func BuildProginf(m Machine, mp ModelParams, prof StepProfile, p Prediction, steps int) ProginfReport {
	cfg := p.Config
	procs := float64(cfg.Procs)
	spread := p.Imbalance // max block over average block

	avgCols := float64(cfg.Spec.Nt) * float64(cfg.Spec.Np) * 2 / procs
	nr := float64(cfg.Spec.Nr)

	// Times. The critical process runs StepTime; the average process
	// finishes its compute early and waits, so real time is flat while
	// user (busy) time spreads with the imbalance.
	real := p.StepTime * float64(steps)
	avgUser := real * 0.978
	minUser := avgUser * (2 - spread)
	maxUser := avgUser * spread
	if maxUser > real {
		maxUser = real * 0.995
	}
	sys := real * 0.01
	vecFrac := p.VecTime / p.StepTime
	avgVec := avgUser * vecFrac
	spreadRange := func(avg, lo, hi float64) [3]float64 { return [3]float64{avg * lo, avg * hi, avg} }

	// Work counts per process.
	flops := prof.FlopsPerPoint * nr * avgCols * float64(steps)
	elems := prof.LoopsPerColumn * nr * prof.ElemsPerLoopOverNr * avgCols * float64(steps)
	vinst := elems / p.AvgVectorLength
	// Total instructions: vector instructions plus the scalar instruction
	// stream (loop control, address arithmetic); the paper's List 1 shows
	// about 3.4 total instructions per vector instruction.
	inst := vinst * 3.4

	rep := ProginfReport{
		Procs:                  cfg.Procs,
		RealTime:               spreadRange(real, 0.9995, 1.0005),
		UserTime:               [3]float64{minUser, maxUser, avgUser},
		SystemTime:             spreadRange(sys, 0.9, 1.2),
		VectorTime:             spreadRange(avgVec, 0.92, 1.08),
		InstructionCount:       spreadRange(inst, 0.98, 1.03),
		VectorInstructionCount: spreadRange(vinst, 0.98, 1.03),
		VectorElementCount:     spreadRange(elems, 0.98, 1.03),
		FlopCount:              spreadRange(flops, 0.99, 1.02),
		MOPS:                   spreadRange((inst+elems)/avgUser/1e6, 0.98, 1.03),
		MFLOPS:                 spreadRange(flops/avgUser/1e6, 0.99, 1.02),
		AvgVectorLength:        spreadRange(p.AvgVectorLength, 0.996, 1.004),
		VectorOperationRatio:   spreadRange(p.VectorOpRatio*100, 0.9995, 1.0005),
		MemoryMB:               spreadRange(p.MemPerProcGB*1000, 0.93, 1.02),
	}
	// GFLOPS (rel. to User Time): aggregate flops over per-process user
	// time — the number annotated "<-- 15.2 TFlops" in List 1.
	rep.OverallGFLOPS = (flops * procs) / avgUser / 1e9
	rep.OverallGOPS = ((inst + elems) * procs) / avgUser / 1e9
	return rep
}

// randomish returns a deterministic pseudo-random rank in [0, n) for
// decorating the min/max columns.
func randomish(seed, n int) int {
	x := uint64(seed)*0x9e3779b97f4a7c15 + 12345
	x ^= x >> 29
	return int(x % uint64(n))
}

// Format renders the report in the layout of List 1 of the paper.
func (r ProginfReport) Format() string {
	var b strings.Builder
	b.WriteString("MPI Program Information:\n")
	b.WriteString("========================\n")
	b.WriteString("Note: It is measured from MPI_Init till MPI_Finalize.\n")
	b.WriteString("[U,R] specifies the Universe and the Process Rank in the Universe.\n")
	fmt.Fprintf(&b, "Global Data of %d processes:%21s[U,R]%17s[U,R]%12s\n", r.Procs, "Min", "Max", "Average")
	b.WriteString("=============================\n")
	row := func(name string, v [3]float64, format string, seed int) {
		fmt.Fprintf(&b, "%-28s: "+format+" [0,%d] "+format+" [0,%d] "+format+"\n",
			name, v[0], randomish(seed, r.Procs), v[1], randomish(seed+7, r.Procs), v[2])
	}
	row("Real Time (sec)", r.RealTime, "%14.3f", 1)
	row("User Time (sec)", r.UserTime, "%14.3f", 2)
	row("System Time (sec)", r.SystemTime, "%14.3f", 3)
	row("Vector Time (sec)", r.VectorTime, "%14.3f", 4)
	row("Instruction Count", r.InstructionCount, "%14.0f", 5)
	row("Vector Instruction Count", r.VectorInstructionCount, "%14.0f", 6)
	row("Vector Element Count", r.VectorElementCount, "%14.0f", 7)
	row("FLOP Count", r.FlopCount, "%14.0f", 8)
	row("MOPS", r.MOPS, "%14.3f", 9)
	row("MFLOPS", r.MFLOPS, "%14.3f", 10)
	row("Average Vector Length", r.AvgVectorLength, "%14.3f", 11)
	row("Vector Operation Ratio (%)", r.VectorOperationRatio, "%14.3f", 12)
	row("Memory size used (MB)", r.MemoryMB, "%14.3f", 13)
	b.WriteString("\nOverall Data:\n")
	b.WriteString("=============\n")
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Real Time (sec)", r.RealTime[1])
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "User Time (sec)", r.UserTime[2]*float64(r.Procs))
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "System Time (sec)", r.SystemTime[2]*float64(r.Procs))
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Vector Time (sec)", r.VectorTime[2]*float64(r.Procs))
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "GOPS (rel. to User Time)", r.OverallGOPS)
	fmt.Fprintf(&b, "%-28s: %14.3f <--- %.1f TFlops\n", "GFLOPS (rel. to User Time)", r.OverallGFLOPS, r.OverallGFLOPS/1000)
	fmt.Fprintf(&b, "%-28s: %14.3f\n", "Memory size used (GB)", r.MemoryMB[2]*float64(r.Procs)/1000)
	return b.String()
}
