// Package perfcount provides global instrumentation counters for
// floating-point work and vector-loop structure.
//
// The Earth Simulator reported hardware counters (FLOP count, vector
// instruction count, vector element count, average vector length) through
// its MPIPROGINF facility; the paper's List 1 is such a report. This
// package is the software substitute: numerical kernels report, once per
// whole-field operation, how many flops they performed and how their
// innermost (vectorizable) loops were shaped. The es package turns these
// totals into a machine-model performance report.
//
// Counters are global and atomic so that concurrently running ranks (see
// internal/mpi) can share them; kernels amortize the atomic cost by adding
// once per field sweep, not per element.
package perfcount

import "sync/atomic"

var (
	flops       atomic.Int64
	vectorLoops atomic.Int64
	vectorElems atomic.Int64
	scalarOps   atomic.Int64
	commBytes   atomic.Int64
	commMsgs    atomic.Int64
)

// AddFlops records n floating-point operations.
func AddFlops(n int64) { flops.Add(n) }

// AddVectorLoops records the execution of loops innermost vectorizable
// loops with elems total elements. On a vector machine each such loop
// becomes a sequence of vector instructions whose length is the trip count,
// so (loops, elems) determines the average vector length.
func AddVectorLoops(loops, elems int64) {
	vectorLoops.Add(loops)
	vectorElems.Add(elems)
}

// AddScalarOps records n operations that are inherently scalar (loop
// bookkeeping, boundary fix-ups, interpolation gather/scatter) and would
// not run in the vector pipeline.
func AddScalarOps(n int64) { scalarOps.Add(n) }

// AddComm records one message of n bytes passed through the message
// runtime.
func AddComm(n int64) {
	commBytes.Add(n)
	commMsgs.Add(1)
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	Flops       int64 // floating-point operations
	VectorLoops int64 // innermost vectorizable loops executed
	VectorElems int64 // total elements processed by those loops
	ScalarOps   int64 // inherently scalar operations
	CommBytes   int64 // bytes moved through the message runtime
	CommMsgs    int64 // messages moved through the message runtime
}

// Read returns the current counter values.
func Read() Snapshot {
	return Snapshot{
		Flops:       flops.Load(),
		VectorLoops: vectorLoops.Load(),
		VectorElems: vectorElems.Load(),
		ScalarOps:   scalarOps.Load(),
		CommBytes:   commBytes.Load(),
		CommMsgs:    commMsgs.Load(),
	}
}

// Sub returns s - t component-wise; use it to charge an interval of work.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		Flops:       s.Flops - t.Flops,
		VectorLoops: s.VectorLoops - t.VectorLoops,
		VectorElems: s.VectorElems - t.VectorElems,
		ScalarOps:   s.ScalarOps - t.ScalarOps,
		CommBytes:   s.CommBytes - t.CommBytes,
		CommMsgs:    s.CommMsgs - t.CommMsgs,
	}
}

// AverageVectorLength reports VectorElems/VectorLoops, the quantity the
// Earth Simulator called "Average Vector Length" (251.6 in the paper's
// List 1). Zero loops yield 0.
func (s Snapshot) AverageVectorLength() float64 {
	if s.VectorLoops == 0 {
		return 0
	}
	return float64(s.VectorElems) / float64(s.VectorLoops)
}

// VectorOperationRatio reports the fraction of all operations executed by
// vector loops, the quantity the Earth Simulator called "Vector Operation
// Ratio" (99% in the paper's List 1).
func (s Snapshot) VectorOperationRatio() float64 {
	total := s.VectorElems + s.ScalarOps
	if total == 0 {
		return 0
	}
	return float64(s.VectorElems) / float64(total)
}
