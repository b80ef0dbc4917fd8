// Package obs is the observability runtime of the live solver: per-rank
// span tracing into preallocated ring buffers, per-(comm,tag) message
// metrics, wall-clock gauges, and the exporters that turn them into a
// Perfetto-loadable Chrome trace and a PROGINF-style plain-text run
// report (the software analogue of the Earth Simulator instrumentation
// behind the paper's Tables II/III and List 1).
//
// Design constraints, in priority order:
//
//  1. Observability must never perturb physics. The recorder only reads
//     clocks and writes into its own preallocated memory; it sends no
//     messages, takes no locks on the solver's hot structures, and a
//     traced run's checkpoint is byte-identical to an untraced one
//     (pinned by a golden test in internal/core).
//  2. Nil is off. Every entry point is safe on a nil *Recorder or nil
//     *RankRec and degrades to a no-op, so call sites need no guards and
//     an untraced run pays only a nil check.
//  3. Zero allocations on the hot path. Span records go into a
//     fixed-capacity per-rank ring (oldest entries are overwritten and
//     counted, never reallocated), and metric observations land in
//     preallocated atomic buckets; 0 allocs/op is pinned by
//     TestSpanRecordZeroAlloc.
//
// Concurrency contract: a *RankRec belongs to one rank's goroutine (the
// runtime's ranks are goroutines; each records only its own timeline).
// The *Recorder-level metrics (CommDelivered, CommWaited, pool gauges)
// are safe for concurrent use from any goroutine. Exports (Spans,
// WriteTrace, BuildReport) must run after the recorded runs have
// returned.
package obs

import (
	"sync"
	"time"
)

// SpanKind names one instrumented phase of the solver. The kinds mirror
// the phases of a decomposed time step: the step itself, the RHS
// evaluation, the three stages of a halo exchange, the rim refresh, the
// overset donate/wait/receive trio, the collectives, state scatter and
// gather, and checkpoint I/O.
type SpanKind uint8

const (
	SpanStep SpanKind = iota
	SpanSetup
	SpanRHS
	SpanHaloPack
	SpanHaloWait
	SpanHaloUnpack
	SpanRim
	SpanOversetDonate
	SpanOversetWait
	SpanOversetRecv
	SpanCollective
	SpanScatter
	SpanGather
	SpanCkptWrite
	SpanCkptRead
	SpanDiagnose
	// SpanHaloOverlap covers compute done while halo messages are in
	// flight (between posting the receives and completing them); its
	// growth is exactly the wait time the overlapped schedule hides.
	SpanHaloOverlap
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	SpanStep:          "step",
	SpanSetup:         "setup",
	SpanRHS:           "rhs",
	SpanHaloPack:      "halo.pack",
	SpanHaloWait:      "halo.wait",
	SpanHaloUnpack:    "halo.unpack",
	SpanRim:           "rim",
	SpanOversetDonate: "overset.donate",
	SpanOversetWait:   "overset.wait",
	SpanOversetRecv:   "overset.recv",
	SpanCollective:    "collective",
	SpanScatter:       "scatter",
	SpanGather:        "gather",
	SpanCkptWrite:     "checkpoint.write",
	SpanCkptRead:      "checkpoint.read",
	SpanDiagnose:      "diagnose",
	SpanHaloOverlap:   "halo.overlap",
}

// String returns the span's trace name, e.g. "halo.wait".
func (k SpanKind) String() string {
	if int(k) < len(spanNames) {
		return spanNames[k]
	}
	return "unknown"
}

// Class buckets span kinds for the run report's compute/comm/wait
// decomposition.
type Class uint8

const (
	// ClassCompute is numerical work: the step and RHS containers, setup
	// and the diagnostics reductions' local arithmetic.
	ClassCompute Class = iota
	// ClassComm is time spent moving bytes: packing, unpacking,
	// interpolating donations, scattering received rims, state
	// scatter/gather and checkpoint I/O.
	ClassComm
	// ClassWait is time blocked on a peer: halo and overset receive
	// waits and the collectives (which are rendezvous-dominated).
	ClassWait
)

// ClassOf reports the report class of a span kind.
func ClassOf(k SpanKind) Class {
	switch k {
	case SpanHaloWait, SpanOversetWait, SpanCollective:
		return ClassWait
	case SpanHaloPack, SpanHaloUnpack, SpanRim, SpanOversetDonate,
		SpanOversetRecv, SpanScatter, SpanGather, SpanCkptWrite, SpanCkptRead:
		return ClassComm
	}
	return ClassCompute
}

// DriverRank is the pseudo-rank of the campaign driver's timeline (the
// goroutine that runs between segments: checkpoint reads/writes,
// validation). It gets its own track in the exported trace.
const DriverRank = -1

// DefaultSpanCap is the per-rank span ring capacity when Config.SpanCap
// is zero: at a few hundred spans per step it holds tens of steps of
// full detail; beyond that the ring keeps the most recent spans and
// counts the overwritten ones.
const DefaultSpanCap = 1 << 14

// Config sizes a Recorder.
type Config struct {
	// SpanCap is the per-rank span ring capacity (default DefaultSpanCap).
	SpanCap int
}

// spanRec is one completed span in a rank's ring: start/duration in
// nanoseconds since the recorder epoch, the step it belongs to, the
// kind, and the nesting depth at Begin (used to rebuild the exclusive
// self-times for the report without re-deriving containment).
type spanRec struct {
	start, dur int64
	step       int32
	kind       SpanKind
	depth      uint8
}

// RankRec is one rank's span recorder: a preallocated ring plus the
// rank's wall-clock window and gauges. All methods must be called from
// the rank's own goroutine (or, for DriverRank, the driver goroutine);
// they take no locks and allocate nothing in the steady state.
type RankRec struct {
	rec  *Recorder
	rank int

	ring    []spanRec
	head    int // next write position
	n       int // filled entries (<= cap)
	dropped int64

	depth   int32
	step    int32
	maxStep int32

	// window is the rank's observed wall-clock interval: Open stamps the
	// start (keeping the earliest across segments), Close the end.
	winStart, winEnd int64
	winOpen          bool

	gauges map[string]*GaugeStat
}

// Span is an open span; close it with End. The zero Span is valid and
// ends as a no-op, which is what a nil RankRec's Begin returns.
type Span struct {
	rr    *RankRec
	start int64
	kind  SpanKind
	depth uint8
}

// Begin opens a span of the given kind. Nil-safe: on a nil receiver it
// returns the zero Span. Spans on one rank must strictly nest (End in
// LIFO order), which the single-goroutine-per-rank calling convention
// gives for free.
func (rr *RankRec) Begin(k SpanKind) Span {
	if rr == nil {
		return Span{}
	}
	d := rr.depth
	rr.depth++
	return Span{rr: rr, start: rr.rec.now(), kind: k, depth: uint8(d)}
}

// End closes the span, writing one record into the rank's ring. When
// the ring is full the oldest record is overwritten and counted in
// Dropped.
func (s Span) End() {
	rr := s.rr
	if rr == nil {
		return
	}
	rr.depth--
	end := rr.rec.now()
	rec := spanRec{start: s.start, dur: end - s.start, step: rr.step, kind: s.kind, depth: s.depth}
	if rr.n == len(rr.ring) {
		rr.dropped++
	} else {
		rr.n++
	}
	rr.ring[rr.head] = rec
	rr.head++
	if rr.head == len(rr.ring) {
		rr.head = 0
	}
}

// SetStep stamps the current step number onto subsequently recorded
// spans (and tracks the largest step seen, which the report uses as the
// run's step count).
func (rr *RankRec) SetStep(step int) {
	if rr == nil {
		return
	}
	rr.step = int32(step)
	if rr.step > rr.maxStep {
		rr.maxStep = rr.step
	}
}

// Open marks the start of the rank's observed wall-clock window; call
// it when the rank function starts. Across campaign segments the
// earliest Open wins, so the window spans the whole campaign.
func (rr *RankRec) Open() {
	if rr == nil {
		return
	}
	t := rr.rec.now()
	if !rr.winOpen || t < rr.winStart {
		if !rr.winOpen {
			rr.winStart = t
		}
		rr.winOpen = true
	}
}

// Close marks the end of the rank's observed window (the latest Close
// wins).
func (rr *RankRec) Close() {
	if rr == nil {
		return
	}
	t := rr.rec.now()
	if t > rr.winEnd {
		rr.winEnd = t
	}
}

// Dropped reports how many spans were overwritten because the ring was
// full.
func (rr *RankRec) Dropped() int64 {
	if rr == nil {
		return 0
	}
	return rr.dropped
}

// Len reports how many spans the ring currently holds.
func (rr *RankRec) Len() int {
	if rr == nil {
		return 0
	}
	return rr.n
}

// SetGauge records a named scalar observation on this rank (last value,
// min, max, sum and count are retained). Gauges are for per-step
// physics telemetry — dt, CFL, max |div B| — not hot-loop counters.
func (rr *RankRec) SetGauge(name string, v float64) {
	if rr == nil {
		return
	}
	g := rr.gauges[name]
	if g == nil {
		g = &GaugeStat{Min: v, Max: v}
		rr.gauges[name] = g
	}
	g.Last = v
	if v < g.Min {
		g.Min = v
	}
	if v > g.Max {
		g.Max = v
	}
	g.Sum += v
	g.N++
}

// PoolGauge returns the recorder's shared worker-pool utilization gauge
// (nil on a nil recorder), for wiring into par.Pool.
func (rr *RankRec) PoolGauge() *PoolGauge {
	if rr == nil {
		return nil
	}
	return &rr.rec.pool
}

// GaugeStat summarizes one gauge's observations.
type GaugeStat struct {
	Last, Min, Max, Sum float64
	N                   int64
}

// Mean returns Sum/N (0 when empty).
func (g GaugeStat) Mean() float64 {
	if g.N == 0 {
		return 0
	}
	return g.Sum / float64(g.N)
}

// spans returns the ring's records in insertion order (oldest first).
func (rr *RankRec) spans() []spanRec {
	out := make([]spanRec, 0, rr.n)
	start := rr.head - rr.n
	if start < 0 {
		start += len(rr.ring)
	}
	for i := 0; i < rr.n; i++ {
		out = append(out, rr.ring[(start+i)%len(rr.ring)])
	}
	return out
}

// Recorder is the per-run observability runtime: it owns the time
// epoch, the per-rank span recorders, and the run-wide metric state.
// Create one with New, hand it to the runner (core.Config.Obs), and
// export after the run with WriteTrace / BuildReport.
type Recorder struct {
	epoch   time.Time
	spanCap int

	mu    sync.Mutex
	ranks map[int]*RankRec

	comm commMetrics
	pool PoolGauge
}

// New builds a Recorder. The zero Config selects defaults.
func New(cfg Config) *Recorder {
	if cfg.SpanCap <= 0 {
		cfg.SpanCap = DefaultSpanCap
	}
	r := &Recorder{
		epoch:   time.Now(),
		spanCap: cfg.SpanCap,
		ranks:   map[int]*RankRec{},
	}
	r.comm.init()
	return r
}

// Epoch returns the recorder's time origin; trace timestamps are
// nanoseconds since it.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// now returns nanoseconds since the epoch (monotonic).
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// RankFor returns the rank's span recorder, creating (and preallocating)
// it on first use. Idempotent; safe to call concurrently from the rank
// goroutines of one run, and nil-safe (a nil Recorder yields a nil
// RankRec, which no-ops everywhere).
func (r *Recorder) RankFor(rank int) *RankRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rr := r.ranks[rank]
	if rr == nil {
		rr = &RankRec{
			rec:    r,
			rank:   rank,
			ring:   make([]spanRec, r.spanCap),
			gauges: map[string]*GaugeStat{},
		}
		r.ranks[rank] = rr
	}
	return rr
}

// Driver returns the campaign driver's pseudo-rank recorder (its own
// trace track, used for checkpoint reads/writes between segments).
func (r *Recorder) Driver() *RankRec { return r.RankFor(DriverRank) }

// Ranks returns the recorded rank ids in ascending order (DriverRank
// first when present).
func (r *Recorder) Ranks() []int {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.ranks))
	for rank := range r.ranks {
		out = append(out, rank)
	}
	sortInts(out)
	return out
}

// sortInts is a tiny insertion sort (rank lists are short) to avoid
// importing sort into the hot package for one call site.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
