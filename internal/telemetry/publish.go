// Package telemetry is the live, pull-based observability plane of a
// running campaign: each rank publishes a fixed-size snapshot of its
// step state into a seqlock-style double buffer that a collector on
// the driver side reads without any rank-to-rank communication, and an
// embedded HTTP server exposes the aggregate as Prometheus text
// exposition (/metrics), a server-sent event stream of the run's fault
// timeline (/events), campaign progress JSON (/progress) and the
// standard pprof endpoints (/debug/pprof). An anomaly engine evaluates
// streaming rules over the same data and emits typed telemetry.alert
// events into the shared mpi.EventLog, so alarms reach the SSE stream,
// the post-mortem and the run report through the one timeline that
// already exists.
//
// Design constraints, inherited from internal/obs and enforced by the
// det-purity analyzer and TestPublishZeroAlloc:
//
//  1. The publisher side (this file) runs inside the solver step on the
//     rank goroutines of a deterministic package. It must not read the
//     wall clock, allocate, take locks, or communicate — it performs a
//     fixed number of atomic word stores into memory the publisher
//     owns. Everything clock- or network-flavored lives on the
//     collector/server side (plane.go, server.go, alerts.go).
//  2. Nil is off: a nil *RankPub Publish is a no-op, so untelemetrized
//     runs pay one nil check per step.
//  3. Reads never block writes. The collector copies whichever slot the
//     sequence word proves stable; a torn read is detected by the
//     re-check and retried, never locked against.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Snapshot is one rank's published step state: everything the live
// plane wants at step granularity, flattened to fixed-size words so
// publishing is a handful of atomic stores. Values that already live
// in concurrency-safe obs structures (comm histograms, pool gauges)
// are not duplicated here — the collector reads those directly.
type Snapshot struct {
	// Step is the rank's completed step count; DT the step size it
	// last advanced with.
	Step int64
	DT   float64
	// CFL and DivB are the rank's latest diagnostic gauges (0 until
	// the first Diagnose).
	CFL  float64
	DivB float64
	// Mass and the energies are the globally reduced diagnostics the
	// rank last computed — identical on every rank by construction.
	Mass      float64
	KineticE  float64
	MagneticE float64
	InternalE float64
	MaxV      float64
	MaxB      float64
	// Spans and SpanDropped mirror the rank's obs span ring occupancy
	// and overflow count.
	Spans       int64
	SpanDropped int64
}

// snapWords is the flattened word count of Snapshot; encode and decode
// must visit every field exactly once in the same order.
const snapWords = 12

func (s *Snapshot) encode(w *[snapWords]uint64) {
	w[0] = uint64(s.Step)
	w[1] = math.Float64bits(s.DT)
	w[2] = math.Float64bits(s.CFL)
	w[3] = math.Float64bits(s.DivB)
	w[4] = math.Float64bits(s.Mass)
	w[5] = math.Float64bits(s.KineticE)
	w[6] = math.Float64bits(s.MagneticE)
	w[7] = math.Float64bits(s.InternalE)
	w[8] = math.Float64bits(s.MaxV)
	w[9] = math.Float64bits(s.MaxB)
	w[10] = uint64(s.Spans)
	w[11] = uint64(s.SpanDropped)
}

func decodeSnap(w *[snapWords]uint64) Snapshot {
	return Snapshot{
		Step:        int64(w[0]),
		DT:          math.Float64frombits(w[1]),
		CFL:         math.Float64frombits(w[2]),
		DivB:        math.Float64frombits(w[3]),
		Mass:        math.Float64frombits(w[4]),
		KineticE:    math.Float64frombits(w[5]),
		MagneticE:   math.Float64frombits(w[6]),
		InternalE:   math.Float64frombits(w[7]),
		MaxV:        math.Float64frombits(w[8]),
		MaxB:        math.Float64frombits(w[9]),
		Spans:       int64(w[10]),
		SpanDropped: int64(w[11]),
	}
}

// RankPub is one rank's snapshot slot: a seqlock over a double buffer.
// The sequence word counts completed publishes; publish n writes slot
// n&1, so a reader holding sequence n copies a slot the writer will
// not touch until publish n+1 — and if that overlaps, the re-check
// catches it. One writer (the rank goroutine), any number of readers.
type RankPub struct {
	seq   atomic.Uint64
	slots [2][snapWords]atomic.Uint64
}

// Publish stores the snapshot: a fixed number of atomic word stores,
// no allocation, no locks, no clock (pinned by TestPublishZeroAlloc and
// the det-purity analyzer). Nil-safe: a nil receiver is a no-op.
func (p *RankPub) Publish(s Snapshot) {
	if p == nil {
		return
	}
	var w [snapWords]uint64
	s.encode(&w)
	n := p.seq.Load() // single writer: no one else advances seq
	slot := &p.slots[(n+1)&1]
	for i := range w {
		slot[i].Store(w[i])
	}
	p.seq.Store(n + 1)
}

// Read returns the latest published snapshot, or ok=false if nothing
// was published yet. Lock-free: a read racing a publish retries until
// it copies a slot whose sequence held still.
func (p *RankPub) Read() (Snapshot, bool) {
	if p == nil {
		return Snapshot{}, false
	}
	for {
		n := p.seq.Load()
		if n == 0 {
			return Snapshot{}, false
		}
		slot := &p.slots[n&1]
		var w [snapWords]uint64
		for i := range w {
			w[i] = slot[i].Load()
		}
		if p.seq.Load() == n {
			return decodeSnap(&w), true
		}
	}
}
