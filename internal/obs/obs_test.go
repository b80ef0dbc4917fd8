package obs

import (
	"math"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Recorder
	var rr *RankRec
	// Every entry point must no-op on nil receivers.
	r.CommDelivered(0, 1, 128)
	r.CommWaited(0, 1, 100)
	if r.RankFor(0) != nil {
		t.Fatal("nil Recorder.RankFor must return nil")
	}
	if got := r.Ranks(); got != nil {
		t.Fatalf("nil Recorder.Ranks = %v, want nil", got)
	}
	rr.Open()
	rr.SetStep(3)
	sp := rr.Begin(SpanStep)
	sp.End()
	rr.SetGauge("dt", 1.0)
	rr.Close()
	if rr.Len() != 0 || rr.Dropped() != 0 {
		t.Fatal("nil RankRec must report empty")
	}
	var h *Hist
	h.Observe(5)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil Hist must report empty")
	}
}

func TestSpanRingOrderAndDrop(t *testing.T) {
	r := New(Config{SpanCap: 4})
	rr := r.RankFor(0)
	for i := 0; i < 7; i++ {
		rr.SetStep(i)
		sp := rr.Begin(SpanStep)
		sp.End()
	}
	if rr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rr.Len())
	}
	if rr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", rr.Dropped())
	}
	got := rr.spans()
	for i, s := range got {
		if int(s.step) != 3+i {
			t.Fatalf("span %d has step %d, want %d (oldest-first order)", i, s.step, 3+i)
		}
	}
}

func TestRankForIdempotent(t *testing.T) {
	r := New(Config{})
	a, b := r.RankFor(2), r.RankFor(2)
	if a != b {
		t.Fatal("RankFor must be idempotent")
	}
	r.Driver().Open()
	ranks := r.Ranks()
	if len(ranks) != 2 || ranks[0] != DriverRank || ranks[1] != 2 {
		t.Fatalf("Ranks = %v, want [-1 2]", ranks)
	}
}

func TestSpanNestingDepth(t *testing.T) {
	r := New(Config{})
	rr := r.RankFor(0)
	outer := rr.Begin(SpanStep)
	inner := rr.Begin(SpanRHS)
	innermost := rr.Begin(SpanHaloWait)
	innermost.End()
	inner.End()
	outer.End()
	got := rr.spans()
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3", len(got))
	}
	// Ring holds End order: innermost first.
	wantDepth := []uint8{2, 1, 0}
	wantKind := []SpanKind{SpanHaloWait, SpanRHS, SpanStep}
	for i := range got {
		if got[i].depth != wantDepth[i] || got[i].kind != wantKind[i] {
			t.Fatalf("span %d = kind %v depth %d, want kind %v depth %d",
				i, got[i].kind, got[i].depth, wantKind[i], wantDepth[i])
		}
	}
}

// TestSpanRecordZeroAlloc pins the hot-path budget: recording a span
// (Begin+End) and observing a histogram value must not allocate.
func TestSpanRecordZeroAlloc(t *testing.T) {
	r := New(Config{SpanCap: 64})
	rr := r.RankFor(0)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rr.Begin(SpanRHS)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("span record allocates %.1f/op, want 0", allocs)
	}
	// Warm the (comm,tag) entry and the gauge, then pin the steady state.
	r.CommDelivered(0, 5, 64)
	r.CommWaited(0, 5, 10)
	rr.SetGauge("dt", 1e-3)
	allocs = testing.AllocsPerRun(1000, func() {
		r.CommDelivered(0, 5, 64)
		r.CommWaited(0, 5, 10)
		rr.SetGauge("dt", 1e-3)
	})
	if allocs != 0 {
		t.Fatalf("comm metrics and gauge allocate %.1f/op, want 0", allocs)
	}
}

// minNsPerOp is the fastest of up to samples independent
// testing.Benchmark runs of fn: on a shared host every disturbance only
// ever adds time. It stops at the first run within limit, which cannot
// change whether the minimum is.
func minNsPerOp(samples int, limit float64, fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < samples && best > limit; i++ {
		res := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				fn()
			}
		})
		best = math.Min(best, float64(res.T.Nanoseconds())/float64(res.N))
	}
	return best
}

// TestHotPathCostTripwire bounds the per-event cost a traced run pays
// inside every step. The reference costs are what these paths measure
// on one core of the development host (benchmark/ reports the live
// figure as obs.span_ns); the bound is 10x that plus 100 ns because CI
// machines are shared and slower, and the only regressions this must
// catch are order-of-magnitude ones: a lock, a formatting call or an
// allocation that found its way onto the hot path.
func TestHotPathCostTripwire(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: skipped under -short and -race")
	}
	r := New(Config{})
	rr := r.RankFor(0)
	r.CommDelivered(0, 5, 1024)
	r.CommWaited(0, 5, 1000)
	for _, c := range []struct {
		name  string
		refNs float64
		fn    func()
	}{
		{"span Begin+End", 82, func() { rr.Begin(SpanRHS).End() }},
		{"CommDelivered", 61, func() { r.CommDelivered(0, 5, 1024) }},
		{"CommWaited", 46, func() { r.CommWaited(0, 5, 1000) }},
		{"SetGauge", 12, func() { rr.SetGauge("dt", 1e-3) }},
	} {
		limit := 10*c.refNs + 100
		if ns := minNsPerOp(3, limit, c.fn); ns > limit {
			t.Errorf("%s takes %.0f ns/op, limit %.0f (10 x %.0f + 100)", c.name, ns, limit, c.refNs)
		}
	}
}

func TestHistQuantileAndMean(t *testing.T) {
	var h Hist
	// 90 small values and 10 large ones: p50 must be small, p99 large.
	for i := 0; i < 90; i++ {
		h.Observe(3) // bucket [2,4)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket [512,1024)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %d, want 4 (top edge of [2,4))", got)
	}
	if got := h.Quantile(0.99); got != 1024 {
		t.Fatalf("p99 = %d, want 1024 (top edge of [512,1024))", got)
	}
	wantMean := (90.0*3 + 10*1000) / 100
	if got := h.Mean(); got != wantMean {
		t.Fatalf("Mean = %g, want %g", got, wantMean)
	}
	if h.Quantile(0) != 4 || h.Quantile(1) != 1024 {
		t.Fatalf("quantile edges: q0=%d q1=%d", h.Quantile(0), h.Quantile(1))
	}
}

func TestGauges(t *testing.T) {
	r := New(Config{})
	rr := r.RankFor(0)
	rr.SetGauge("dt", 2.0)
	rr.SetGauge("dt", 1.0)
	rr.SetGauge("dt", 4.0)
	g := rr.gauges["dt"]
	if g.Min != 1 || g.Max != 4 || g.Last != 4 || g.N != 3 {
		t.Fatalf("gauge = %+v", *g)
	}
	if g.Mean() != 7.0/3.0 {
		t.Fatalf("mean = %g", g.Mean())
	}
}

func TestOpenCloseWindowExtends(t *testing.T) {
	r := New(Config{})
	rr := r.RankFor(0)
	rr.Open()
	rr.Close()
	first := rr.winEnd
	// A second segment must extend, not reset, the window.
	rr.Open()
	rr.Close()
	if rr.winEnd < first {
		t.Fatal("Close must keep the latest end")
	}
	if rr.winStart > first {
		t.Fatal("Open must keep the earliest start")
	}
}
