package telemetry

// The anomaly engine: streaming rules evaluated over the published
// snapshots and the run's event timeline. Alerts latch — a rule fires
// one alert, and further triggers only bump its count — so a sick run
// produces a short diagnosis, not an alert flood. Fired alerts are
// appended to the shared mpi.EventLog as telemetry.alert events by the
// plane, which routes them to the SSE stream, the post-mortem and the
// run report for free.

import (
	"fmt"

	"repro/internal/mpi"
)

// Rule names, stable identifiers for /metrics labels and assertions.
const (
	RuleRankDead        = "rank-dead"
	RuleRetransmitStorm = "retransmit-storm"
	RuleHBFlap          = "hb-flap"
	RuleEventDrops      = "event-drops"
	RuleSpanDrops       = "span-drops"
	RuleDivBGrowth      = "divb-growth"
	RuleEnergyDrift     = "energy-drift"
)

// Rule thresholds. The retransmit-storm threshold is Config's; the
// rest are fixed.
const (
	// defaultRetransmitStorm: one evaluation consuming this many new
	// xport.retransmit events is a storm.
	defaultRetransmitStorm = 10
	// hbFlap suspect→clear heartbeat cycles are flapping: one clear is a
	// hiccup, repeats are not.
	hbFlap = 2
	// divbGrowth is the factor by which a rank's |div B| may grow over
	// its retained gauge history; the solenoidal cleaner holds divB flat
	// in a healthy run, so two orders of magnitude is a real departure.
	divbGrowth = 100
	// energyDriftFrac is how far the total energy may drift from its
	// first observed value.
	energyDriftFrac = 0.5
)

// Alert is one latched rule firing.
type Alert struct {
	// Rule is the rule name (Rule* constants).
	Rule string
	// Detail is the human-readable trigger account.
	Detail string
	// Step is the freshest published step when the rule first fired.
	Step int64
	// Count is how many evaluations have re-triggered the rule since.
	Count int64
}

func (a Alert) String() string {
	if a.Count > 1 {
		return fmt.Sprintf("%-16s step=%-6d %s (x%d)", a.Rule, a.Step, a.Detail, a.Count)
	}
	return fmt.Sprintf("%-16s step=%-6d %s", a.Rule, a.Step, a.Detail)
}

// divbTrack is one rank's retained |div B| extrema, fed only when the
// published value changes (Diagnose cadence, not step cadence).
type divbTrack struct {
	last, min, max float64
	seen           bool
}

// engine is the rule evaluator. All state is guarded by the owning
// plane's mutex.
type engine struct {
	storm int64 // retransmit-storm threshold

	cursor int64            // event-log consumption cursor (total index)
	kinds  map[string]int64 // cumulative event count per kind

	divb   map[int]*divbTrack
	e0     float64 // first observed total energy
	e0set  bool
	latest Snapshot // freshest snapshot seen (by step)

	fired map[string]*Alert // latch: rule -> alert (pointers into order)
	order []*Alert
}

func newEngine(storm int) *engine {
	if storm <= 0 {
		storm = defaultRetransmitStorm
	}
	return &engine{
		storm: int64(storm),
		kinds: map[string]int64{},
		divb:  map[int]*divbTrack{},
		fired: map[string]*Alert{},
	}
}

// kindCounts copies the cumulative per-kind event counts (for /metrics).
func (e *engine) kindCounts() map[string]int64 {
	out := make(map[string]int64, len(e.kinds))
	for k, v := range e.kinds {
		out[k] = v
	}
	return out
}

// evaluate consumes new events, folds in the snapshots, and returns
// the alerts that fired for the first time this round.
func (e *engine) evaluate(snaps map[int]Snapshot, events *mpi.EventLog) []Alert {
	newRetransmits := e.consume(events)

	var spanDrops int64
	for _, s := range snaps {
		if s.Step >= e.latest.Step {
			e.latest = s
		}
		spanDrops += s.SpanDropped
	}
	e.trackDivB(snaps)
	step := e.latest.Step

	var fired []Alert
	trigger := func(rule, detail string) {
		if a := e.fired[rule]; a != nil {
			a.Count++
			return
		}
		a := &Alert{Rule: rule, Detail: detail, Step: step, Count: 1}
		e.fired[rule] = a
		e.order = append(e.order, a)
		fired = append(fired, *a)
	}

	if n := e.kinds["hb.confirm"] + e.kinds["fault.kill"] + e.kinds["fault.kill-silent"]; n > 0 {
		trigger(RuleRankDead, fmt.Sprintf("%d rank death(s) confirmed (heartbeat or scripted kill)", n))
	}
	if newRetransmits >= e.storm {
		trigger(RuleRetransmitStorm, fmt.Sprintf("%d retransmission(s) in one evaluation window (threshold %d)",
			newRetransmits, e.storm))
	}
	if e.kinds["hb.clear"] >= hbFlap {
		trigger(RuleHBFlap, fmt.Sprintf("%d heartbeat suspect→clear cycle(s) (threshold %d) — a rank keeps going quiet",
			e.kinds["hb.clear"], hbFlap))
	}
	if d := events.Dropped(); d > 0 {
		trigger(RuleEventDrops, fmt.Sprintf("%d event(s) overwritten in the bounded EventLog ring", d))
	}
	if spanDrops > 0 {
		trigger(RuleSpanDrops, fmt.Sprintf("%d span record(s) dropped from full obs rings — raise obs.Config.SpanCap", spanDrops))
	}
	for rank, t := range e.divb {
		if t.min > 0 && t.max >= divbGrowth*t.min {
			trigger(RuleDivBGrowth, fmt.Sprintf("rank %d |div B| grew %.3e -> %.3e (>= %.0fx) — solenoidal constraint degrading",
				rank, t.min, t.max, float64(divbGrowth)))
			break
		}
	}
	total := e.latest.KineticE + e.latest.MagneticE + e.latest.InternalE
	//yyvet:ignore float-eq the exact zero of an unpublished snapshot means no baseline yet
	if !e.e0set && total != 0 {
		e.e0, e.e0set = total, true
	}
	if e.e0set {
		drift := (total - e.e0) / e.e0
		if drift < 0 {
			drift = -drift
		}
		if drift > energyDriftFrac {
			trigger(RuleEnergyDrift, fmt.Sprintf("total energy drifted %.1f%% from its initial %.6g (threshold %.0f%%)",
				100*drift, e.e0, 100*energyDriftFrac))
		}
	}
	return fired
}

// consume folds the event log's new entries into the per-kind counters
// and returns the number of new retransmit events this round.
func (e *engine) consume(events *mpi.EventLog) int64 {
	if events == nil {
		return 0
	}
	evs, total := events.Tail(e.cursor)
	e.cursor = total
	var retransmits int64
	for _, ev := range evs {
		e.kinds[ev.Kind]++
		if ev.Kind == "xport.retransmit" {
			retransmits++
		}
	}
	return retransmits
}

// trackDivB updates each rank's |div B| extrema, sampling only value
// changes so the window reflects Diagnose updates, not step repeats.
func (e *engine) trackDivB(snaps map[int]Snapshot) {
	for rank, s := range snaps {
		//yyvet:ignore float-eq the exact zero of a pre-Diagnose snapshot means no gauge yet
		if s.DivB == 0 {
			continue
		}
		t := e.divb[rank]
		if t == nil {
			t = &divbTrack{}
			e.divb[rank] = t
		}
		//yyvet:ignore float-eq gauge republished unchanged between Diagnose calls; sampling keys on exact repeats
		if t.seen && s.DivB == t.last {
			continue
		}
		if !t.seen || s.DivB < t.min {
			t.min = s.DivB
		}
		if !t.seen || s.DivB > t.max {
			t.max = s.DivB
		}
		t.last, t.seen = s.DivB, true
	}
}
