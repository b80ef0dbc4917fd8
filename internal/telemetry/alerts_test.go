package telemetry

import (
	"strings"
	"testing"

	"repro/internal/mpi"
)

// fireOnce runs one evaluation and returns the rules that fired fresh.
func fireOnce(e *engine, snaps map[int]Snapshot, events *mpi.EventLog) []string {
	var rules []string
	for _, a := range e.evaluate(snaps, events) {
		rules = append(rules, a.Rule)
	}
	return rules
}

func wantRule(t *testing.T, fired []string, rule string) {
	t.Helper()
	for _, r := range fired {
		if r == rule {
			return
		}
	}
	t.Fatalf("rule %s did not fire; fired = %v", rule, fired)
}

// TestRuleRankDead: any confirmed rank death (scripted or heartbeat)
// raises the alarm.
func TestRuleRankDead(t *testing.T) {
	for _, kind := range []string{"fault.kill", "fault.kill-silent", "hb.confirm"} {
		e := newEngine(0)
		events := mpi.NewEventLog()
		events.Notef(kind, "rank=1 step=3")
		wantRule(t, fireOnce(e, nil, events), RuleRankDead)
	}
}

// TestRuleRetransmitStorm fires on a burst within one evaluation
// window, not on a cumulative trickle.
func TestRuleRetransmitStorm(t *testing.T) {
	e := newEngine(3)
	events := mpi.NewEventLog()
	events.Notef("xport.retransmit", "try=1")
	events.Notef("xport.retransmit", "try=2")
	if fired := fireOnce(e, nil, events); len(fired) != 0 {
		t.Fatalf("2 < 3 retransmits fired %v", fired)
	}
	for i := 0; i < 3; i++ {
		events.Notef("xport.retransmit", "try=%d", i)
	}
	wantRule(t, fireOnce(e, nil, events), RuleRetransmitStorm)
}

// TestRuleHBFlap: repeated suspect→clear cycles are flapping.
func TestRuleHBFlap(t *testing.T) {
	e := newEngine(0)
	events := mpi.NewEventLog()
	events.Notef("hb.clear", "rank=1")
	if fired := fireOnce(e, nil, events); len(fired) != 0 {
		t.Fatalf("one clear fired %v", fired)
	}
	events.Notef("hb.clear", "rank=1")
	wantRule(t, fireOnce(e, nil, events), RuleHBFlap)
}

// TestRuleEventDrops: an overflowing ring is lost forensic data.
func TestRuleEventDrops(t *testing.T) {
	e := newEngine(0)
	events := mpi.NewEventLogSize(2)
	for i := 0; i < 5; i++ {
		events.Notef("note", "n=%d", i)
	}
	wantRule(t, fireOnce(e, nil, events), RuleEventDrops)
}

// TestRuleSpanDrops: a full obs span ring is lost trace data.
func TestRuleSpanDrops(t *testing.T) {
	e := newEngine(0)
	snaps := map[int]Snapshot{0: {Step: 5, SpanDropped: 12}}
	wantRule(t, fireOnce(e, snaps, nil), RuleSpanDrops)
}

// TestRuleDivBGrowth: two orders of magnitude on |div B| means the
// solenoidal cleaner is losing.
func TestRuleDivBGrowth(t *testing.T) {
	e := newEngine(0)
	fireOnce(e, map[int]Snapshot{0: {Step: 1, DivB: 1e-9}}, nil)
	if fired := fireOnce(e, map[int]Snapshot{0: {Step: 2, DivB: 5e-9}}, nil); len(fired) != 0 {
		t.Fatalf("5x growth fired %v", fired)
	}
	wantRule(t, fireOnce(e, map[int]Snapshot{0: {Step: 3, DivB: 2e-7}}, nil), RuleDivBGrowth)
}

// TestRuleEnergyDrift: the budget is measured against the first
// observed total.
func TestRuleEnergyDrift(t *testing.T) {
	e := newEngine(0)
	base := map[int]Snapshot{0: {Step: 1, KineticE: 1, MagneticE: 1, InternalE: 8}}
	if fired := fireOnce(e, base, nil); len(fired) != 0 {
		t.Fatalf("baseline fired %v", fired)
	}
	drifted := map[int]Snapshot{0: {Step: 2, KineticE: 10, MagneticE: 10, InternalE: 8}}
	wantRule(t, fireOnce(e, drifted, nil), RuleEnergyDrift)
}

// TestAlertLatching: a rule fires one alert; re-triggers bump its
// count instead of flooding.
func TestAlertLatching(t *testing.T) {
	e := newEngine(0)
	snaps := map[int]Snapshot{0: {Step: 1, SpanDropped: 3}}
	if fired := fireOnce(e, snaps, nil); len(fired) != 1 {
		t.Fatalf("first round fired %v", fired)
	}
	for i := 0; i < 5; i++ {
		if fired := fireOnce(e, snaps, nil); len(fired) != 0 {
			t.Fatalf("latched rule re-fired %v", fired)
		}
	}
	a := e.fired[RuleSpanDrops]
	if a == nil || a.Count != 6 {
		t.Fatalf("latched alert = %+v, want count 6", a)
	}
	if !strings.Contains(a.String(), "x6") {
		t.Fatalf("String() lost the re-trigger count: %q", a.String())
	}
}

// TestPlaneEvaluateEmitsAlertEvents: a fired alert lands in the shared
// EventLog as a typed telemetry.alert event (the SSE/post-mortem path).
func TestPlaneEvaluateEmitsAlertEvents(t *testing.T) {
	p := New(Config{})
	events := mpi.NewEventLog()
	p.Attach(Campaign{Run: "test", Events: events})
	p.Rank(0).Publish(Snapshot{Step: 1, SpanDropped: 2})
	p.Evaluate()
	var got *mpi.Event
	for _, ev := range events.Events() {
		if ev.Kind == "telemetry.alert" {
			e := ev
			got = &e
		}
	}
	if got == nil {
		t.Fatalf("no telemetry.alert event in %v", events.Events())
	}
	if !strings.Contains(got.Detail, "rule="+RuleSpanDrops) {
		t.Fatalf("alert event detail %q lacks the rule", got.Detail)
	}
	if n := len(p.Alerts()); n != 1 {
		t.Fatalf("plane latched %d alerts, want 1", n)
	}
	// The engine consumes its own alert events without re-triggering
	// on them (no feedback loop).
	p.Evaluate()
	if n := len(p.Alerts()); n != 1 {
		t.Fatalf("feedback loop: %d alerts after re-evaluate", n)
	}
}
