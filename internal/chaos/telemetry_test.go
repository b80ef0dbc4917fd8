package chaos

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// hasAlert reports whether the plane latched an alert for the rule.
func hasAlert(p *telemetry.Plane, rule string) bool {
	for _, a := range p.Alerts() {
		if a.Rule == rule {
			return true
		}
	}
	return false
}

// hasAlertEvent reports whether a matching telemetry.alert event landed
// on the run's timeline (the SSE / post-mortem path).
func hasAlertEvent(p *telemetry.Plane, rule string) bool {
	events := p.Events()
	if events == nil {
		return false
	}
	for _, ev := range events.Events() {
		if ev.Kind == "telemetry.alert" && strings.Contains(ev.Detail, "rule="+rule) {
			return true
		}
	}
	return false
}

// TestChaosDropRaisesRetransmitAlert: a scripted message drop forces
// the reliable transport to retransmit, and the attached telemetry
// plane must flag the storm — injected faults are visible faults.
func TestChaosDropRaisesRetransmitAlert(t *testing.T) {
	plane := telemetry.New(telemetry.Config{
		RetransmitStorm: 1,
		NoProfile:       true,
	})
	r := NewRunner(Config{Telemetry: plane})
	// The original fail-fast wedge from the committed corpus: first
	// overset message dropped, transport recovers by retransmission.
	sc := Scenario{
		Name:   "drop-first-overset",
		Faults: []FaultSpec{{Comm: 0, Src: 0, Dst: 1, Tag: 100, Epoch: 0, Action: "drop"}},
	}
	o := r.Run(sc)
	if o.Verdict != OK {
		t.Fatalf("scenario verdict %s: %s", o.Verdict, o.Detail)
	}
	if !hasAlert(plane, telemetry.RuleRetransmitStorm) {
		t.Fatalf("drop produced no %s alert; alerts = %v",
			telemetry.RuleRetransmitStorm, plane.AlertStrings())
	}
	if !hasAlertEvent(plane, telemetry.RuleRetransmitStorm) {
		t.Fatal("retransmit alert missing from the event timeline")
	}
	// The solver ranks really published through the plane.
	if plane.Progress().LiveStep < 1 {
		t.Fatalf("no rank snapshots reached the plane: %+v", plane.Progress())
	}
}

// TestChaosSilentKillRaisesRankDeadAlert: a silent kill is only
// detectable by the heartbeat detector; its hb.confirm must surface as
// a rank-dead alert while the campaign still converges.
func TestChaosSilentKillRaisesRankDeadAlert(t *testing.T) {
	plane := telemetry.New(telemetry.Config{NoProfile: true})
	r := NewRunner(Config{Telemetry: plane})
	sc := Scenario{
		Name:  "silent-kill-rank1",
		Kills: []KillSpec{{Rank: 1, Step: 2, Silent: true}},
	}
	o := r.Run(sc)
	if o.Verdict != OK {
		t.Fatalf("scenario verdict %s: %s", o.Verdict, o.Detail)
	}
	if !hasAlert(plane, telemetry.RuleRankDead) {
		t.Fatalf("silent kill produced no %s alert; alerts = %v",
			telemetry.RuleRankDead, plane.AlertStrings())
	}
	if !hasAlertEvent(plane, telemetry.RuleRankDead) {
		t.Fatal("rank-dead alert missing from the event timeline")
	}
	if got := plane.Progress(); !got.Done {
		t.Fatalf("plane never saw the campaign finish: %+v", got)
	}
}
