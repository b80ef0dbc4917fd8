package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// hbCfg is a fast heartbeat config for tests: detection within ~150ms
// (confirmBeats intervals), a confirm window wide enough that
// race-detector scheduling starvation of a healthy beater cannot fake a
// death.
func hbCfg() *Heartbeat {
	return &Heartbeat{Interval: 7500 * time.Microsecond}
}

// TestHeartbeatDetectsSilentKill: a silently killed rank is confirmed
// dead by heartbeat as a typed *RankFailedError naming rank and last
// completed step, well before the watchdog deadline.
func TestHeartbeatDetectsSilentKill(t *testing.T) {
	const deadline = 10 * time.Second
	plan := NewFaultPlan().KillSilent(1, 2)
	events := NewEventLog()
	start := time.Now()
	err := RunWith(2, RunConfig{
		Deadline:  deadline,
		Faults:    plan,
		Heartbeat: hbCfg(),
		Events:    events,
	}, func(c *Comm) {
		for step := 0; step < 50; step++ {
			c.Tick(step)
			vals := []float64{1}
			c.Allreduce(vals, OpSum)
		}
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("silent kill went undetected")
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("want *RankFailedError, got %T: %v", err, err)
	}
	if rf.Rank != 1 || !rf.Silent {
		t.Fatalf("want silent failure of rank 1, got %+v", rf)
	}
	if rf.Step != 2 {
		t.Fatalf("want last completed step 2, got %d", rf.Step)
	}
	// Detection latency must be a small multiple of the heartbeat
	// interval, far below the watchdog deadline the run would otherwise
	// have burned.
	if elapsed > deadline/10 {
		t.Fatalf("detection took %v, not well before the %v deadline", elapsed, deadline)
	}
	var sawConfirm bool
	for _, e := range events.Events() {
		if e.Kind == "hb.confirm" {
			sawConfirm = true
		}
	}
	if !sawConfirm {
		t.Fatalf("timeline missing hb.confirm:\n%s", events)
	}
}

// TestHeartbeatSilentKillWithoutHeartbeat: without a heartbeat the same
// silent death is only caught by the watchdog deadline — the backstop
// the heartbeat exists to beat.
func TestHeartbeatSilentKillWithoutHeartbeat(t *testing.T) {
	plan := NewFaultPlan().KillSilent(1, 2)
	err := RunWith(2, RunConfig{Deadline: 150 * time.Millisecond, Faults: plan}, func(c *Comm) {
		for step := 0; step < 50; step++ {
			c.Tick(step)
			vals := []float64{1}
			c.Allreduce(vals, OpSum)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want watchdog deadline abort, got %v", err)
	}
}

// TestHeartbeatCleanRun: a healthy run under heartbeat finishes without
// false positives, even with compute phases longer than the confirm
// window (confirmBeats intervals, 80ms here) — the beater is
// independent of rank progress.
func TestHeartbeatCleanRun(t *testing.T) {
	events := NewEventLog()
	err := RunWith(3, RunConfig{
		Deadline:  5 * time.Second,
		Heartbeat: &Heartbeat{Interval: 4 * time.Millisecond},
		Events:    events,
	}, func(c *Comm) {
		for step := 0; step < 3; step++ {
			c.Tick(step)
			time.Sleep(120 * time.Millisecond) // "compute" >> the confirm window
			vals := []float64{1}
			c.Allreduce(vals, OpSum)
		}
	})
	if err != nil {
		t.Fatalf("healthy run flagged: %v\n%s", err, events)
	}
	for _, e := range events.Events() {
		if e.Kind == "hb.confirm" {
			t.Fatalf("false heartbeat confirmation:\n%s", events)
		}
	}
}

// TestNoisyKillIsTyped: a scripted (noisy) Kill surfaces as the same
// typed *RankFailedError, keeping the historical message text.
func TestNoisyKillIsTyped(t *testing.T) {
	plan := NewFaultPlan().Kill(1, 3)
	err := RunWith(2, RunConfig{Deadline: 2 * time.Second, Faults: plan}, func(c *Comm) {
		for step := 0; step < 10; step++ {
			c.Tick(step)
			vals := []float64{1}
			c.Allreduce(vals, OpSum)
		}
	})
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("want *RankFailedError, got %T: %v", err, err)
	}
	if rf.Rank != 1 || rf.Step != 3 || rf.Silent {
		t.Fatalf("want noisy kill of rank 1 at step 3, got %+v", rf)
	}
	//yyvet:ignore typed-err this test pins the rendered message itself, right after the typed assertion above
	if !strings.Contains(err.Error(), "killed rank 1 at step 3") {
		t.Fatalf("kill message changed: %v", err)
	}
}
