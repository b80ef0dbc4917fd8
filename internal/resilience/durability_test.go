package resilience

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/snapshot"
)

// TestCheckpointDurabilitySequence asserts the write-rename-sync order
// of the atomic checkpoint commit: the payload is fsynced before the
// rename, and the directory is fsynced after it — the sequence that
// keeps a host crash from leaving a zero-length or unlinked "newest"
// checkpoint.
func TestCheckpointDurabilitySequence(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	sv, err := mhd.NewSolver(cfg.Core.WithDefaults().Spec(), *cfg.Core.WithDefaults().Params, *cfg.Core.WithDefaults().IC)
	if err != nil {
		t.Fatal(err)
	}

	var ops []string
	var paths []string
	ckptSyncHook = func(op, path string) {
		ops = append(ops, op)
		paths = append(paths, path)
	}
	defer func() { ckptSyncHook = nil }()

	final, err := writeCheckpointFile(cfg.Dir, snapshot.InteriorOf(sv))
	if err != nil {
		t.Fatal(err)
	}

	want := []string{"sync-file", "rename", "sync-dir"}
	if len(ops) != len(want) {
		t.Fatalf("durability sequence %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("durability sequence %v, want %v", ops, want)
		}
	}
	// The file fsync targets the temp file (pre-rename), the directory
	// fsync the checkpoint's directory.
	if !strings.Contains(paths[0], ".tmp-") {
		t.Errorf("sync-file hit %q, want the temp file", paths[0])
	}
	if paths[1] != final {
		t.Errorf("rename produced %q, want %q", paths[1], final)
	}
	if paths[2] != cfg.Dir {
		t.Errorf("sync-dir hit %q, want %q", paths[2], cfg.Dir)
	}
	if _, err := os.Stat(final); err != nil {
		t.Fatalf("committed checkpoint missing: %v", err)
	}
}

// TestPostmortemTimeline: a campaign that exhausts its retries writes
// the fault/heartbeat event timeline into postmortem.txt, so the
// failure is diagnosable from one file.
func TestPostmortemTimeline(t *testing.T) {
	cfg := testConfig(t, 4, 4)
	cfg.MaxRetries = 1
	cfg.Deadline = 200 * time.Millisecond
	// Drop the overset message on every attempt: first run and retry
	// both die, exhausting the budget.
	plan := mpi.NewFaultPlan()
	for epoch := 0; epoch < 64; epoch++ {
		plan.Add(mpi.Fault{Src: 0, Dst: 1, Tag: 100, Epoch: epoch, Action: mpi.Drop})
	}
	cfg.Faults = plan

	_, err := RunCampaign(cfg)
	if err == nil {
		t.Fatal("campaign with a permanently dropped message should fail")
	}
	pm, rerr := os.ReadFile(filepath.Join(cfg.Dir, postmortemName))
	if rerr != nil {
		t.Fatalf("post-mortem not written: %v", rerr)
	}
	text := string(pm)
	for _, frag := range []string{"event timeline", "fault.drop", "tag=100", "segment start=0"} {
		if !strings.Contains(text, frag) {
			t.Errorf("post-mortem missing %q:\n%s", frag, text)
		}
	}
}

// TestCampaignReliabilityAbsorbsDrops: with the reliable transport on,
// a scripted drop costs a retransmission instead of a rollback — the
// campaign commits with zero retries.
func TestCampaignReliabilityAbsorbsDrops(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	cfg.Deadline = 10 * time.Second
	cfg.Reliability = &mpi.Reliability{AckTimeout: 2 * time.Millisecond}
	cfg.Faults = mpi.NewFaultPlan().
		Add(mpi.Fault{Src: 0, Dst: 1, Tag: 100, Epoch: 0, Action: mpi.Drop}).
		Add(mpi.Fault{Src: 1, Dst: 0, Tag: 100, Epoch: 1, Action: mpi.Duplicate})

	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if res.Retries != 0 {
		t.Fatalf("reliable campaign rolled back %d times; the transport should have absorbed the faults", res.Retries)
	}
	var sawRetransmit bool
	for _, e := range res.Events {
		if e.Kind == "xport.retransmit" {
			sawRetransmit = true
		}
	}
	if !sawRetransmit {
		t.Fatalf("no retransmission recorded; the drop never bit. timeline: %v", res.Events)
	}
}

// TestCampaignHeartbeatRecoversSilentKill: a silently killed rank is
// confirmed by heartbeat as a typed *mpi.RankFailedError well inside
// the deadline, the segment rolls back, and the campaign completes.
func TestCampaignHeartbeatRecoversSilentKill(t *testing.T) {
	const deadline = 20 * time.Second
	cfg := testConfig(t, 4, 2)
	cfg.Deadline = deadline
	// 10ms beat -> 200ms confirm: still two orders of magnitude inside
	// the deadline, with enough slack that race-detector scheduling
	// starvation of a healthy beater cannot fake a failure (a false
	// positive would add a retry and break the Retries == 1 pin).
	cfg.Heartbeat = &mpi.Heartbeat{Interval: 10 * time.Millisecond}
	cfg.Faults = mpi.NewFaultPlan().KillSilent(1, 3)

	start := time.Now()
	res, err := RunCampaign(cfg)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (one heartbeat-detected rollback)", res.Retries)
	}
	if res.FinalStep != 4 {
		t.Fatalf("FinalStep = %d, want 4", res.FinalStep)
	}
	// Detection must not have waited out the watchdog: the whole
	// campaign, including the failed attempt, finishes far inside one
	// deadline.
	if elapsed > deadline/4 {
		t.Fatalf("campaign took %v; heartbeat detection should beat the %v deadline", elapsed, deadline)
	}
	var confirm, failedNote bool
	for _, e := range res.Events {
		if e.Kind == "hb.confirm" {
			confirm = true
		}
		if e.Kind == "note" && strings.Contains(e.Detail, "heartbeat silent") {
			failedNote = true
		}
	}
	if !confirm || !failedNote {
		t.Fatalf("timeline missing hb.confirm/heartbeat failure note: %v", res.Events)
	}
}
