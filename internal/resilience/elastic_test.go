package resilience

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/snapshot"
)

// finalSHA hashes a campaign's final gathered state through its
// checkpoint bytes — the byte-identity gate every elastic scenario is
// held to.
func finalSHA(t *testing.T, res *Result) [32]byte {
	t.Helper()
	if res.Final == nil {
		t.Fatal("campaign has no final state")
	}
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestCampaignReshardResumption is the reshard-on-read gate: a campaign
// checkpointed by world shape A resumes at world shape B — bigger,
// smaller, or serial — and finishes byte-identical to the campaign that
// never stopped. 1↔N exercises the serial segment path on either side.
func TestCampaignReshardResumption(t *testing.T) {
	golden := testConfig(t, 4, 2)
	gres, err := RunCampaign(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := finalSHA(t, gres)

	for _, tc := range []struct {
		name          string
		first, second int
	}{
		{"2to4", 2, 4},
		{"8to2", 8, 2},
		{"1to4", 1, 4},
		{"4to1", 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, 2, 2)
			cfg.NProcs = tc.first
			if _, err := RunCampaign(cfg); err != nil {
				t.Fatal(err)
			}
			// "Interrupted": rerun the same directory with the full step
			// budget, but at a different world size.
			cfg.Steps = 4
			cfg.NProcs = tc.second
			res, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed || res.StartStep != 2 {
				t.Fatalf("Resumed=%v StartStep=%d, want resume from step 2", res.Resumed, res.StartStep)
			}
			if got := finalSHA(t, res); got != want {
				t.Errorf("campaign resumed at world %d from a world-%d checkpoint is not byte-identical to the golden",
					tc.second, tc.first)
			}
		})
	}
}

// TestCampaignRankReplaceSilent is the surgical-replacement gate: a
// rank goes silent mid-segment, the heartbeat confirms it dead, and the
// campaign replaces just that rank from the segment's checkpoint —
// survivors never unwind, no attempt is retried, the recovery happens
// well inside the watchdog deadline, and the final state is
// byte-identical to a fault-free campaign.
func TestCampaignRankReplaceSilent(t *testing.T) {
	golden := testConfig(t, 4, 2)
	golden.NProcs = 4
	gres, err := RunCampaign(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := finalSHA(t, gres)

	cfg := testConfig(t, 4, 2)
	cfg.NProcs = 4
	cfg.Faults = mpi.NewFaultPlan().KillSilent(2, 3)
	cfg.Heartbeat = &mpi.Heartbeat{Interval: 7500 * time.Microsecond} // 150ms confirm window
	cfg.Deadline = 30 * time.Second
	cfg.Replace = &mpi.Elastic{}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Errorf("Retries = %d, want 0 — a replacement must not roll the survivors back", res.Retries)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries %+v, want exactly one rank replacement", res.Recoveries)
	}
	d := res.Recoveries[0]
	if d.Mode != RecoverReplace || d.Rank != 2 || d.Epoch != 1 || d.Segment != 1 || d.Attempt != 0 {
		t.Errorf("recovery decision %+v, want rank-replace of rank 2 at epoch 1 in segment 1 attempt 0", d)
	}
	if got := finalSHA(t, res); got != want {
		t.Error("campaign with a replaced rank is not byte-identical to the fault-free golden")
	}
	// The event timeline must show detection before replacement, and the
	// gap between them — the actual recovery time — must sit far inside
	// the watchdog deadline that whole-segment retries would have paid.
	confirmAt, replaceAt := time.Duration(-1), time.Duration(-1)
	for _, e := range res.Events {
		switch e.Kind {
		case "hb.confirm":
			if confirmAt < 0 {
				confirmAt = e.At
			}
		case "recover.replace":
			if replaceAt < 0 {
				replaceAt = e.At
			}
			if !strings.Contains(e.Detail, "rank=2") {
				t.Errorf("recover.replace detail %q does not name rank 2", e.Detail)
			}
		}
	}
	if confirmAt < 0 || replaceAt < 0 {
		t.Fatalf("timeline missing hb.confirm (%v) or recover.replace (%v):\n%v", confirmAt, replaceAt, res.Events)
	}
	if replaceAt < confirmAt {
		t.Errorf("recover.replace at %v precedes hb.confirm at %v", replaceAt, confirmAt)
	}
	if recovery := replaceAt - confirmAt; recovery > cfg.Deadline/10 {
		t.Errorf("recovery took %v, not well under the %v deadline", recovery, cfg.Deadline)
	}
}

// TestCampaignReplacementBudgetPerWorld pins what
// Elastic.MaxReplacements budgets: fences per world, hence per call
// while no failure relaunches the world — not per segment. With a
// budget of 1 and two kills in consecutive segments of one live world,
// the first kill is repaired in place and the second, over budget,
// ends the world and costs a rollback; the relaunched world finishes
// byte-identical to a fault-free campaign.
func TestCampaignReplacementBudgetPerWorld(t *testing.T) {
	golden := testConfig(t, 6, 2)
	golden.NProcs = 4
	gres, err := RunCampaign(golden)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t, 6, 2)
	cfg.NProcs = 4
	cfg.Faults = mpi.NewFaultPlan().Kill(1, 3).Kill(2, 5)
	cfg.Deadline = 30 * time.Second
	cfg.Replace = &mpi.Elastic{MaxReplacements: 1}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1 (the over-budget kill)", res.Retries)
	}
	if len(res.Recoveries) != 2 {
		t.Fatalf("recoveries %+v, want a replacement then a rollback", res.Recoveries)
	}
	if d := res.Recoveries[0]; d.Mode != RecoverReplace || d.Rank != 1 || d.Segment != 1 || d.Attempt != 0 {
		t.Errorf("first recovery %+v, want rank-replace of rank 1 in segment 1 attempt 0", d)
	}
	if d := res.Recoveries[1]; d.Mode != RecoverRollback || d.Segment != 2 || d.Attempt != 1 {
		t.Errorf("second recovery %+v, want rollback in segment 2 attempt 1", d)
	}
	if finalSHA(t, res) != finalSHA(t, gres) {
		t.Error("campaign is not byte-identical to the fault-free golden")
	}
}

// TestCampaignReplaceCorruptFallsBack: a replacement whose checkpoint
// reload fails (the segment's checkpoint went corrupt under it) must
// not strand the campaign — the attempt aborts and the rollback ladder
// rewinds to the older surviving checkpoint, replays, and still ends
// byte-identical to the golden.
func TestCampaignReplaceCorruptFallsBack(t *testing.T) {
	golden := testConfig(t, 4, 2)
	golden.NProcs = 4
	gres, err := RunCampaign(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := finalSHA(t, gres)

	cfg := testConfig(t, 4, 2)
	cfg.NProcs = 4
	cfg.Faults = mpi.NewFaultPlan().Kill(2, 3)
	cfg.Deadline = 30 * time.Second
	cfg.Replace = &mpi.Elastic{}
	corrupted := false
	cfg.Perturb = func(seg, attempt int, _ *snapshot.Interior) {
		// Rot the segment's own checkpoint on disk just before the
		// faulted segment runs: the replacement fence will try to
		// restore it and fail its checksum.
		if seg == 1 && !corrupted {
			corrupted = true
			path := filepath.Join(cfg.Dir, ckptName(2))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
				return
			}
			raw[len(raw)/2] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Error(err)
			}
		}
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The decision trail tells the whole story: replacement was chosen
	// first, its restore failed, and the campaign fell back to a rewind.
	var sawReplace, sawRewind bool
	for _, d := range res.Recoveries {
		switch d.Mode {
		case RecoverReplace:
			if sawRewind {
				t.Errorf("replacement decision after the rewind: %+v", res.Recoveries)
			}
			sawReplace = true
		case RecoverRewind:
			sawRewind = true
			if !strings.Contains(d.Cause, "rewinding to step 0") {
				t.Errorf("rewind cause %q does not name the rewind target", d.Cause)
			}
		}
	}
	if !sawReplace || !sawRewind {
		t.Fatalf("recoveries %+v, want a rank-replace followed by a rollback-rewind", res.Recoveries)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1 (the aborted replacement attempt)", res.Retries)
	}
	if len(res.Diags) != 2 || res.FinalStep != 4 {
		t.Errorf("Diags=%d FinalStep=%d, want the rewound history truncated to 2 committed segments ending at 4",
			len(res.Diags), res.FinalStep)
	}
	if got := finalSHA(t, res); got != want {
		t.Error("campaign that rewound past a corrupt replacement checkpoint is not byte-identical to the golden")
	}
}

// TestCampaignRejectsMismatchedCheckpointDir: resuming a directory
// whose checkpoints hold a different resolution is a hard, clearly
// worded error — not a silent skip onto an older file.
func TestCampaignRejectsMismatchedCheckpointDir(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Core.Nr, cfg.Core.Nt = 11, 17
	cfg.Steps = 4
	_, err := RunCampaign(cfg)
	if err == nil || !strings.Contains(err.Error(), "wrong directory or reconfigured resolution") {
		t.Fatalf("want a grid-mismatch rejection, got: %v", err)
	}
}
