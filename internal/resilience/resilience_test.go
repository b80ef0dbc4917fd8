package resilience

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/snapshot"
)

// testConfig is a small 2-rank campaign that runs in well under a
// second per segment.
func testConfig(t *testing.T, steps, every int) Config {
	t.Helper()
	return Config{
		Core:            core.Config{Nr: 9, Nt: 13},
		NProcs:          2,
		Steps:           steps,
		CheckpointEvery: every,
		Dir:             t.TempDir(),
	}
}

func TestCampaignCleanRun(t *testing.T) {
	cfg := testConfig(t, 6, 2)
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed || res.StartStep != 0 {
		t.Errorf("fresh campaign reported Resumed=%v StartStep=%d", res.Resumed, res.StartStep)
	}
	if res.FinalStep != 6 || len(res.Diags) != 3 || len(res.DTs) != 3 || res.Retries != 0 {
		t.Errorf("clean run: FinalStep=%d Diags=%d DTs=%d Retries=%d",
			res.FinalStep, len(res.Diags), len(res.DTs), res.Retries)
	}
	kept, err := filepath.Glob(filepath.Join(cfg.Dir, "ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	// Keep defaults to 2: the newest two of {0, 2, 4, 6} survive.
	if len(kept) != 2 || kept[0] != filepath.Join(cfg.Dir, ckptName(4)) || kept[1] != filepath.Join(cfg.Dir, ckptName(6)) {
		t.Errorf("kept checkpoints %v, want steps 4 and 6", kept)
	}
}

// TestRollbackBackoffBitIdentical is acceptance criterion (b): an
// injected mid-campaign blow-up triggers rollback to the last
// checkpoint and a dt backoff retry, the campaign completes, and its
// diagnostics are bit-identical to an unfaulted campaign running the
// same effective dt schedule.
func TestRollbackBackoffBitIdentical(t *testing.T) {
	faulted := testConfig(t, 6, 2)
	faulted.Perturb = func(seg, attempt int, in *snapshot.Interior) {
		if seg == 1 && attempt == 0 {
			data := in.Fields[0][0]
			data[len(data)/2] = math.NaN()
		}
	}
	res, err := RunCampaign(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("Retries = %d, want 1 (one blow-up rollback)", res.Retries)
	}
	if len(res.DTs) != 3 {
		t.Fatalf("committed %d segments, want 3", len(res.DTs))
	}
	// The blown-up segment committed at a backed-off dt.
	if !(res.DTs[1] < res.DTs[0]) {
		t.Errorf("segment 1 dt %v not backed off from %v", res.DTs[1], res.DTs[0])
	}

	clean := testConfig(t, 6, 2)
	clean.DTSchedule = res.DTs
	ref, err := RunCampaign(clean)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Retries != 0 {
		t.Fatalf("reference campaign retried %d times", ref.Retries)
	}
	if len(ref.Diags) != len(res.Diags) {
		t.Fatalf("reference committed %d segments, faulted %d", len(ref.Diags), len(res.Diags))
	}
	for i := range res.Diags {
		if res.Diags[i] != ref.Diags[i] {
			t.Errorf("segment %d diagnostics differ:\nfaulted  %+v\nreference %+v", i, res.Diags[i], ref.Diags[i])
		}
	}
}

// TestResumeFromDisk is acceptance criterion (c): a campaign
// interrupted between checkpoints resumes from the newest checkpoint
// on disk and completes, matching an uninterrupted campaign.
func TestResumeFromDisk(t *testing.T) {
	interrupted := testConfig(t, 4, 2)
	first, err := RunCampaign(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	// "Interrupted": re-run the same directory with the full step
	// budget, as a fresh process restart would.
	interrupted.Steps = 8
	resumed, err := RunCampaign(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || resumed.StartStep != 4 {
		t.Fatalf("Resumed=%v StartStep=%d, want resume from step 4", resumed.Resumed, resumed.StartStep)
	}
	if resumed.FinalStep != 8 || len(resumed.Diags) != 2 {
		t.Fatalf("resumed campaign FinalStep=%d Diags=%d", resumed.FinalStep, len(resumed.Diags))
	}

	full := testConfig(t, 8, 2)
	ref, err := RunCampaign(full)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed half must match the uninterrupted campaign's second
	// half bit-for-bit (the trajectory, dts included, is identical).
	wantDTs := append(append([]float64{}, first.DTs...), resumed.DTs...)
	for i, dt := range ref.DTs {
		if wantDTs[i] != dt {
			t.Errorf("segment %d dt: interrupted %v, uninterrupted %v", i, wantDTs[i], dt)
		}
	}
	for i, d := range resumed.Diags {
		if ref.Diags[i+2] != d {
			t.Errorf("segment %d diagnostics differ after resume:\nresumed %+v\nref     %+v", i+2, d, ref.Diags[i+2])
		}
	}
}

// TestResumeFallsBackPastInvalidNewest: resuming with a corrupt newest
// checkpoint falls back to the next-newest valid one.
func TestResumeFallsBackPastInvalidNewest(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	// Truncate the newest checkpoint (step 4) to simulate a crash
	// mid-write that somehow landed under the final name.
	newest := filepath.Join(cfg.Dir, ckptName(4))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Steps = 6
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.StartStep != 2 {
		t.Errorf("Resumed=%v StartStep=%d, want fallback resume from step 2", res.Resumed, res.StartStep)
	}
	if res.FinalStep != 6 {
		t.Errorf("FinalStep = %d, want 6", res.FinalStep)
	}
}

// TestKilledRankRetries: a scripted rank kill mid-campaign fails one
// segment attempt; the retry (the kill is consumed) runs clean at full
// dt, so the campaign's committed trajectory is identical to a
// fault-free run.
func TestKilledRankRetries(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	cfg.Faults = mpi.NewFaultPlan().Kill(1, 3)
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Errorf("Retries = %d, want 1 (the killed segment)", res.Retries)
	}
	ref, err := RunCampaign(testConfig(t, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Diags {
		if res.Diags[i] != ref.Diags[i] {
			t.Errorf("segment %d diagnostics differ from fault-free run", i)
		}
	}
}

// TestDroppedMessageRetries: a dropped overset message trips the
// segment deadline with the blocked envelope named; the retry
// completes the campaign.
func TestDroppedMessageRetries(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	// With one rank per panel the overset exchange is the only world
	// traffic: drop rank 1's first donation to rank 0.
	cfg.Faults = mpi.NewFaultPlan().Add(mpi.Fault{Src: 1, Dst: 0, Tag: 100, Epoch: 0, Action: mpi.Drop})
	cfg.Deadline = 500 * time.Millisecond
	cfg.MaxRetries = 2
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries < 1 {
		t.Errorf("Retries = %d, want at least 1 (the dropped message)", res.Retries)
	}
	if res.FinalStep != 2 {
		t.Errorf("FinalStep = %d, want 2", res.FinalStep)
	}
}

// TestPostmortemOnExhaustedRetries: a segment that blows up on every
// attempt exhausts the retry budget; the campaign aborts gracefully
// with a post-mortem saved next to the checkpoints.
func TestPostmortemOnExhaustedRetries(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	cfg.MaxRetries = 2
	cfg.Perturb = func(seg, attempt int, in *snapshot.Interior) {
		if seg == 1 {
			data := in.Fields[0][0]
			data[len(data)/2] = math.NaN()
		}
	}
	res, err := RunCampaign(cfg)
	if err == nil {
		t.Fatal("campaign completed despite a persistent blow-up")
	}
	for _, want := range []string{"failed after 3 attempts", "blow-up"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q: %v", want, err)
		}
	}
	if res.Retries != 2 {
		t.Errorf("Retries = %d, want 2", res.Retries)
	}
	pm, rerr := os.ReadFile(filepath.Join(cfg.Dir, postmortemName))
	if rerr != nil {
		t.Fatalf("post-mortem not written: %v", rerr)
	}
	for _, want := range []string{"failed segment start step: 2", "attempts: 3", "blow-up", "committed segments: 1",
		"recovery decisions (2):", "segment 1 attempt 1: rollback", "segment 1 attempt 2: rollback"} {
		if !strings.Contains(string(pm), want) {
			t.Errorf("post-mortem missing %q:\n%s", want, pm)
		}
	}
}

// TestCampaignValidatesConfig: a missing step count is rejected up
// front. (A missing directory is not: that campaign commits to memory,
// see memsink_test.go.)
func TestCampaignValidatesConfig(t *testing.T) {
	if _, err := RunCampaign(Config{Dir: t.TempDir()}); err == nil {
		t.Error("campaign without steps did not fail")
	}
}
