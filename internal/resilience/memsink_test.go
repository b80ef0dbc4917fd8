package resilience

import (
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfcount"
	"repro/internal/snapshot"
)

// sinkless is testConfig without a directory: the campaign commits to
// memory only.
func sinkless(steps, every int) Config {
	return Config{Core: core.Config{Nr: 9, Nt: 13}, NProcs: 2, Steps: steps, CheckpointEvery: every}
}

// blowUpSegment1 poisons segment 1's first attempt with a NaN.
func blowUpSegment1(seg, attempt int, in *snapshot.Interior) {
	if seg == 1 && attempt == 0 {
		data := in.Fields[0][0]
		data[len(data)/2] = math.NaN()
	}
}

// TestSinklessMatchesDir: a campaign without a sink ends on the bytes a
// directory campaign ends on, serial and on two ranks.
func TestSinklessMatchesDir(t *testing.T) {
	for _, np := range []int{1, 2} {
		dir := testConfig(t, 4, 2)
		dir.NProcs = np
		dres, err := RunCampaign(dir)
		if err != nil {
			t.Fatal(err)
		}
		mem := sinkless(4, 2)
		mem.NProcs = np
		mres, err := RunCampaign(mem)
		if err != nil {
			t.Fatal(err)
		}
		if finalSHA(t, mres) != finalSHA(t, dres) {
			t.Errorf("NProcs %d: sinkless final state differs from the directory campaign's", np)
		}
		if len(mres.Diags) != 2 || mres.Resumed || mres.FinalStep != 4 {
			t.Errorf("NProcs %d: Diags=%d Resumed=%v FinalStep=%d", np, len(mres.Diags), mres.Resumed, mres.FinalStep)
		}
	}
}

// TestSinklessRollback: a blow-up rolls back to the commit held in
// memory, retries at a backed-off dt, and ends on the bytes the same
// blow-up gives a directory campaign.
func TestSinklessRollback(t *testing.T) {
	dir := testConfig(t, 6, 2)
	dir.Perturb = blowUpSegment1
	dres, err := RunCampaign(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := sinkless(6, 2)
	mem.Perturb = blowUpSegment1
	mres, err := RunCampaign(mem)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Retries != 1 || len(mres.Recoveries) != 1 || mres.Recoveries[0].Mode != RecoverRollback {
		t.Fatalf("Retries=%d recoveries %v, want one rollback", mres.Retries, mres.Recoveries)
	}
	if finalSHA(t, mres) != finalSHA(t, dres) {
		t.Error("sinkless rollback ends on other bytes than the directory campaign's")
	}
}

// TestSinklessRankReplace: a silent rank death in a sinkless 2-rank
// campaign is repaired in place from the in-memory commit, and the run
// ends on the fault-free bytes.
func TestSinklessRankReplace(t *testing.T) {
	gres, err := RunCampaign(sinkless(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sinkless(4, 2)
	cfg.Faults = mpi.NewFaultPlan().KillSilent(1, 3)
	cfg.Heartbeat = &mpi.Heartbeat{Interval: 7500 * time.Microsecond} // 150ms confirm window
	cfg.Deadline = 30 * time.Second
	cfg.Replace = &mpi.Elastic{}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].Mode != RecoverReplace || res.Recoveries[0].Rank != 1 {
		t.Fatalf("recoveries %v, want one rank-replace of rank 1", res.Recoveries)
	}
	if finalSHA(t, res) != finalSHA(t, gres) {
		t.Error("sinkless campaign with a replaced rank is not byte-identical to the fault-free one")
	}
}

// TestSinklessTracedSerial: a traced serial campaign records step and
// diagnose spans and the dt gauge on rank 0's track, and tracing
// leaves the final state's bytes alone.
func TestSinklessTracedSerial(t *testing.T) {
	plain := sinkless(4, 2)
	plain.NProcs = 1
	pres, err := RunCampaign(plain)
	if err != nil {
		t.Fatal(err)
	}
	traced := sinkless(4, 2)
	traced.NProcs = 1
	traced.Obs = obs.New(obs.Config{})
	tres, err := RunCampaign(traced)
	if err != nil {
		t.Fatal(err)
	}
	if finalSHA(t, tres) != finalSHA(t, pres) {
		t.Error("traced serial campaign ends on other bytes than the untraced one")
	}
	rep := traced.Obs.BuildReport(perfcount.Snapshot{})
	if len(rep.Ranks) != 1 || rep.Ranks[0].Rank != 0 {
		t.Fatalf("report ranks %+v, want rank 0 alone", rep.Ranks)
	}
	r0 := rep.Ranks[0]
	if r0.ByKind[obs.SpanStep] == 0 || r0.ByKind[obs.SpanDiagnose] == 0 || rep.Steps != 4 {
		t.Errorf("rank 0: step %d ns, diagnose %d ns, %d steps stamped; want both spans over 4 steps",
			r0.ByKind[obs.SpanStep], r0.ByKind[obs.SpanDiagnose], rep.Steps)
	}
	if dt := rep.Gauges["dt"]; dt.N != 4 || dt.Last != tres.DTs[1] {
		t.Errorf("dt gauge %+v, want 4 samples ending at %v", dt, tres.DTs[1])
	}
}

// TestSinklessWritesNothing: a sinkless campaign, a rollback included,
// creates no file in the temp directory or the working directory.
func TestSinklessWritesNothing(t *testing.T) {
	empty := t.TempDir()
	t.Setenv("TMPDIR", empty)
	t.Chdir(empty)
	cfg := sinkless(4, 2)
	cfg.Perturb = blowUpSegment1
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(empty)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("sinkless campaign left %s behind", e.Name())
	}
}
