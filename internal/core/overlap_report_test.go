package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfcount"
)

// delayHaloPlan scripts a fixed delay on every magnetic-field (B) and
// differentiated-intermediate (aux) halo message a 4-rank run can send:
// both panel communicators (split comm ids 1 and 2), both directions of
// the one seam each 1x2 panel grid has, every occurrence the run can
// reach. These are exactly the exchanges the overlapped RHS schedule
// hides under interior compute, so the induced wait time is the signal
// the wait%% regression test below watches.
func delayHaloPlan(d time.Duration) *mpi.FaultPlan {
	p := mpi.NewFaultPlan()
	pairs := [][2]int{{0, 1}, {1, 0}}
	for _, base := range []int{8, 16} { // tagHaloBBase, tagHaloAuxBase
		for dir := 0; dir < 4; dir++ {
			for comm := 1; comm <= 2; comm++ {
				for _, pr := range pairs {
					for epoch := 0; epoch < 16; epoch++ {
						p.Add(mpi.Fault{
							Comm: comm, Src: pr[0], Dst: pr[1], Tag: base + dir,
							Epoch: epoch, Action: mpi.Delay, Delay: d,
						})
					}
				}
			}
		}
	}
	return p
}

// delayedTracedReport runs the canonical 4-rank traced scenario of the
// latency-hiding acceptance test — 2 fixed-dt steps with every B/aux
// halo message delayed by 1.5 ms — and returns the PROGINF-style run
// report. The same scenario generated the committed pre-PR fixture
// (testdata/prepr_report.txt) on the non-overlapped code, so the two
// reports differ only by the overlap scheduler.
func delayedTracedReport(t *testing.T) *obs.Report {
	t.Helper()
	rec := obs.New(obs.Config{})
	perf0 := perfcount.Read()
	cfg := Config{Nr: 17, Nt: 17, Obs: rec}
	const steps = 2
	const dt = 2e-3
	if _, err := RunParallelCheckpointWith(cfg, mpi.RunConfig{
		Deadline: 120 * time.Second,
		Faults:   delayHaloPlan(1500 * time.Microsecond),
		Obs:      rec,
	}, 4, steps, dt, nil); err != nil {
		t.Fatalf("delayed traced run failed: %v", err)
	}
	return rec.BuildReport(perfcount.Read().Sub(perf0))
}

// parseRankAvg extracts the all-rank Average column of one per-rank row
// ("Wait Time (sec)", "Compute Time (sec)") of a formatted run report.
func parseRankAvg(t *testing.T, report, row string) float64 {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, row) {
			continue
		}
		fields := strings.Fields(line)
		f, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %s average from %q: %v", row, line, err)
		}
		return f
	}
	t.Fatalf("no %s line in report:\n%s", row, report)
	return 0
}

// parseWaitPct returns the wait class's share, in percent, of the time
// the ranks spent computing or waiting. The comm class is left out of
// the base: in this scenario it is almost entirely rank 0 assembling
// the gathered state after the last step (64 ms of the fixture's 158 ms
// rank-0 wall clock), which the halo schedule under test cannot move,
// so the report's own "Wait (%)" line rises whenever the gather gets
// faster, with not a microsecond more spent waiting.
func parseWaitPct(t *testing.T, report string) float64 {
	t.Helper()
	wait := parseRankAvg(t, report, "Wait Time (sec)")
	return 100 * wait / (wait + parseRankAvg(t, report, "Compute Time (sec)"))
}

// TestWaitMovedUnderCompute pins the acceptance criterion of the
// latency-hiding work: on the canonical delayed 4-rank traced run, the
// overlapped RHS schedule leaves strictly less of the ranks' compute +
// wait time in the wait class than the committed pre-PR (non-overlapped)
// report fixture recorded on the same scenario. The injected 1.5 ms
// per-message delay dominates scheduler noise on any host, so "strictly
// lower" is a robust, slack-tolerant form of "the halo wait moved under
// compute".
//
// Regenerate the fixture (only meaningful on pre-overlap code) with:
//
//	YY_REGEN_OVERLAP_FIXTURE=1 go test ./internal/core -run TestWaitMovedUnderCompute
func TestWaitMovedUnderCompute(t *testing.T) {
	rep := delayedTracedReport(t)
	live := rep.Format()

	fixturePath := filepath.Join("testdata", "prepr_report.txt")
	if os.Getenv("YY_REGEN_OVERLAP_FIXTURE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, []byte(live), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("regenerated %s; assertion skipped on the generating run", fixturePath)
	}

	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("reading pre-PR fixture (regenerate with YY_REGEN_OVERLAP_FIXTURE=1 on pre-overlap code): %v", err)
	}
	preWait := parseWaitPct(t, string(fixture))
	liveWait := parseWaitPct(t, live)
	t.Logf("wait%%: pre-PR fixture %.3f, live overlapped %.3f", preWait, liveWait)
	if liveWait >= preWait {
		t.Fatalf("halo wait did not move under compute: live wait%% %.3f >= pre-PR fixture %.3f\nlive report:\n%s",
			liveWait, preWait, live)
	}
}
