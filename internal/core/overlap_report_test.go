package core

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/decomp"
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

// delayedWaitPct runs the canonical 4-rank traced scenario of the
// latency-hiding test — 2 fixed-dt steps on a 17x17 grid with every
// B/aux halo message delayed by 1.5 ms — with the overlapped or the
// sequential RHS schedule, and returns its run report's wait share
// (parseWaitPct) and the report itself.
func delayedWaitPct(t *testing.T, overlap bool) (float64, string) {
	t.Helper()
	rec := obs.New(obs.Config{})
	perf0 := perfcount.Read()
	cfg := Config{Nr: 17, Nt: 17}.WithDefaults()
	l, err := decomp.NewLayout(cfg.Spec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.RunWith(4, mpi.RunConfig{
		Deadline: 120 * time.Second,
		Faults:   delayHaloPlan(1500 * time.Microsecond),
		Obs:      rec,
	}, func(c *mpi.Comm) {
		rr := rec.RankFor(c.Rank())
		rr.Open()
		defer rr.Close()
		r, err := decomp.NewRank(c, l, *cfg.Params, *cfg.IC)
		if err != nil {
			c.Abort(err)
			return
		}
		defer r.Close()
		r.SetObs(rr)
		r.SetOverlap(overlap)
		for n := 0; n < 2; n++ {
			r.Advance(2e-3)
		}
	})
	if err != nil {
		t.Fatalf("delayed traced run (overlap %v) failed: %v", overlap, err)
	}
	report := rec.BuildReport(perfcount.Read().Sub(perf0)).Format()
	return parseWaitPct(t, report), report
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
// the ranks spent computing or waiting. The comm class, which the halo
// schedule under test does not move, is left out of the base.
func parseWaitPct(t *testing.T, report string) float64 {
	t.Helper()
	wait := parseRankAvg(t, report, "Wait Time (sec)")
	return 100 * wait / (wait + parseRankAvg(t, report, "Compute Time (sec)"))
}

// TestWaitMovedUnderCompute pins the acceptance criterion of the
// latency-hiding schedule: on the canonical delayed 4-rank traced run,
// the overlapped RHS schedule leaves strictly less of the ranks'
// compute + wait time in the wait class than the sequential
// exchange-then-compute schedule does on the same scenario in the same
// process. The sequential schedule waits out each delayed message in
// turn while the overlapped one computes div v under the B refresh and
// the interior curl under both. One run of each is 8 stages; on a
// loaded host a single pair can land within a point of each other, so
// the test alternates five runs of each schedule and compares the
// medians.
func TestWaitMovedUnderCompute(t *testing.T) {
	const runs = 5
	var seq, live []float64
	var report string
	for n := 0; n < runs; n++ {
		w, _ := delayedWaitPct(t, false)
		seq = append(seq, w)
		w, report = delayedWaitPct(t, true)
		live = append(live, w)
	}
	t.Logf("wait%%: sequential %.1f, overlapped %.1f", seq, live)
	slices.Sort(seq)
	slices.Sort(live)
	seqWait, liveWait := seq[runs/2], live[runs/2]
	t.Logf("median wait%%: sequential %.3f, overlapped %.3f", seqWait, liveWait)
	if liveWait >= seqWait {
		t.Fatalf("halo wait did not move under compute: overlapped median wait%% %.3f >= sequential %.3f\nlast overlapped report:\n%s",
			liveWait, seqWait, report)
	}
}
