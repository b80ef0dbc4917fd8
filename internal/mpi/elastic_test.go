package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// elasticProgram is the deterministic SPMD body the elastic tests run:
// steps of Tick+Allreduce, a Barrier, and a final record of the value
// and the epoch the completing attempt ran under. A fenced attempt
// never reaches the record, so the slices hold the completing epoch.
func elasticProgram(steps int, mu *sync.Mutex, vals []float64, epochs []int) func(c *Comm) {
	return func(c *Comm) {
		sum := 0.0
		for step := 0; step < steps; step++ {
			c.Tick(step)
			v := []float64{1}
			c.Allreduce(v, OpSum)
			sum += v[0]
		}
		c.Barrier()
		mu.Lock()
		vals[c.Rank()] = sum
		epochs[c.Rank()] = c.Epoch()
		mu.Unlock()
	}
}

// TestElasticNoisyKillReplaced: a scripted noisy kill fences the world
// membership instead of aborting; every rank re-enters at epoch 1, the
// program completes with the fault-free result, and the timeline shows
// fault.kill before recover.replace.
func TestElasticNoisyKillReplaced(t *testing.T) {
	const n, steps = 4, 5
	var mu sync.Mutex
	vals := make([]float64, n)
	epochs := make([]int, n)
	events := NewEventLog()
	var replacedRank, replacedEpoch int
	var replaceCause error
	err := RunWith(n, RunConfig{
		Deadline: 10 * time.Second,
		Faults:   NewFaultPlan().Kill(2, 3),
		Events:   events,
		Elastic: &Elastic{OnReplace: func(rank, epoch int, cause error) {
			mu.Lock()
			replacedRank, replacedEpoch, replaceCause = rank, epoch, cause
			mu.Unlock()
		}},
	}, elasticProgram(steps, &mu, vals, epochs))
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	for r := 0; r < n; r++ {
		if vals[r] != float64(steps*n) {
			t.Fatalf("rank %d computed %v, want %v", r, vals[r], float64(steps*n))
		}
		if epochs[r] != 1 {
			t.Fatalf("rank %d completed at epoch %d, want 1", r, epochs[r])
		}
	}
	if replacedRank != 2 || replacedEpoch != 1 {
		t.Fatalf("OnReplace saw rank=%d epoch=%d, want rank=2 epoch=1", replacedRank, replacedEpoch)
	}
	var rf *RankFailedError
	if !errors.As(replaceCause, &rf) || rf.Rank != 2 {
		t.Fatalf("OnReplace cause = %v, want *RankFailedError for rank 2", replaceCause)
	}
	killIdx, replaceIdx := -1, -1
	for i, e := range events.Events() {
		switch e.Kind {
		case "fault.kill":
			killIdx = i
		case "recover.replace":
			replaceIdx = i
		}
	}
	if killIdx < 0 || replaceIdx < 0 || replaceIdx < killIdx {
		t.Fatalf("want fault.kill before recover.replace, got timeline:\n%s", events)
	}
}

// TestElasticSilentKillReplaced pins the tentpole's detection half: a
// KillSilent rank is confirmed by heartbeat, replaced surgically (the
// survivors are fenced out of their blocked collectives and re-enter,
// not unwound to the caller), and the run completes with the fault-free
// result. The timeline must show hb.confirm before recover.replace, and
// the whole recovery must land well under the watchdog deadline.
func TestElasticSilentKillReplaced(t *testing.T) {
	const n, steps = 4, 5
	const deadline = 10 * time.Second
	var mu sync.Mutex
	vals := make([]float64, n)
	epochs := make([]int, n)
	events := NewEventLog()
	start := time.Now()
	err := RunWith(n, RunConfig{
		Deadline:  deadline,
		Faults:    NewFaultPlan().KillSilent(1, 2),
		Heartbeat: hbCfg(),
		Events:    events,
		Elastic:   &Elastic{},
	}, elasticProgram(steps, &mu, vals, epochs))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("elastic run failed: %v", err)
	}
	for r := 0; r < n; r++ {
		if vals[r] != float64(steps*n) {
			t.Fatalf("rank %d computed %v, want %v", r, vals[r], float64(steps*n))
		}
		if epochs[r] != 1 {
			t.Fatalf("rank %d completed at epoch %d, want 1", r, epochs[r])
		}
	}
	if elapsed > deadline/10 {
		t.Fatalf("recovery took %v, not well under the %v watchdog deadline", elapsed, deadline)
	}
	confirmIdx, replaceIdx := -1, -1
	for i, e := range events.Events() {
		switch e.Kind {
		case "hb.confirm":
			confirmIdx = i
		case "recover.replace":
			replaceIdx = i
			if !strings.Contains(e.Detail, "rank=1") {
				t.Fatalf("recover.replace names the wrong rank: %s", e.Detail)
			}
		}
	}
	if confirmIdx < 0 || replaceIdx < 0 || replaceIdx < confirmIdx {
		t.Fatalf("want hb.confirm before recover.replace, got timeline:\n%s", events)
	}
}

// TestElasticReplacementBudgetExhausted: once MaxReplacements fences
// have been spent, a further confirmed death aborts the run with the
// usual typed error instead of fencing again.
func TestElasticReplacementBudgetExhausted(t *testing.T) {
	const n, steps = 4, 5
	var mu sync.Mutex
	vals := make([]float64, n)
	epochs := make([]int, n)
	err := RunWith(n, RunConfig{
		Deadline: 10 * time.Second,
		Faults:   NewFaultPlan().Kill(0, 1).Kill(3, 1),
		Elastic:  &Elastic{MaxReplacements: 1},
	}, elasticProgram(steps, &mu, vals, epochs))
	if err == nil {
		t.Fatal("second kill against a budget of one replacement should abort")
	}
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("want *RankFailedError, got %T: %v", err, err)
	}
}

// TestElasticFenceWithReliability: the reliable transport is retired
// wholesale at a fence — sequence numbers restart with the new epoch's
// mailboxes and no pre-fence retransmit timer can abort the new epoch —
// so a run combining a dropped message with a rank kill still completes
// with the fault-free result.
func TestElasticFenceWithReliability(t *testing.T) {
	const n, steps = 4, 5
	var mu sync.Mutex
	vals := make([]float64, n)
	epochs := make([]int, n)
	err := RunWith(n, RunConfig{
		Deadline:    10 * time.Second,
		Faults:      NewFaultPlan().Kill(1, 2).Add(Fault{Src: 2, Dst: 0, Tag: tagReduceUp, Epoch: 0, Action: Drop}),
		Reliability: &Reliability{AckTimeout: 2 * time.Millisecond},
		Elastic:     &Elastic{},
	}, elasticProgram(steps, &mu, vals, epochs))
	if err != nil {
		t.Fatalf("elastic run with reliability failed: %v", err)
	}
	for r := 0; r < n; r++ {
		if vals[r] != float64(steps*n) {
			t.Fatalf("rank %d computed %v, want %v", r, vals[r], float64(steps*n))
		}
	}
}

// TestElasticSplitSurvivesFence: communicators derived by Split before
// a fence belong to the retired epoch; ranks re-entering after the
// fence re-split and the program completes. This exercises the fence
// paths of Split's rendezvous and of split-communicator mailboxes.
func TestElasticSplitSurvivesFence(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	sums := make([]float64, n)
	err := RunWith(n, RunConfig{
		Deadline: 10 * time.Second,
		Faults:   NewFaultPlan().Kill(3, 1),
		Elastic:  &Elastic{},
	}, func(c *Comm) {
		half := c.Split(c.Rank()%2, c.Rank())
		for step := 0; step < 4; step++ {
			c.Tick(step)
			v := []float64{float64(c.Rank())}
			half.Allreduce(v, OpSum)
			c.Barrier()
		}
		// Ranks 0,2 share a color (sum 2), ranks 1,3 the other (sum 4).
		v := []float64{float64(c.Rank())}
		half.Allreduce(v, OpSum)
		mu.Lock()
		sums[c.Rank()] = v[0]
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("elastic run with splits failed: %v", err)
	}
	want := []float64{2, 4, 2, 4}
	for r := 0; r < n; r++ {
		if sums[r] != want[r] {
			t.Fatalf("rank %d split-reduce = %v, want %v", r, sums[r], want[r])
		}
	}
}

// TestElasticSingleRankIgnored: Elastic on a world of one falls back to
// the ordinary runtime (there is no surviving world to rejoin).
func TestElasticSingleRankIgnored(t *testing.T) {
	ran := false
	err := RunWith(1, RunConfig{Deadline: 5 * time.Second, Elastic: &Elastic{}}, func(c *Comm) {
		if c.Epoch() != 0 {
			t.Errorf("single-rank epoch = %d, want 0", c.Epoch())
		}
		ran = true
	})
	if err != nil || !ran {
		t.Fatalf("single-rank elastic run: ran=%v err=%v", ran, err)
	}
}

// TestElasticWatchdogBackstop: without a heartbeat nobody confirms a
// silent death, so the elastic run must still end at the watchdog
// deadline rather than wedge forever.
func TestElasticWatchdogBackstop(t *testing.T) {
	const n, steps = 2, 5
	var mu sync.Mutex
	vals := make([]float64, n)
	epochs := make([]int, n)
	err := RunWith(n, RunConfig{
		Deadline: 300 * time.Millisecond,
		Faults:   NewFaultPlan().KillSilent(1, 2),
		Elastic:  &Elastic{},
	}, elasticProgram(steps, &mu, vals, epochs))
	if err == nil {
		t.Fatal("silent death with no heartbeat should hit the watchdog")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want a watchdog deadline diagnostic, got: %v", err)
	}
}
