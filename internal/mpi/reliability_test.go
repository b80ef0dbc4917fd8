package mpi

import (
	"strings"
	"testing"
	"time"
)

// relCfg is a fast reliable-transport config for tests.
func relCfg() *Reliability {
	return &Reliability{AckTimeout: 2 * time.Millisecond, MaxRetries: 20}
}

// TestReliableSurvivesDrop: a scripted drop that fails fast (watchdog
// abort) without reliability is absorbed by a retransmission with it.
func TestReliableSurvivesDrop(t *testing.T) {
	mkPlan := func() *FaultPlan { return NewFaultPlan().Add(Fault{Src: 0, Dst: 1, Tag: 7, Epoch: 0, Action: Drop}) }

	// Fail-fast baseline: the dropped message wedges rank 1 until the
	// watchdog fires.
	err := RunWith(2, RunConfig{Deadline: 100 * time.Millisecond, Faults: mkPlan()}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{3.25})
		} else {
			var buf [1]float64
			c.Recv(0, 7, buf[:])
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("fail-fast run: want deadline abort, got %v", err)
	}

	// Reliable run: same plan, message retransmitted, payload intact.
	events := NewEventLog()
	var got float64
	err = RunWith(2, RunConfig{
		Deadline:    2 * time.Second,
		Faults:      mkPlan(),
		Reliability: relCfg(),
		Events:      events,
	}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{3.25})
		} else {
			var buf [1]float64
			c.Recv(0, 7, buf[:])
			got = buf[0]
		}
	})
	if err != nil {
		t.Fatalf("reliable run failed: %v", err)
	}
	if got != 3.25 {
		t.Fatalf("payload corrupted across retransmission: got %v", got)
	}
	var sawDrop, sawRetransmit bool
	for _, e := range events.Events() {
		switch e.Kind {
		case "fault.drop":
			sawDrop = true
		case "xport.retransmit":
			sawRetransmit = true
		}
	}
	if !sawDrop || !sawRetransmit {
		t.Fatalf("timeline missing drop/retransmit events:\n%s", events)
	}
}

// TestReliableSuppressesDuplicate: a duplicated message is delivered to
// the application exactly once; the stream stays in order.
func TestReliableSuppressesDuplicate(t *testing.T) {
	plan := NewFaultPlan().Add(Fault{Src: 0, Dst: 1, Tag: 5, Epoch: 0, Action: Duplicate})
	var got []float64
	err := RunWith(2, RunConfig{
		Deadline:    2 * time.Second,
		Faults:      plan,
		Reliability: relCfg(),
	}, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				c.Send(1, 5, []float64{float64(10 + i)})
			}
		} else {
			var buf [1]float64
			for i := 0; i < 3; i++ {
				c.Recv(0, 5, buf[:])
				got = append(got, buf[0])
			}
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	want := []float64{10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("duplicate leaked into the stream: got %v, want %v", got, want)
		}
	}
}

// TestReliableDelayKeepsOrder: a delayed first message must not let the
// second overtake it — the retransmission of message 0 (or its delayed
// original, whichever lands first) is released before message 1.
func TestReliableDelayKeepsOrder(t *testing.T) {
	plan := NewFaultPlan().Add(Fault{Src: 0, Dst: 1, Tag: 9, Epoch: 0, Action: Delay, Delay: 30 * time.Millisecond})
	var got []float64
	err := RunWith(2, RunConfig{
		Deadline:    2 * time.Second,
		Faults:      plan,
		Reliability: relCfg(),
	}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{1})
			c.Send(1, 9, []float64{2})
		} else {
			var buf [1]float64
			for i := 0; i < 2; i++ {
				c.Recv(0, 9, buf[:])
				got = append(got, buf[0])
			}
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("delayed message overtaken: got %v, want [1 2]", got)
	}
}

// TestReliableGivesUp: a message dropped on every (re)transmission
// exhausts the retry budget and aborts with a diagnostic naming the
// envelope, instead of retrying forever.
func TestReliableGivesUp(t *testing.T) {
	plan := NewFaultPlan()
	for epoch := 0; epoch < 10; epoch++ {
		plan.Add(Fault{Src: 0, Dst: 1, Tag: 3, Epoch: epoch, Action: Drop})
	}
	events := NewEventLog()
	err := RunWith(2, RunConfig{
		Deadline:    5 * time.Second,
		Faults:      plan,
		Reliability: &Reliability{AckTimeout: time.Millisecond, MaxRetries: 3},
		Events:      events,
	}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1})
		} else {
			var buf [1]float64
			c.Recv(0, 3, buf[:])
		}
	})
	if err == nil || !strings.Contains(err.Error(), "reliable transport gave up") {
		t.Fatalf("want give-up abort, got %v", err)
	}
	for _, frag := range []string{"src=0", "dst=1", "tag=3"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("give-up diagnostic missing %q: %v", frag, err)
		}
	}
	var sawGiveup bool
	for _, e := range events.Events() {
		if e.Kind == "xport.giveup" {
			sawGiveup = true
		}
	}
	if !sawGiveup {
		t.Fatalf("timeline missing xport.giveup:\n%s", events)
	}
}

// TestReliableCleanRunNoRetransmissions: with no faults the reliable
// transport is pure bookkeeping — no retransmissions, no events, and
// collectives still work (they ride the same sequenced streams).
func TestReliableCleanRunNoRetransmissions(t *testing.T) {
	events := NewEventLog()
	err := RunWith(4, RunConfig{
		Deadline:    2 * time.Second,
		Reliability: relCfg(),
		Events:      events,
	}, func(c *Comm) {
		vals := []float64{float64(c.Rank() + 1)}
		c.Allreduce(vals, OpSum)
		if vals[0] != 10 {
			c.Abort(errAllreduceMismatch)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatalf("clean reliable run failed: %v", err)
	}
	if n := events.Len(); n != 0 {
		t.Fatalf("clean run recorded %d events:\n%s", n, events)
	}
}

var errAllreduceMismatch = errStr("allreduce mismatch under reliability")

type errStr string

func (e errStr) Error() string { return string(e) }
