package mpi

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicWakesMailboxWaiters is the rank-panic wedge regression: rank 1
// panics mid-exchange while rank 0 is blocked in a point-to-point Recv
// (mailbox.take), where the old runtime only broadcast on the
// collectives condition and left rank 0 wedged forever.
func TestPanicWakesMailboxWaiters(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(3, func(c *Comm) {
			switch c.Rank() {
			case 0:
				buf := make([]float64, 1)
				c.Recv(1, 7, buf) // never sent: must be woken by the abort
			case 1:
				panic("deliberate mid-exchange failure")
			case 2:
				buf := make([]float64, 1)
				c.Recv(1, 8, buf) // a second wedged waiter
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 1 panicked") {
			t.Errorf("got %v, want rank 1 panic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run wedged: mailbox waiters were not woken by the rank panic")
	}
}

// TestPanicWakesIrecvWait: a peer blocked in Request.Wait (not a direct
// Recv) must also unwind when another rank panics.
func TestPanicWakesIrecvWait(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(2, func(c *Comm) {
			if c.Rank() == 0 {
				buf := make([]float64, 1)
				req := c.Irecv(1, 3, buf)
				req.Wait()
			} else {
				panic("boom")
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("panic not reported")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run wedged in Request.Wait")
	}
}

// TestAbortReturnsFirstError: Comm.Abort wakes collective and mailbox
// waiters and Run returns the aborting rank's error.
func TestAbortReturnsFirstError(t *testing.T) {
	cause := errors.New("solver blow-up")
	err := Run(4, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Abort(cause)
		case 1:
			buf := make([]float64, 1)
			c.Recv(0, 1, buf)
		default:
			c.Barrier()
		}
	})
	if err == nil || !errors.Is(err, cause) {
		t.Errorf("Run returned %v, want the abort cause", err)
	}
}

// TestDroppedMessageDeadline is acceptance criterion (a) at the runtime
// level: a dropped message surfaces a deadline error naming the blocked
// (src, dst, tag) instead of hanging.
func TestDroppedMessageDeadline(t *testing.T) {
	plan := NewFaultPlan().Add(Fault{Src: 0, Dst: 1, Tag: 3, Epoch: 0, Action: Drop})
	err := RunWith(2, RunConfig{Deadline: 200 * time.Millisecond, Faults: plan}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1, 2})
		} else {
			buf := make([]float64, 2)
			c.Recv(0, 3, buf)
		}
	})
	if err == nil {
		t.Fatal("dropped message did not trip the deadline")
	}
	for _, want := range []string{"deadline", "Recv(src=0, dst=1, tag=3, comm=0)", "blocked"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadline error missing %q:\n%v", want, err)
		}
	}
}

// TestDeadlineDiagnosticDump: the deadline error lists the pending
// (sent but unreceived) envelopes and the blocked call site.
func TestDeadlineDiagnosticDump(t *testing.T) {
	err := RunWith(2, RunConfig{Deadline: 200 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{1, 2, 3}) // tag mismatch: receiver wants 6
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 6, buf)
		}
	})
	if err == nil {
		t.Fatal("mismatched exchange did not trip the deadline")
	}
	for _, want := range []string{"pending envelopes", "(src=0, tag=5, 3 elems)", "fault_test.go:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic missing %q:\n%v", want, err)
		}
	}
}

// TestDeadlineNamesBlockedCollective: a rank that never reaches a
// Barrier leaves its peers named in the deadline diagnostic.
func TestDeadlineNamesBlockedCollective(t *testing.T) {
	err := RunWith(3, RunConfig{Deadline: 200 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 0 {
			return // never enters the barrier
		}
		c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "Barrier(comm=0)") {
		t.Errorf("got %v, want a Barrier deadline diagnostic", err)
	}
}

// TestNoDeadlineNoWatchdog: a clean run under a deadline completes
// without tripping it.
func TestCleanRunUnderDeadline(t *testing.T) {
	err := RunWith(4, RunConfig{Deadline: 5 * time.Second}, func(c *Comm) {
		v := []float64{float64(c.Rank())}
		c.Allreduce(v, OpSum)
		if v[0] != 6 {
			t.Errorf("allreduce = %v", v[0])
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDelayedMessage: a delayed message still arrives and the run
// completes; the receiver simply blocks until delivery.
func TestDelayedMessage(t *testing.T) {
	plan := NewFaultPlan().Add(Fault{Src: 0, Dst: 1, Tag: 0, Epoch: 0, Action: Delay, Delay: 50 * time.Millisecond})
	err := RunWith(2, RunConfig{Deadline: 5 * time.Second, Faults: plan}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{42})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 0, buf)
			if buf[0] != 42 {
				t.Errorf("delayed payload = %v", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDuplicatedMessage: a duplicated message is delivered twice with
// identical payloads.
func TestDuplicatedMessage(t *testing.T) {
	plan := NewFaultPlan().Add(Fault{Src: 0, Dst: 1, Tag: 2, Epoch: 0, Action: Duplicate})
	err := RunWith(2, RunConfig{Deadline: 5 * time.Second, Faults: plan}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 2, []float64{7})
		} else {
			a := make([]float64, 1)
			b := make([]float64, 1)
			c.Recv(0, 2, a)
			c.Recv(0, 2, b)
			if a[0] != 7 || b[0] != 7 {
				t.Errorf("duplicate payloads %v %v", a[0], b[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateSurvivesRecycledPayload: under a plan that duplicates
// every message, a receiver that recycles each payload at once (every
// Recv does) and answers with a send of the same length — which picks
// the recycled buffer up again and overwrites it — still receives both
// copies intact. A duplicate copied only after the original was in the
// mailbox read a buffer the receiver could already be reusing: a DATA
// RACE under -race, and a duplicate carrying the reply's bytes without
// it.
func TestDuplicateSurvivesRecycledPayload(t *testing.T) {
	const msgs, n = 200, 4096
	plan := NewFaultPlan()
	for e := 0; e < msgs; e++ {
		plan.Add(Fault{Src: 0, Dst: 1, Tag: 3, Epoch: e, Action: Duplicate})
	}
	err := RunWith(2, RunConfig{Deadline: 10 * time.Second, Faults: plan}, func(c *Comm) {
		buf := make([]float64, n)
		if c.Rank() == 0 {
			for e := 0; e < msgs; e++ {
				for i := range buf {
					buf[i] = float64(e)
				}
				c.Send(1, 3, buf)
				c.Recv(1, 4, buf)
			}
			return
		}
		reply := make([]float64, n)
		for i := range reply {
			reply[i] = -1
		}
		for e := 0; e < msgs; e++ {
			for copyNo := 0; copyNo < 2; copyNo++ {
				c.Recv(0, 3, buf)
				if copyNo == 0 {
					c.Send(0, 4, reply)
				}
				if i := slices.IndexFunc(buf, func(x float64) bool { return x != float64(e) }); i >= 0 {
					t.Errorf("message %d copy %d: element %d is %v", e, copyNo, i, buf[i])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultEpochSelectivity: dropping epoch 0 of an envelope leaves
// epoch 1 to satisfy the receive — the fault hits exactly the scripted
// occurrence.
func TestFaultEpochSelectivity(t *testing.T) {
	plan := NewFaultPlan().Add(Fault{Src: 0, Dst: 1, Tag: 4, Epoch: 0, Action: Drop})
	err := RunWith(2, RunConfig{Deadline: 5 * time.Second, Faults: plan}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 4, []float64{1}) // dropped
			c.Send(1, 4, []float64{2}) // delivered
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 4, buf)
			if buf[0] != 2 {
				t.Errorf("receive matched epoch-0 payload %v; it should have been dropped", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillRankAtStep: a scripted kill fires at the rank's Tick and
// aborts the run; surviving ranks blocked in exchanges are woken.
func TestKillRankAtStep(t *testing.T) {
	plan := NewFaultPlan().Kill(1, 3)
	err := RunWith(2, RunConfig{Deadline: 5 * time.Second, Faults: plan}, func(c *Comm) {
		peer := 1 - c.Rank()
		buf := make([]float64, 1)
		for step := 0; step < 6; step++ {
			c.Tick(step)
			c.Send(peer, step, []float64{float64(step)})
			c.Recv(peer, step, buf)
		}
	})
	var rf *RankFailedError
	if !errors.As(err, &rf) || rf.Rank != 1 || rf.Step != 3 || rf.Silent {
		t.Errorf("got %v, want the scripted noisy kill of rank 1 at step 3", err)
	}
	// The kill is consumed: the same plan runs clean afterwards.
	if err := RunWith(2, RunConfig{Deadline: 5 * time.Second, Faults: plan}, func(c *Comm) {
		for step := 0; step < 6; step++ {
			c.Tick(step)
		}
	}); err != nil {
		t.Errorf("consumed kill fired again: %v", err)
	}
}

// TestSplitCommFaultDeterminism: communicator ids from Split are
// deterministic (ascending color order), so a fault scripted on a split
// communicator hits the same panel on every run.
func TestSplitCommFaultDeterminism(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		plan := NewFaultPlan().Add(Fault{Comm: 1, Src: 0, Dst: 1, Tag: 9, Epoch: 0, Action: Drop})
		var delivered int32
		err := RunWith(4, RunConfig{Deadline: 300 * time.Millisecond, Faults: plan}, func(c *Comm) {
			sub := c.Split(c.Rank()%2, c.Rank()) // color 0 -> comm 1, color 1 -> comm 2
			if sub.Rank() == 0 {
				sub.Send(1, 9, []float64{float64(c.Rank())})
			} else {
				buf := make([]float64, 1)
				sub.Recv(0, 9, buf)
				atomic.AddInt32(&delivered, 1)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "tag=9, comm=1") {
			t.Fatalf("iter %d: got %v, want a comm-1 deadline", iter, err)
		}
		if atomic.LoadInt32(&delivered) != 1 {
			t.Fatalf("iter %d: comm-2 message not delivered (delivered=%d)", iter, delivered)
		}
	}
}

// TestTagContract: user tags must be non-negative; Send, Recv and Irecv
// reject the reserved negative space with a clear panic.
func TestTagContract(t *testing.T) {
	cases := []struct {
		name string
		fn   func(c *Comm)
	}{
		{"Send", func(c *Comm) { c.Send(0, -1, []float64{1}) }},
		{"Recv", func(c *Comm) { c.Recv(0, -5, make([]float64, 1)) }},
		{"Irecv", func(c *Comm) { c.Irecv(0, -1000, make([]float64, 1)) }},
	}
	for _, tc := range cases {
		err := Run(2, func(c *Comm) {
			if c.Rank() == 1 {
				tc.fn(c)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "negative tags are reserved") {
			t.Errorf("%s with negative tag: got %v, want the tag-contract panic", tc.name, err)
		}
	}
}

// TestInternalCollectiveTagsStillWork: the tag contract must not break
// the collectives' own use of the negative tag space.
func TestInternalCollectiveTagsStillWork(t *testing.T) {
	err := Run(5, func(c *Comm) {
		v := []float64{1}
		c.Allreduce(v, OpSum)
		if v[0] != 5 {
			t.Errorf("allreduce = %v", v[0])
		}
		v[0] = float64(c.Rank())
		c.Bcast(3, v)
		if v[0] != 3 {
			t.Errorf("bcast = %v", v[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
