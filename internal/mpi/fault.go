package mpi

import (
	"sync"
	"time"
)

// Action is the scripted fate of a matched message.
type Action int

const (
	// Drop discards the message; it is never delivered.
	Drop Action = iota
	// Delay withholds delivery for the fault's Delay duration.
	Delay
	// Duplicate delivers the message twice.
	Duplicate
)

// Fault selects one message occurrence on one communicator and the
// action to apply to it. A message is matched by its envelope
// (Comm, Src, Dst, Tag) and by Epoch, the zero-based count of messages
// with that envelope sent so far in the run. Because one sender's sends
// are program-ordered and communicator ids are assigned
// deterministically (world is 0; each Split numbers its colors in
// ascending order), a scripted fault always hits the same message on
// every run.
type Fault struct {
	Comm          int // communicator id (0 = world)
	Src, Dst, Tag int
	Epoch         int           // which matching occurrence, 0-based
	Action        Action        // Drop, Delay or Duplicate
	Delay         time.Duration // Delay action only
}

// FaultPlan scripts deterministic failures for one or more runs: message
// faults by envelope occurrence, and rank kills by step. The plan is
// stateful — occurrence counters persist across RunWith calls sharing
// the plan, and each kill fires at most once — so a campaign driver that
// retries a failed segment sees the fault exactly once and the retry
// runs clean, mirroring a transient hardware failure.
type FaultPlan struct {
	mu     sync.Mutex
	faults []Fault
	kills  map[int]killSpec // rank -> the kill Tick fires for it
	counts map[[4]int]int
}

// killSpec is one scripted rank kill: the step at (or after) which it
// fires, and whether the rank dies silently (no panic, no abort — the
// way a lost node looks) or noisily (a *RankFailedError abort).
type killSpec struct {
	step   int
	silent bool
}

// killKind is takeKill's verdict for one Tick.
type killKind int

const (
	killNone killKind = iota
	killNoisy
	killSilent
)

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{kills: map[int]killSpec{}, counts: map[[4]int]int{}}
}

// Add appends a scripted message fault and returns the plan for
// chaining.
func (p *FaultPlan) Add(f Fault) *FaultPlan {
	p.mu.Lock()
	p.faults = append(p.faults, f)
	p.mu.Unlock()
	return p
}

// Kill scripts killing the given world rank at the first Comm.Tick whose
// step reaches step. The kill fires once; a retried run continues clean.
func (p *FaultPlan) Kill(rank, step int) *FaultPlan {
	p.mu.Lock()
	p.kills[rank] = killSpec{step: step}
	p.mu.Unlock()
	return p
}

// KillSilent scripts a silent death of the given world rank at the first
// Comm.Tick whose step reaches step: the rank's goroutine simply stops,
// with no panic and no abort, the way a lost node looks from outside.
// Only a RunConfig.Heartbeat (or the watchdog deadline as backstop)
// notices. The kill fires once; a retried run continues clean.
func (p *FaultPlan) KillSilent(rank, step int) *FaultPlan {
	p.mu.Lock()
	p.kills[rank] = killSpec{step: step, silent: true}
	p.mu.Unlock()
	return p
}

// actionFor counts this delivery's envelope occurrence and returns the
// scripted action for it, if any.
func (p *FaultPlan) actionFor(comm, src, dst, tag int) (Action, time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := [4]int{comm, src, dst, tag}
	epoch := p.counts[key]
	p.counts[key] = epoch + 1
	for _, f := range p.faults {
		if f.Comm == comm && f.Src == src && f.Dst == dst && f.Tag == tag && f.Epoch == epoch {
			return f.Action, f.Delay, true
		}
	}
	return 0, 0, false
}

// takeKill reports whether (and how) rank should die at step, consuming
// the kill.
func (p *FaultPlan) takeKill(rank, step int) killKind {
	p.mu.Lock()
	defer p.mu.Unlock()
	k, ok := p.kills[rank]
	if !ok || step < k.step {
		return killNone
	}
	delete(p.kills, rank)
	if k.silent {
		return killSilent
	}
	return killNoisy
}
