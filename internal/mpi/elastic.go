package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Elastic enables surgical rank replacement: instead of aborting the
// whole run when a rank is confirmed dead (a scripted kill, or
// heartbeat-confirmed silence), the runtime fences the world membership
// epoch and replaces only the dead rank. A fence reissues every
// mailbox, resets the collective rendezvous state and the deterministic
// communicator-id counter, and retires the reliable transport's
// sequence numbers and retransmit timers wholesale — no message,
// acknowledgment or timer crosses an epoch boundary. Surviving ranks
// unwind their current attempt (or are recalled from the completion
// barrier they parked at) and re-enter the rank function at the new
// epoch alongside the respawned rank; the rank function observes
// Comm.Epoch() > 0 and restores state from its last checkpoint.
//
// Replacement needs a Heartbeat to notice silent deaths; a noisy
// scripted kill fences the epoch from the dying rank itself. Elastic is
// ignored on single-rank runs (there is no surviving world to rejoin).
type Elastic struct {
	// MaxReplacements bounds how many epoch fences one run may perform;
	// a further confirmed death aborts the run as a non-elastic run
	// would (default 2).
	//yyvet:ignore knob TestElasticReplacementBudgetExhausted and resilience.TestCampaignReplacementBudgetPerWorld spend a budget of 1
	MaxReplacements int
	// OnReplace, when set, observes each replacement after its fence:
	// the replaced rank, the new membership epoch and the triggering
	// error. It is called from runtime goroutines — keep it fast and
	// safe for concurrent use.
	OnReplace func(rank, epoch int, cause error)
}

func (e Elastic) withDefaults() Elastic {
	if e.MaxReplacements <= 0 {
		e.MaxReplacements = 2
	}
	return e
}

// fenceSignal is the panic payload that unwinds a survivor blocked (or
// running) in a fenced-out membership epoch; the rank runner recognizes
// it and re-enters the rank function at the current epoch.
type fenceSignal struct {
	epoch int
	cause error
}

// attemptOutcome classifies one epoch attempt of a rank function.
type attemptOutcome int

const (
	attemptDone attemptOutcome = iota
	attemptFenced
	attemptAbort
)

// runElastic is RunWith's elastic mode: rank runners loop over
// membership epochs instead of unwinding on a fence, and completed
// ranks park at the epoch-completion barrier until the run either
// finishes (every rank completed the same epoch) or fences again.
func runElastic(n int, cfg RunConfig, fn func(c *Comm)) error {
	ctx := newContext(cfg)
	el := cfg.Elastic.withDefaults()
	ctx.elastic = &el
	ctx.lastStep = make([]atomic.Int64, n)
	for i := range ctx.lastStep {
		ctx.lastStep[i].Store(-1)
	}
	ctx.completed = make([]bool, n)
	if cfg.Reliability != nil {
		ctx.rel = newRelState(ctx, *cfg.Reliability)
	}
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox(ctx, 0, i)
	}
	ctx.boxes[0] = boxes

	var hb *hbState
	var stopHB chan struct{}
	if cfg.Heartbeat != nil {
		hb = newHBState(ctx, *cfg.Heartbeat, n)
		ctx.hb = hb
		stopHB = make(chan struct{})
		go hb.monitor(stopHB)
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	ctx.spawn = func(rank int) {
		wg.Add(1)
		go ctx.elasticRunner(rank, n, fn, hb, &wg, errs)
	}
	for r := 0; r < n; r++ {
		ctx.spawn(r)
	}

	var stopWatch chan struct{}
	if cfg.Deadline > 0 {
		stopWatch = make(chan struct{})
		go ctx.watchdog(cfg.Deadline, stopWatch)
	}
	wg.Wait()
	// A monitor-triggered respawn may have raced the Wait above (only
	// possible when every runner died silently); close the window and
	// wait out any straggler it spawned.
	ctx.mu.Lock()
	ctx.runOver = true
	rel := ctx.rel
	ctx.mu.Unlock()
	wg.Wait()
	if stopWatch != nil {
		close(stopWatch)
	}
	if stopHB != nil {
		close(stopHB)
	}
	if rel != nil {
		rel.stop()
	}

	ctx.mu.Lock()
	first := ctx.abortErr
	finished := ctx.finished
	ctx.mu.Unlock()
	if first != nil {
		return first
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	if !finished {
		// Every runner exited without abort yet the epoch never
		// completed: ranks vanished silently with nothing left to
		// confirm them. Fail loudly rather than report success.
		return fmt.Errorf("mpi: elastic run ended with ranks missing from the final epoch")
	}
	return nil
}

// elasticRunner hosts one world rank slot across membership epochs:
// attempt the rank function, and on a fence re-enter it at the new
// epoch; on completion, park at the epoch barrier until the run
// finishes or the epoch moves again.
func (ctx *context) elasticRunner(rank, n int, fn func(c *Comm), hb *hbState, wg *sync.WaitGroup, errs []error) {
	defer wg.Done()
	if hb != nil {
		// The beater lives exactly as long as this goroutine: a silent
		// death (runtime.Goexit) still runs this defer, so the rank
		// falls silent and the monitor can confirm it.
		stop := hb.startBeater(rank)
		defer close(stop)
	}
	for {
		ctx.mu.Lock()
		if ctx.abortErr != nil || ctx.finished || ctx.runOver {
			ctx.mu.Unlock()
			return
		}
		epoch := ctx.epoch
		ctx.mu.Unlock()

		out, err := ctx.attempt(rank, n, epoch, fn)
		switch out {
		case attemptAbort:
			errs[rank] = err
			return
		case attemptFenced:
			continue
		}

		// Completed this epoch: record it, then park at the completion
		// barrier — survivors hold the world open instead of unwinding,
		// so a later fence can recall them into the next epoch.
		ctx.mu.Lock()
		if epoch == ctx.epoch && !ctx.completed[rank] {
			ctx.completed[rank] = true
			ctx.ncomplete++
			if hb != nil {
				hb.markCompleted(rank)
			}
			if ctx.ncomplete == n {
				ctx.finished = true
				ctx.cond.Broadcast()
			}
		}
		for ctx.epoch == epoch && !ctx.finished && ctx.abortErr == nil && !ctx.runOver {
			ctx.cond.Wait()
		}
		ctx.mu.Unlock()
	}
}

// attempt runs fn once under the given epoch's world communicator and
// classifies how it ended. A noisy scripted kill fences the epoch from
// the dying goroutine itself, which then becomes its own replacement.
func (ctx *context) attempt(rank, n, epoch int, fn func(c *Comm)) (out attemptOutcome, err error) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		switch s := rec.(type) {
		case abortSignal:
			out, err = attemptAbort, s.err
		case fenceSignal:
			out = attemptFenced
		case *RankFailedError:
			if ctx.tryFence(rank, s, false) {
				out = attemptFenced
				return
			}
			ctx.abort(s)
			out, err = attemptAbort, s
		default:
			e := fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
			ctx.abort(e)
			out, err = attemptAbort, e
		}
	}()
	fn(&Comm{ctx: ctx, id: 0, rank: rank, size: n, gen: epoch})
	return attemptDone, nil
}

// tryFence performs one membership-epoch fence for a confirmed-dead
// rank: bump the epoch, reissue the world mailboxes, reset the
// collective rendezvous and communicator-id state, retire the reliable
// transport (timers and sequence numbers) and recall every survivor.
// When respawn is set a fresh runner goroutine is spawned for the dead
// rank slot (heartbeat-confirmed silent deaths; a noisy kill's own
// goroutine survives and re-enters by itself). Returns false — and
// changes nothing — when replacement is off, exhausted, or the run is
// already over, in which case the caller falls back to a full abort.
func (ctx *context) tryFence(deadRank int, cause error, respawn bool) bool {
	ctx.mu.Lock()
	el := ctx.elastic
	if el == nil || ctx.abortErr != nil || ctx.runOver || ctx.replaced >= el.MaxReplacements {
		ctx.mu.Unlock()
		return false
	}
	ctx.replaced++
	ctx.epoch++
	epoch := ctx.epoch
	ctx.fenceCause = cause
	var old []*mailbox
	for _, bs := range ctx.boxes {
		old = append(old, bs...)
	}
	// Retire the old transport inside the critical section so a racing
	// retransmit-giveup cannot abort the new epoch (stale giveups are
	// additionally suppressed by abortFromRel).
	if ctx.rel != nil {
		ctx.rel.stop()
		ctx.rel = newRelState(ctx, *ctx.cfg.Reliability)
	}
	n := len(ctx.completed)
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox(ctx, 0, i)
	}
	ctx.boxes = map[int][]*mailbox{0: boxes}
	ctx.commIDs = map[string]int{}
	ctx.nextID = 1
	ctx.barriers = map[string]*barrierState{}
	ctx.splits = map[string]*splitState{}
	for i := range ctx.completed {
		ctx.completed[i] = false
	}
	ctx.ncomplete = 0
	if respawn {
		ctx.spawn(deadRank)
	}
	// Logged before the new epoch can run: its ranks may finish the
	// whole run, and RunWith return, before this goroutine gets on.
	ctx.eventf("recover.replace", "rank=%d epoch=%d cause=%v", deadRank, epoch, cause)
	// Recall parked survivors and collective waiters into the new epoch.
	ctx.cond.Broadcast()
	ctx.mu.Unlock()

	sig := fenceSignal{epoch: epoch, cause: cause}
	for _, mb := range old {
		mb.doFence(sig)
	}
	if ctx.hb != nil {
		// Fresh liveness baseline: the replaced rank must not be
		// re-confirmed before its new beater starts, and survivors'
		// completion marks belong to the fenced epoch.
		ctx.hb.refresh()
	}
	if el.OnReplace != nil {
		el.OnReplace(deadRank, epoch, cause)
	}
	return true
}
