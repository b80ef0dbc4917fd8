package mpi

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Heartbeat configures rank-failure detection. When set on a
// RunConfig, every rank gets a companion beater goroutine that records
// a liveness beat each Interval for as long as the rank is alive (the
// beater is independent of the rank's own progress, so a rank deep in a
// compute phase or blocked in a healthy exchange keeps beating). A
// monitor escalates silent ranks suspect -> confirmed: a rank silent
// past suspectBeats intervals is suspected (and cleared if it beats
// again); one silent past confirmBeats intervals is declared dead and
// the run aborts with a *RankFailedError naming the rank and its last
// completed step — within a few heartbeat intervals, not at the
// watchdog deadline. The deadline watchdog stays as the backstop for
// wedges (live ranks stuck waiting on each other), which heartbeats
// deliberately do not flag.
type Heartbeat struct {
	// Interval is the beat period (default 5ms).
	Interval time.Duration
}

// A rank silent for suspectBeats intervals is suspected; one silent for
// confirmBeats is confirmed dead and the run aborts — generous against
// scheduler and GC stalls of a loaded host.
const (
	suspectBeats = 4
	confirmBeats = 20
)

// withDefaults fills zero fields with the documented defaults.
func (h Heartbeat) withDefaults() Heartbeat {
	if h.Interval <= 0 {
		h.Interval = 5 * time.Millisecond
	}
	return h
}

// RankFailedError reports a dead rank: killed by a scripted fault, or
// confirmed dead by heartbeat silence. Campaign drivers match it with
// errors.As to treat rank loss as a transient, retryable failure.
type RankFailedError struct {
	// Rank is the world rank that died.
	Rank int
	// Step is the last step the rank reached (its last Comm.Tick).
	Step int
	// Silent reports heartbeat detection of an unannounced death, as
	// opposed to a scripted kill that unwound the rank directly.
	Silent bool
	// Silence is the heartbeat silence at confirmation (Silent only).
	Silence time.Duration
}

func (e *RankFailedError) Error() string {
	if e.Silent {
		return fmt.Sprintf("mpi: rank %d failed: heartbeat silent for %v (last completed step %d)",
			e.Rank, e.Silence.Round(time.Millisecond), e.Step)
	}
	return fmt.Sprintf("mpi: fault injection killed rank %d at step %d", e.Rank, e.Step)
}

// hbState is the per-run heartbeat bookkeeping: one beat timestamp,
// completion flag and suspicion flag per rank, shared lock-free between
// the beaters and the monitor.
type hbState struct {
	ctx *context
	cfg Heartbeat

	lastBeat  []atomic.Int64 // UnixNano of the rank's latest beat
	completed []atomic.Bool  // fn returned normally: silence is not death
	suspected []atomic.Bool
}

func newHBState(ctx *context, cfg Heartbeat, n int) *hbState {
	hb := &hbState{
		ctx:       ctx,
		cfg:       cfg.withDefaults(),
		lastBeat:  make([]atomic.Int64, n),
		completed: make([]atomic.Bool, n),
		suspected: make([]atomic.Bool, n),
	}
	now := time.Now().UnixNano()
	for r := 0; r < n; r++ {
		hb.lastBeat[r].Store(now)
	}
	return hb
}

// startBeater launches rank's companion beater goroutine and returns
// its stop channel; the caller closes it when the rank goroutine exits
// (normal return, panic and silent death alike — a dead rank must fall
// silent). An elastic replacement rank starts a fresh beater for the
// same slot, so the stop channel belongs to the goroutine, not the
// slot.
func (hb *hbState) startBeater(rank int) chan struct{} {
	stop := make(chan struct{})
	hb.lastBeat[rank].Store(time.Now().UnixNano())
	go func() {
		ticker := time.NewTicker(hb.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				hb.lastBeat[rank].Store(time.Now().UnixNano())
			}
		}
	}()
	return stop
}

// markCompleted records a normal return of the rank function; the
// monitor then ignores the rank's silence. It must be called before
// the rank's beater stop channel is closed, so the monitor never
// observes a stopped-but-uncompleted healthy rank.
func (hb *hbState) markCompleted(rank int) {
	hb.completed[rank].Store(true)
}

// refresh resets the liveness baseline of every rank: beats read "now",
// completion and suspicion marks are cleared. An elastic fence calls it
// so (a) the freshly respawned rank is not instantly re-confirmed from
// its predecessor's stale beat, and (b) survivors' completion marks —
// which belong to the fenced-out epoch — do not hide a later death.
func (hb *hbState) refresh() {
	now := time.Now().UnixNano()
	for r := range hb.lastBeat {
		hb.lastBeat[r].Store(now)
		hb.completed[r].Store(false)
		hb.suspected[r].Store(false)
	}
}

// monitor scans the beat records and escalates silent ranks; it runs
// until stop closes or it confirms a death.
func (hb *hbState) monitor(stop <-chan struct{}) {
	ticker := time.NewTicker(hb.cfg.Interval)
	defer ticker.Stop()
	suspectAfter, confirmAfter := suspectBeats*hb.cfg.Interval, confirmBeats*hb.cfg.Interval
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			now := time.Now()
			for r := range hb.lastBeat {
				if hb.completed[r].Load() {
					continue
				}
				silence := now.Sub(time.Unix(0, hb.lastBeat[r].Load()))
				step := int(hb.ctx.lastStep[r].Load())
				switch {
				case silence > confirmAfter:
					hb.ctx.eventf("hb.confirm", "rank=%d silence=%v step=%d", r, silence.Round(time.Millisecond), step)
					err := &RankFailedError{Rank: r, Step: step, Silent: true, Silence: silence}
					if hb.ctx.tryFence(r, err, true) {
						// Replaced surgically: the monitor keeps watching
						// the new epoch instead of ending the run.
						continue
					}
					hb.ctx.abort(err)
					return
				case silence > suspectAfter:
					if hb.suspected[r].CompareAndSwap(false, true) {
						hb.ctx.eventf("hb.suspect", "rank=%d silence=%v step=%d", r, silence.Round(time.Millisecond), step)
					}
				default:
					if hb.suspected[r].CompareAndSwap(true, false) {
						hb.ctx.eventf("hb.clear", "rank=%d beat again", r)
					}
				}
			}
		}
	}
}
