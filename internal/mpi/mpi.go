// Package mpi is a small message-passing runtime over goroutines that
// mirrors the MPI constructs the paper's yycore code uses: a world
// communicator, MPI_COMM_SPLIT to divide the processes into the Yin panel
// and the Yang panel, MPI_CART_CREATE to build a two-dimensional process
// grid within each panel, MPI_CART_SHIFT to find the four nearest
// neighbours, point-to-point MPI_SEND/MPI_IRECV for halo and overset
// exchanges, and the usual collectives.
//
// Ranks are goroutines; messages are copied into unbounded per-rank
// mailboxes, so a Send never blocks and deterministic SPMD programs are
// deadlock-free. Every payload byte is reported to perfcount, feeding the
// communication term of the Earth Simulator performance model.
//
// The runtime is fault-aware, because the paper's production runs were
// week-long campaigns on 4096 processors where hangs and lost ranks are
// the norm, not the exception. RunWith accepts a RunConfig carrying a
// deadline (a rank blocked longer than the deadline aborts the whole run
// with a diagnostic dump of every blocked rank and every pending
// envelope, instead of hanging silently) and a scripted FaultPlan
// (deterministically drop, delay or duplicate a chosen message, or kill
// a rank at a chosen step) so tests can rehearse failures. Comm.Abort
// wakes every rank blocked anywhere in the runtime — collectives and
// point-to-point mailbox waits alike — so Run returns the first error
// promptly.
package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/perfcount"
)

// message is a delivered payload with its matching envelope. Messages
// sent through the reliable transport additionally carry their stream
// sequence number (rel marks them; seq is meaningless otherwise).
type message struct {
	src, tag int
	seq      int
	rel      bool
	data     []float64
}

// abortSignal is the panic payload that unwinds a rank woken by an
// abort. Run's recover recognizes it and keeps the primary abort error
// rather than reporting every unwound rank as a fresh panic.
type abortSignal struct{ err error }

// mailbox is an unbounded queue of messages for one (comm, rank) pair.
// Under the reliable transport it is also the receiver endpoint: put
// suppresses duplicate sequence numbers and acknowledges deliveries,
// and take releases sequenced messages strictly in order.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	abortErr error
	// fenceSig, when non-nil, marks a mailbox fenced out by a
	// membership-epoch change (elastic runs): waiters unwind with it,
	// and late deliveries are discarded without acknowledgment so no
	// message or ack crosses the epoch boundary.
	fenceSig *fenceSignal

	ctx         *context
	comm, owner int
	// rel is the reliable-transport state this mailbox acknowledges
	// into — pinned at creation so a fenced mailbox can only ever ack
	// its own epoch's (already retired) transport.
	rel *relState
	// expected maps (src, tag) to the next sequence number take may
	// release; anything below it is a duplicate. Lazily allocated by the
	// first reliable insertion.
	expected map[[2]int]int
}

func newMailbox(ctx *context, comm, owner int) *mailbox {
	mb := &mailbox{ctx: ctx, comm: comm, owner: owner, rel: ctx.rel}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	if m.rel {
		mb.putReliable(m)
		return
	}
	mb.mu.Lock()
	if mb.fenceSig != nil {
		mb.mu.Unlock()
		mb.ctx.putBuf(m.data)
		return
	}
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// putReliable inserts a sequenced message, suppressing duplicates
// (already released, or still queued), and acknowledges the sequence
// number either way — a retransmission racing a delayed original must
// settle the sender's timer even though its payload is discarded.
func (mb *mailbox) putReliable(m message) {
	key := [2]int{m.src, m.tag}
	mb.mu.Lock()
	if mb.fenceSig != nil {
		// Fenced out: discard without acknowledging — the sender's
		// epoch (and its retransmit timers) has been retired wholesale.
		mb.mu.Unlock()
		mb.ctx.putBuf(m.data)
		return
	}
	if mb.expected == nil {
		mb.expected = map[[2]int]int{}
	}
	dup := m.seq < mb.expected[key]
	if !dup {
		for _, q := range mb.queue {
			if q.rel && q.src == m.src && q.tag == m.tag && q.seq == m.seq {
				dup = true
				break
			}
		}
	}
	if !dup {
		mb.queue = append(mb.queue, m)
	}
	mb.mu.Unlock()
	if dup {
		mb.ctx.putBuf(m.data)
	} else {
		mb.cond.Broadcast()
	}
	if rs := mb.rel; rs != nil {
		rs.ack(mb.comm, m.src, mb.owner, m.tag, m.seq)
	}
}

// take blocks until a message matching (src, tag) is present and removes
// the first such message (FIFO per envelope; sequenced messages only in
// sequence order, so a reordered retransmission cannot overtake). An
// abort unwinds the waiter instead of leaving it wedged.
func (mb *mailbox) take(src, tag int) message {
	key := [2]int{src, tag}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.abortErr != nil {
			panic(abortSignal{mb.abortErr})
		}
		if mb.fenceSig != nil {
			panic(*mb.fenceSig)
		}
		for i, m := range mb.queue {
			if m.src != src || m.tag != tag {
				continue
			}
			if m.rel {
				// mb.expected is non-nil here: a queued reliable message
				// implies putReliable allocated it.
				if m.seq != mb.expected[key] {
					continue
				}
				mb.expected[key]++
			}
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return m
		}
		mb.cond.Wait()
	}
}

// abort marks the mailbox dead and wakes its waiters.
func (mb *mailbox) abort(err error) {
	mb.mu.Lock()
	if mb.abortErr == nil {
		mb.abortErr = err
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// doFence marks the mailbox fenced out of the world membership, wakes
// its waiters (they unwind with the fence signal and re-enter at the
// new epoch) and recycles any queued payloads — messages of a retired
// epoch are undeliverable by definition.
func (mb *mailbox) doFence(sig fenceSignal) {
	mb.mu.Lock()
	if mb.fenceSig == nil {
		mb.fenceSig = &sig
		for _, m := range mb.queue {
			mb.ctx.putBuf(m.data)
		}
		mb.queue = nil
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// pendingEnvelopes snapshots the undelivered envelopes for diagnostics.
func (mb *mailbox) pendingEnvelopes() []envelope {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	out := make([]envelope, len(mb.queue))
	for i, m := range mb.queue {
		out[i] = envelope{src: m.src, tag: m.tag, elems: len(m.data)}
	}
	return out
}

// envelope is the diagnostic summary of one undelivered message.
type envelope struct{ src, tag, elems int }

// waiter records one rank blocked in the runtime, for the deadline
// watchdog's diagnostics.
type waiter struct {
	rank, comm int
	kind       string // "Recv", "Barrier" or "Split"
	src, tag   int    // Recv only
	site       string // caller's file:line
	since      time.Time
}

func (w *waiter) describe() string {
	if w.kind == "Recv" {
		return fmt.Sprintf("Recv(src=%d, dst=%d, tag=%d, comm=%d) at %s", w.src, w.rank, w.tag, w.comm, w.site)
	}
	return fmt.Sprintf("%s(comm=%d) at %s", w.kind, w.comm, w.site)
}

// callerSite names the file:line of the exported entry point's caller;
// it must be invoked directly from the exported function.
func callerSite() string {
	_, file, line, ok := runtime.Caller(2)
	if !ok {
		return "?"
	}
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s:%d", file, line)
}

// context is the state shared by every rank of one Run.
type context struct {
	mu sync.Mutex
	// mailboxes indexed by communicator id, then rank.
	boxes map[int][]*mailbox

	// bufMu guards bufPool, the exact-length free lists backing message
	// payload copies: send draws its copy buffer here and recv returns
	// it once the receiver has copied the data out, so the steady-state
	// point-to-point path performs no payload allocations. An explicit
	// free list (rather than sync.Pool) keeps allocs/op deterministically
	// zero after warmup, which the halo benchmarks assert.
	bufMu   sync.Mutex
	bufPool map[int][][]float64
	// deterministic communicator ids for Split results.
	commIDs map[string]int
	nextID  int
	// barrier state per (comm id, epoch).
	barriers map[string]*barrierState
	// split rendezvous per (comm id, epoch).
	splits map[string]*splitState

	cond     *sync.Cond // shared condition for collective waiting
	cfg      RunConfig
	abortErr error
	waiters  map[*waiter]struct{}

	// rel is the reliable-transport state (nil on fail-fast runs); on
	// elastic runs it is replaced wholesale at every membership fence.
	rel *relState
	// lastStep records, per world rank, the last step number the rank
	// passed to Comm.Tick (-1 before the first), for failure diagnostics.
	lastStep []atomic.Int64

	// Elastic-run state (nil/zero on ordinary runs). epoch is the world
	// membership epoch, bumped by every fence; completed/ncomplete track
	// which ranks finished the current epoch; finished latches once every
	// rank completed the same epoch; runOver closes the respawn window
	// after the main goroutine stops waiting. spawn launches a runner
	// for a rank slot (installed by runElastic); hb backs fence-time
	// liveness resets.
	elastic    *Elastic
	epoch      int
	replaced   int
	fenceCause error
	completed  []bool
	ncomplete  int
	finished   bool
	runOver    bool
	spawn      func(rank int)
	hb         *hbState
}

type barrierState struct {
	count int
	gen   int
}

type splitState struct {
	entries map[int][2]int // rank -> (color, key)
	done    bool
}

func newContext(cfg RunConfig) *context {
	ctx := &context{
		boxes:    map[int][]*mailbox{},
		commIDs:  map[string]int{},
		nextID:   1,
		barriers: map[string]*barrierState{},
		splits:   map[string]*splitState{},
		cfg:      cfg,
		waiters:  map[*waiter]struct{}{},
		bufPool:  map[int][][]float64{},
	}
	ctx.cond = sync.NewCond(&ctx.mu)
	return ctx
}

// abort records the first error and wakes every blocked rank: the
// collectives waiters through the shared condition and every mailbox
// waiter through its own. Later aborts keep the first cause.
func (ctx *context) abort(err error) {
	ctx.mu.Lock()
	if ctx.abortErr != nil {
		ctx.mu.Unlock()
		return
	}
	ctx.abortErr = err
	var boxes []*mailbox
	for _, bs := range ctx.boxes {
		boxes = append(boxes, bs...)
	}
	ctx.cond.Broadcast()
	ctx.mu.Unlock()
	for _, mb := range boxes {
		mb.abort(err)
	}
}

// getBuf returns a payload buffer of exactly n elements, reusing a
// previously released one when available.
func (ctx *context) getBuf(n int) []float64 {
	ctx.bufMu.Lock()
	if list := ctx.bufPool[n]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		ctx.bufPool[n] = list[:len(list)-1]
		ctx.bufMu.Unlock()
		return b
	}
	ctx.bufMu.Unlock()
	return make([]float64, n)
}

// putBuf releases a payload buffer back to the free list. The caller
// must not touch b afterwards.
func (ctx *context) putBuf(b []float64) {
	if len(b) == 0 {
		return
	}
	ctx.bufMu.Lock()
	ctx.bufPool[len(b)] = append(ctx.bufPool[len(b)], b)
	ctx.bufMu.Unlock()
}

// register adds a blocked-rank record when a deadline is armed; it
// returns nil (a no-op for unregister) otherwise.
func (ctx *context) register(w *waiter) *waiter {
	if ctx.cfg.Deadline <= 0 {
		return nil
	}
	w.since = time.Now()
	ctx.mu.Lock()
	ctx.waiters[w] = struct{}{}
	ctx.mu.Unlock()
	return w
}

func (ctx *context) unregister(w *waiter) {
	if w == nil {
		return
	}
	ctx.mu.Lock()
	delete(ctx.waiters, w)
	ctx.mu.Unlock()
}

// watchdog polls the waiter registry and aborts the run with a
// deadlock diagnostic once any rank has been blocked past the deadline.
func (ctx *context) watchdog(deadline time.Duration, stop <-chan struct{}) {
	interval := deadline / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := ctx.checkDeadline(deadline); err != nil {
				ctx.abort(err)
				return
			}
		}
	}
}

// checkDeadline returns a diagnostic error when some rank has been
// blocked longer than the deadline, nil otherwise. The diagnostic names
// the longest-blocked call's full envelope, lists every blocked rank
// with its call site, and dumps the pending (sent but unreceived)
// envelopes of every mailbox — the data needed to see which message a
// deadlocked exchange is missing.
func (ctx *context) checkDeadline(deadline time.Duration) error {
	now := time.Now()
	ctx.mu.Lock()
	if ctx.abortErr != nil {
		ctx.mu.Unlock()
		return nil
	}
	var blocked []*waiter
	expired := false
	for w := range ctx.waiters {
		blocked = append(blocked, w)
		if now.Sub(w.since) > deadline {
			expired = true
		}
	}
	type commBox struct {
		comm, rank int
		mb         *mailbox
	}
	var boxes []commBox
	if expired {
		for id, bs := range ctx.boxes {
			for r, mb := range bs {
				boxes = append(boxes, commBox{id, r, mb})
			}
		}
	}
	ctx.mu.Unlock()
	if !expired {
		return nil
	}

	sort.Slice(blocked, func(i, j int) bool { return blocked[i].since.Before(blocked[j].since) })
	sort.Slice(boxes, func(i, j int) bool {
		if boxes[i].comm != boxes[j].comm {
			return boxes[i].comm < boxes[j].comm
		}
		return boxes[i].rank < boxes[j].rank
	})

	var b strings.Builder
	oldest := blocked[0]
	fmt.Fprintf(&b, "mpi: deadline %v exceeded: rank %d blocked %v in %s",
		deadline, oldest.rank, now.Sub(oldest.since).Round(time.Millisecond), oldest.describe())
	b.WriteString("\nblocked ranks:")
	for _, w := range blocked {
		fmt.Fprintf(&b, "\n  rank %d: %s, blocked %v", w.rank, w.describe(), now.Sub(w.since).Round(time.Millisecond))
	}
	b.WriteString("\npending envelopes:")
	const maxEnvelopes = 32
	listed, total := 0, 0
	for _, cb := range boxes {
		for _, e := range cb.mb.pendingEnvelopes() {
			total++
			if listed < maxEnvelopes {
				fmt.Fprintf(&b, "\n  comm %d, rank %d: (src=%d, tag=%d, %d elems)", cb.comm, cb.rank, e.src, e.tag, e.elems)
				listed++
			}
		}
	}
	if total == 0 {
		b.WriteString(" none")
	} else if total > listed {
		fmt.Fprintf(&b, "\n  ... and %d more", total-listed)
	}
	return errors.New(b.String())
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	ctx  *context
	id   int
	rank int
	size int
	// gen is the world-membership epoch the communicator was issued
	// under (always 0 outside elastic runs); a fence retires every
	// communicator of older generations.
	gen int
	// epoch counters for collective matching (SPMD order).
	splitEpoch   int
	barrierEpoch int
	reduceEpoch  int
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Epoch returns the world-membership epoch the communicator belongs
// to: 0 for the initial membership, incremented once per rank
// replacement on an Elastic run. A rank function re-entered after a
// replacement sees Epoch() > 0 and should restore its state from the
// last checkpoint rather than trust any pre-fence snapshot.
func (c *Comm) Epoch() int { return c.gen }

// checkGen panics with the fence signal when the communicator belongs
// to a retired membership epoch. Caller must hold ctx.mu with its
// unlock deferred — the panic unwinds through that defer.
func (c *Comm) checkGen() {
	if c.ctx.elastic != nil && c.gen != c.ctx.epoch {
		panic(fenceSignal{epoch: c.ctx.epoch, cause: c.ctx.fenceCause})
	}
}

// boxFor resolves the peer's mailbox and the current reliable transport
// under ctx.mu, fencing retired-epoch communicators first so a stale
// sender can never look up a mailbox (or a transport) reissued for a
// newer membership epoch.
func (c *Comm) boxFor(peer int) (*mailbox, *relState) {
	c.ctx.mu.Lock()
	defer c.ctx.mu.Unlock()
	c.checkGen()
	return c.ctx.boxes[c.id][peer], c.ctx.rel
}

// RunConfig tunes the fault-tolerance machinery of one Run.
type RunConfig struct {
	// Deadline bounds how long any rank may stay blocked in a single
	// Recv, Wait, Barrier, Split or collective. Once exceeded, the run
	// aborts with a diagnostic dump of every blocked rank and every
	// pending envelope instead of hanging. Zero disables the watchdog.
	// Set it well above the longest compute phase between exchanges.
	Deadline time.Duration
	// Faults scripts deterministic failures for tests; nil means none.
	Faults *FaultPlan
	// Reliability, when non-nil, enables the ack/retransmit transport:
	// point-to-point sends carry sequence numbers, drops are retransmitted
	// with exponential backoff, duplicates are suppressed, and delayed
	// messages cannot be overtaken by their retransmissions. Nil keeps the
	// fail-fast transport.
	Reliability *Reliability
	// Heartbeat, when non-nil, enables rank-failure detection: a dead
	// rank is confirmed within a few heartbeat intervals and the run
	// aborts with a *RankFailedError, instead of waiting out the full
	// watchdog Deadline.
	Heartbeat *Heartbeat
	// Elastic, when non-nil, turns confirmed rank deaths into surgical
	// replacements instead of run aborts: the world membership epoch is
	// fenced, only the dead rank is respawned, and survivors re-enter
	// the rank function at the new epoch (see Elastic). Ignored on
	// single-rank runs.
	Elastic *Elastic
	// Events, when non-nil, collects the run's fault, transport and
	// heartbeat timeline. A log may be shared across runs (a campaign's
	// segments) to accumulate one history.
	Events *EventLog
	// Obs, when non-nil, feeds the observability runtime: every message
	// delivery is counted per (comm,tag) and every blocking receive's
	// wait time lands in the per-tag histogram. Nil costs one nil check
	// per call.
	Obs *obs.Recorder
}

// Run launches n ranks and executes fn on each with its world
// communicator. It returns an error if any rank panics.
func Run(n int, fn func(c *Comm)) error {
	return RunWith(n, RunConfig{}, fn)
}

// RunWith is Run with fault-tolerance configuration: a blocked-call
// deadline and a scripted fault plan. On any rank panic, injected rank
// kill, Abort or deadline expiry, every blocked rank is woken and
// RunWith returns the first error.
func RunWith(n int, cfg RunConfig, fn func(c *Comm)) error {
	if n <= 0 {
		return fmt.Errorf("mpi: need a positive rank count, got %d", n)
	}
	if cfg.Elastic != nil && n > 1 {
		return runElastic(n, cfg, fn)
	}
	ctx := newContext(cfg)
	ctx.lastStep = make([]atomic.Int64, n)
	for i := range ctx.lastStep {
		ctx.lastStep[i].Store(-1)
	}
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
	var hbStops []chan struct{}
	if cfg.Heartbeat != nil {
		hb = newHBState(ctx, *cfg.Heartbeat, n)
		stopHB = make(chan struct{})
		hbStops = make([]chan struct{}, n)
		for r := 0; r < n; r++ {
			hbStops[r] = hb.startBeater(r)
		}
		go hb.monitor(stopHB)
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if hb != nil {
				// Runs on every exit — return, panic and runtime.Goexit
				// (a scripted silent death) alike: a dead rank must fall
				// silent so the monitor can see it.
				defer close(hbStops[rank])
			}
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if ab, ok := rec.(abortSignal); ok {
					// Woken by an abort that originated elsewhere; the
					// primary cause is already recorded in the context.
					errs[rank] = ab.err
					return
				}
				var err error
				if rf, ok := rec.(*RankFailedError); ok {
					// Keep the typed error so campaign drivers can match
					// rank loss with errors.As.
					err = rf
				} else {
					err = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
				}
				errs[rank] = err
				// Wake every rank blocked in a collective or a mailbox
				// so Run ends instead of wedging on a lost peer.
				ctx.abort(err)
			}()
			fn(&Comm{ctx: ctx, id: 0, rank: rank, size: n})
			if hb != nil {
				// Marked before the deferred rankExited stops the beater,
				// so the monitor never sees a completed rank as silent.
				hb.markCompleted(rank)
			}
		}(r)
	}

	var stopWatch chan struct{}
	if cfg.Deadline > 0 {
		stopWatch = make(chan struct{})
		go ctx.watchdog(cfg.Deadline, stopWatch)
	}
	wg.Wait()
	if stopWatch != nil {
		close(stopWatch)
	}
	if stopHB != nil {
		close(stopHB)
	}
	if ctx.rel != nil {
		// A message still unacked now was simply never received (the run
		// is over); cancel its timer rather than aborting a finished run.
		ctx.rel.stop()
	}

	ctx.mu.Lock()
	first := ctx.abortErr
	ctx.mu.Unlock()
	if first != nil {
		return first
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Abort wakes every rank blocked anywhere in the runtime — collectives
// and point-to-point mailbox waits alike — and makes Run return err (the
// first abort wins). The calling rank unwinds immediately; Abort does
// not return. It is the cooperative analogue of MPI_ABORT.
func (c *Comm) Abort(err error) {
	if err == nil {
		err = errors.New("mpi: abort")
	} else {
		err = fmt.Errorf("mpi: rank %d aborted: %w", c.rank, err)
	}
	c.ctx.abort(err)
	panic(abortSignal{err})
}

// Tick is the per-step fault-injection checkpoint: call it once per
// simulation step with the current step number. It records the step as
// the rank's progress mark (reported by failure diagnostics), and a
// scripted FaultPlan kill for this rank fires here: a noisy Kill
// panics with a *RankFailedError, aborting the run as a crashed rank
// would; a KillSilent stops the rank's goroutine without a word, the
// way a lost node looks from outside — only a Heartbeat (or the
// watchdog deadline) notices. Without a plan the progress mark is the
// only effect.
func (c *Comm) Tick(step int) {
	if c.id == 0 && c.rank < len(c.ctx.lastStep) {
		c.ctx.lastStep[c.rank].Store(int64(step))
	}
	p := c.ctx.cfg.Faults
	if p == nil {
		return
	}
	switch p.takeKill(c.rank, step) {
	case killNoisy:
		c.ctx.eventf("fault.kill", "rank=%d step=%d", c.rank, step)
		panic(&RankFailedError{Rank: c.rank, Step: step})
	case killSilent:
		c.ctx.eventf("fault.kill-silent", "rank=%d step=%d", c.rank, step)
		// Goexit still runs the rank's deferred cleanups (worker pools,
		// WaitGroup), but skips the completion mark and the abort — the
		// rank just goes quiet.
		runtime.Goexit()
	}
}

// checkUserTag enforces the documented tag contract: user tags are
// non-negative; the negative space is reserved for internal collectives.
func checkUserTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tag %d is negative; negative tags are reserved for the runtime's internal collectives", tag))
	}
}

// checkPeer validates a point-to-point peer rank up front, panicking
// with a clear diagnostic instead of letting a bad envelope wedge a
// mailbox: an out-of-range rank has no mailbox, and a self-send (or a
// receive from oneself) in this SPMD runtime is a program error that
// would otherwise block until the watchdog deadline.
func (c *Comm) checkPeer(op string, peer int) {
	if peer < 0 || peer >= c.size {
		panic(fmt.Sprintf("mpi: %s invalid rank %d of %d on comm %d", op, peer, c.size, c.id))
	}
	if peer == c.rank {
		panic(fmt.Sprintf("mpi: rank %d attempted %s itself on comm %d; self-messaging is a program error", c.rank, op, c.id))
	}
}

// Send delivers a copy of data to rank dst under the given tag. It never
// blocks (buffered semantics). The tag must be non-negative; dst must be
// a valid peer (in range and not the sender itself).
func (c *Comm) Send(dst, tag int, data []float64) {
	checkUserTag(tag)
	c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []float64) {
	c.checkPeer("send to", dst)
	box, rs := c.boxFor(dst)
	if rs != nil {
		rs.send(c.id, c.rank, dst, tag, data, box)
		return
	}
	cp := c.ctx.getBuf(len(data))
	copy(cp, data)
	c.ctx.deliver(box, message{src: c.rank, tag: tag, data: cp})
}

// deliver passes one wire copy through the scripted fault plan (if any)
// and into the destination mailbox, charging perfcount for the bytes
// actually transmitted. Both the fail-fast path and every reliable
// (re)transmission funnel through here, so faults apply uniformly.
func (ctx *context) deliver(box *mailbox, m message) {
	if p := ctx.cfg.Faults; p != nil {
		if act, d, ok := p.actionFor(box.comm, m.src, box.owner, m.tag); ok {
			switch act {
			case Drop:
				ctx.eventf("fault.drop", "comm=%d src=%d dst=%d tag=%d elems=%d", box.comm, m.src, box.owner, m.tag, len(m.data))
				ctx.putBuf(m.data)
				return
			case Delay:
				ctx.eventf("fault.delay", "comm=%d src=%d dst=%d tag=%d elems=%d delay=%v", box.comm, m.src, box.owner, m.tag, len(m.data), d)
				perfcount.AddComm(int64(8 * len(m.data)))
				ctx.cfg.Obs.CommDelivered(box.comm, m.tag, 8*len(m.data))
				time.AfterFunc(d, func() { box.put(m) })
				return
			case Duplicate:
				ctx.eventf("fault.duplicate", "comm=%d src=%d dst=%d tag=%d elems=%d", box.comm, m.src, box.owner, m.tag, len(m.data))
				box.put(m)
				dup := ctx.getBuf(len(m.data))
				copy(dup, m.data)
				box.put(message{src: m.src, tag: m.tag, seq: m.seq, rel: m.rel, data: dup})
				perfcount.AddComm(int64(16 * len(m.data)))
				ctx.cfg.Obs.CommDelivered(box.comm, m.tag, 16*len(m.data))
				return
			}
		}
	}
	box.put(m)
	perfcount.AddComm(int64(8 * len(m.data)))
	ctx.cfg.Obs.CommDelivered(box.comm, m.tag, 8*len(m.data))
}

// Recv blocks until a message from src with the given tag arrives and
// copies it into buf, returning the element count. The payload must fit.
// The tag must be non-negative.
func (c *Comm) Recv(src, tag int, buf []float64) int {
	checkUserTag(tag)
	return c.recv(src, tag, buf, callerSite())
}

func (c *Comm) recv(src, tag int, buf []float64, site string) int {
	c.checkPeer("recv from", src)
	box, _ := c.boxFor(c.rank)
	w := c.ctx.register(&waiter{rank: c.rank, comm: c.id, kind: "Recv", src: src, tag: tag, site: site})
	defer c.ctx.unregister(w)
	var t0 time.Time
	if c.ctx.cfg.Obs != nil {
		t0 = time.Now()
	}
	m := box.take(src, tag)
	if o := c.ctx.cfg.Obs; o != nil {
		o.CommWaited(c.id, tag, time.Since(t0).Nanoseconds())
	}
	if len(m.data) > len(buf) {
		panic(fmt.Sprintf("mpi: message of %d elements overflows buffer of %d", len(m.data), len(buf)))
	}
	n := len(m.data)
	copy(buf, m.data)
	// The payload has been copied out; recycle its buffer for a later
	// send so the steady-state exchange path stops allocating.
	c.ctx.putBuf(m.data)
	return n
}

// recvResult carries an Irecv completion, or the panic that ended it.
type recvResult struct {
	n   int
	pan any
}

// Request is a pending non-blocking receive.
type Request struct {
	done chan recvResult
}

// Wait blocks until the receive completes and returns the element count.
// If the receive was aborted (or panicked), Wait re-panics in the
// caller's goroutine so the failure unwinds the rank that posted it.
func (r *Request) Wait() int {
	res := <-r.done
	if res.pan != nil {
		panic(res.pan)
	}
	return res.n
}

// Irecv posts a non-blocking receive into buf; complete it with Wait.
// The buffer must not be read (and no overlapping Recv posted) until
// Wait returns; the decomp serial-equivalence goldens fail when a halo
// exchange drops its Wait.
// The tag must be non-negative. The peer is validated up front, in the
// caller's goroutine, so a bad src fails the posting rank immediately
// instead of surfacing only at Wait.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	checkUserTag(tag)
	c.checkPeer("recv from", src)
	site := callerSite()
	req := &Request{done: make(chan recvResult, 1)}
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				req.done <- recvResult{pan: rec}
			}
		}()
		n := c.recv(src, tag, buf, site)
		req.done <- recvResult{n: n}
	}()
	return req
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	site := callerSite()
	key := fmt.Sprintf("b:%d:%d", c.id, c.barrierEpoch)
	c.barrierEpoch++
	ctx := c.ctx
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	c.checkGen()
	st := ctx.barriers[key]
	if st == nil {
		st = &barrierState{}
		ctx.barriers[key] = st
	}
	st.count++
	if st.count == c.size {
		st.gen = 1
		ctx.cond.Broadcast()
		delete(ctx.barriers, key)
		return
	}
	if ctx.cfg.Deadline > 0 {
		w := &waiter{rank: c.rank, comm: c.id, kind: "Barrier", site: site, since: time.Now()}
		ctx.waiters[w] = struct{}{}
		defer delete(ctx.waiters, w)
	}
	for st.gen == 0 {
		if ctx.abortErr != nil {
			panic(abortSignal{ctx.abortErr})
		}
		// A fence resets the rendezvous state; waiters of the retired
		// epoch unwind here instead of waiting on an orphaned barrier.
		c.checkGen()
		ctx.cond.Wait()
	}
}

// Op is a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	}
	panic("mpi: unknown op")
}

// internal tags live in a reserved negative space so they can never
// collide with user tags (which must be non-negative; Send/Recv/Irecv
// enforce the contract). Each collective epoch steps them down by 4.
const (
	tagReduceUp   = -1000
	tagReduceDown = -1001
	tagBcast      = -1003
)

// Allreduce combines vals element-wise across all ranks with op, in rank
// order at the root for determinism, and replaces vals with the result on
// every rank.
func (c *Comm) Allreduce(vals []float64, op Op) {
	site := callerSite()
	epoch := c.reduceEpoch
	c.reduceEpoch++
	up := tagReduceUp - 4*epoch
	down := tagReduceDown - 4*epoch
	if c.rank == 0 {
		buf := make([]float64, len(vals))
		for src := 1; src < c.size; src++ {
			n := c.recv(src, up, buf, site)
			if n != len(vals) {
				panic("mpi: allreduce length mismatch")
			}
			for i := range vals {
				vals[i] = op.apply(vals[i], buf[i])
			}
		}
		for dst := 1; dst < c.size; dst++ {
			c.send(dst, down, vals)
		}
		return
	}
	c.send(0, up, vals)
	c.recv(0, down, vals, site)
}

// Bcast distributes root's vals to every rank.
func (c *Comm) Bcast(root int, vals []float64) {
	site := callerSite()
	epoch := c.reduceEpoch
	c.reduceEpoch++
	tag := tagBcast - 4*epoch
	if c.rank == root {
		for dst := 0; dst < c.size; dst++ {
			if dst != root {
				c.send(dst, tag, vals)
			}
		}
		return
	}
	c.recv(root, tag, vals, site)
}

// Split partitions the communicator by color, ordering ranks within each
// new communicator by (key, old rank), exactly like MPI_COMM_SPLIT. All
// ranks of the communicator must call it collectively. The resulting
// communicator ids are deterministic: the colors of one Split epoch are
// assigned ids in ascending color order, epochs in SPMD program order
// (so a FaultPlan can script faults on a split communicator).
func (c *Comm) Split(color, key int) *Comm {
	site := callerSite()
	epoch := c.splitEpoch
	c.splitEpoch++
	skey := fmt.Sprintf("s:%d:%d", c.id, epoch)
	ctx := c.ctx
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	c.checkGen()
	st := ctx.splits[skey]
	if st == nil {
		st = &splitState{entries: map[int][2]int{}}
		ctx.splits[skey] = st
	}
	st.entries[c.rank] = [2]int{color, key}
	if len(st.entries) == c.size {
		// The last arrival assigns the new communicator ids for every
		// color, in ascending color order, so ids do not depend on which
		// rank's goroutine reaches the rendezvous exit first.
		sizes := map[int]int{}
		for _, ck := range st.entries {
			sizes[ck[0]]++
		}
		colors := make([]int, 0, len(sizes))
		for col := range sizes {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		for _, col := range colors {
			idKey := fmt.Sprintf("c:%d:%d:%d", c.id, epoch, col)
			newID := ctx.nextID
			ctx.nextID++
			ctx.commIDs[idKey] = newID
			boxes := make([]*mailbox, sizes[col])
			for i := range boxes {
				boxes[i] = newMailbox(ctx, newID, i)
				// A mailbox born during an abort must be born dead, or a
				// rank racing past the abort could block in it forever.
				boxes[i].abortErr = ctx.abortErr
			}
			ctx.boxes[newID] = boxes
		}
		st.done = true
		ctx.cond.Broadcast()
	}
	if ctx.cfg.Deadline > 0 {
		w := &waiter{rank: c.rank, comm: c.id, kind: "Split", site: site, since: time.Now()}
		ctx.waiters[w] = struct{}{}
		defer delete(ctx.waiters, w)
	}
	for !st.done {
		if ctx.abortErr != nil {
			panic(abortSignal{ctx.abortErr})
		}
		c.checkGen()
		ctx.cond.Wait()
	}
	// Deterministically derive the new communicator for this rank's color.
	type member struct{ key, rank int }
	var group []member
	for r, ck := range st.entries {
		if ck[0] == color {
			group = append(group, member{ck[1], r})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	newID := ctx.commIDs[fmt.Sprintf("c:%d:%d:%d", c.id, epoch, color)]
	newRank := -1
	for i, m := range group {
		if m.rank == c.rank {
			newRank = i
		}
	}
	return &Comm{ctx: ctx, id: newID, rank: newRank, size: len(group), gen: c.gen}
}
