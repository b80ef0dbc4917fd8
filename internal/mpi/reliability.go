package mpi

import (
	"fmt"
	"sync"
	"time"
)

// Reliability configures the runtime's ack/retransmit transport. When
// set on a RunConfig, every point-to-point payload carries a
// per-(comm, src, dst, tag) sequence number; the receiver acknowledges
// each delivery, suppresses duplicates, and releases messages to the
// application strictly in sequence order, while the sender retransmits
// unacked messages with exponential backoff. A scripted (or, on real
// hardware, transient) drop, duplicate or delay then becomes invisible
// to the solver — the delivered value stream is bit-identical to a
// fault-free run — instead of wedging a rank until the watchdog
// deadline. Nil keeps today's fail-fast transport.
type Reliability struct {
	// AckTimeout is the wait before the first retransmission of an
	// unacked message (default 10ms). Each further retransmission waits
	// retransmitBackoff times longer than the previous one.
	AckTimeout time.Duration
	// MaxRetries bounds the retransmissions of one message; once
	// exhausted the run aborts with a diagnostic naming the envelope
	// (default 10).
	//yyvet:ignore knob TestReliableGivesUp exhausts 3 retries in ~15ms where the default 10 take ~2s
	MaxRetries int
}

// retransmitBackoff is the retransmission backoff multiplier.
const retransmitBackoff = 2

// withDefaults fills zero fields with the documented defaults.
func (r Reliability) withDefaults() Reliability {
	if r.AckTimeout <= 0 {
		r.AckTimeout = 10 * time.Millisecond
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 10
	}
	return r
}

// relKey identifies one ordered message stream.
type relKey struct {
	comm, src, dst, tag int
}

// relMsgKey identifies one message of a stream.
type relMsgKey struct {
	relKey
	seq int
}

// relPending is an in-flight (sent, not yet acked) message on the
// sender side: the master payload copy retransmissions are cut from,
// the retransmission count, and the armed retransmit timer.
type relPending struct {
	data     []float64
	box      *mailbox
	attempts int
	timer    *time.Timer
}

// relState is the per-run reliable-transport bookkeeping shared by all
// ranks (sender and receiver live in one process, so acks are direct
// state updates rather than wire messages — the control plane is
// lossless, as on the Earth Simulator's crossbar; only payload
// transmissions pass through the fault plan).
type relState struct {
	ctx *context
	cfg Reliability

	mu          sync.Mutex
	nextSeq     map[relKey]int
	outstanding map[relMsgKey]*relPending
	stopped     bool
}

func newRelState(ctx *context, cfg Reliability) *relState {
	return &relState{
		ctx:         ctx,
		cfg:         cfg.withDefaults(),
		nextSeq:     map[relKey]int{},
		outstanding: map[relMsgKey]*relPending{},
	}
}

// send assigns the next sequence number of the stream, registers the
// message as outstanding with its retransmit timer armed, and makes
// the first transmission attempt.
func (rs *relState) send(comm, src, dst, tag int, data []float64, box *mailbox) {
	key := relKey{comm, src, dst, tag}
	master := make([]float64, len(data))
	copy(master, data)
	p := &relPending{data: master, box: box}
	rs.mu.Lock()
	seq := rs.nextSeq[key]
	rs.nextSeq[key] = seq + 1
	mk := relMsgKey{key, seq}
	rs.outstanding[mk] = p
	// Arm the timer before the first transmission so an immediate ack
	// always finds a timer to stop.
	p.timer = time.AfterFunc(rs.cfg.AckTimeout, func() { rs.retransmit(mk) })
	rs.mu.Unlock()
	rs.transmit(mk, p)
}

// transmit cuts a fresh wire copy from the master payload and passes it
// through the (possibly faulty) delivery path. The master copy is never
// mutated, so reading it without rs.mu is safe.
func (rs *relState) transmit(mk relMsgKey, p *relPending) {
	cp := rs.ctx.getBuf(len(p.data))
	copy(cp, p.data)
	rs.ctx.deliver(p.box, message{src: mk.src, tag: mk.tag, seq: mk.seq, rel: true, data: cp})
}

// retransmit is the timer body: resend the message if it is still
// outstanding, with exponentially backed-off rescheduling, aborting the
// run once the retry budget is exhausted.
func (rs *relState) retransmit(mk relMsgKey) {
	rs.mu.Lock()
	p, ok := rs.outstanding[mk]
	if !ok || rs.stopped {
		rs.mu.Unlock()
		return
	}
	if p.attempts >= rs.cfg.MaxRetries {
		delete(rs.outstanding, mk)
		rs.mu.Unlock()
		err := fmt.Errorf("mpi: reliable transport gave up: message (comm=%d, src=%d, dst=%d, tag=%d, seq=%d) unacked after %d retransmissions",
			mk.comm, mk.src, mk.dst, mk.tag, mk.seq, rs.cfg.MaxRetries)
		rs.ctx.eventf("xport.giveup", "comm=%d src=%d dst=%d tag=%d seq=%d attempts=%d",
			mk.comm, mk.src, mk.dst, mk.tag, mk.seq, rs.cfg.MaxRetries)
		rs.ctx.abortFromRel(rs, err)
		return
	}
	p.attempts++
	backoff := rs.cfg.AckTimeout
	for i := 0; i < p.attempts; i++ {
		backoff *= retransmitBackoff
	}
	attempt := p.attempts
	rs.mu.Unlock()

	rs.ctx.eventf("xport.retransmit", "comm=%d src=%d dst=%d tag=%d seq=%d attempt=%d",
		mk.comm, mk.src, mk.dst, mk.tag, mk.seq, attempt)
	rs.transmit(mk, p)

	rs.mu.Lock()
	// The retransmission may have been acked synchronously (deliver puts
	// into the mailbox, which acks); only re-arm while still outstanding.
	if _, still := rs.outstanding[mk]; still && !rs.stopped {
		p.timer = time.AfterFunc(backoff, func() { rs.retransmit(mk) })
	}
	rs.mu.Unlock()
}

// ack marks a message delivered (called by the receiving mailbox on
// first insertion and again on every suppressed duplicate, so a
// retransmission racing a delayed original settles cleanly).
func (rs *relState) ack(comm, src, dst, tag, seq int) {
	mk := relMsgKey{relKey{comm, src, dst, tag}, seq}
	rs.mu.Lock()
	p, ok := rs.outstanding[mk]
	if ok {
		delete(rs.outstanding, mk)
	}
	rs.mu.Unlock()
	if ok && p.timer != nil {
		p.timer.Stop()
	}
}

// abortFromRel aborts the run on behalf of a reliable-transport
// instance — unless that instance has been retired by an elastic
// membership fence, in which case the giveup is about a fenced-out
// epoch's message and must not kill the new epoch. (The fence stops the
// old instance's timers, but a giveup already past its stopped check
// can race the fence; the identity check here closes that window.)
func (ctx *context) abortFromRel(rs *relState, err error) {
	ctx.mu.Lock()
	stale := ctx.rel != rs
	ctx.mu.Unlock()
	if stale {
		return
	}
	ctx.abort(err)
}

// stop cancels every armed retransmit timer; called once the run has
// ended (a message still unacked then was simply never received, which
// is legal — it must not abort a completed run).
func (rs *relState) stop() {
	rs.mu.Lock()
	rs.stopped = true
	for mk, p := range rs.outstanding {
		if p.timer != nil {
			p.timer.Stop()
		}
		delete(rs.outstanding, mk)
	}
	rs.mu.Unlock()
}
