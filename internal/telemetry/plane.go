package telemetry

// The collector side of the plane. A Plane owns the per-rank publish
// slots, the campaign progress counters, the anomaly engine and the
// alert list; the HTTP server (server.go) and the rule engine
// (alerts.go) read everything through it. Unlike publish.go this side
// may read the wall clock, allocate and lock freely — it runs on the
// driver/server goroutines, never inside a solver step.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/store"
)

// Config sizes a Plane. The zero value selects defaults everywhere.
type Config struct {
	// RetransmitStorm is the retransmit-storm threshold: one evaluation
	// consuming this many new xport.retransmit events fires the alert
	// (default 10).
	//yyvet:ignore knob TestChaosDropRaisesRetransmitAlert arms the storm rule on a single scripted drop
	RetransmitStorm int
	// Interval is the collector/engine tick of a served plane (default
	// 500ms). Shorter ticks sharpen rate/ETA estimates and alert
	// latency at the cost of more scrape work.
	//yyvet:ignore knob server_test.go, cmd/yywatch's main_test.go and resilience's telemetry_test.go tick a served plane at 10-50ms
	Interval time.Duration
	// NoProfile disables the segment-boundary CPU/heap profile capture,
	// which is on by default. See Plane.ProfileSegments.
	NoProfile bool
}

// Campaign binds a Plane to one run's data sources. Everything is
// optional: a nil field simply withholds that family of metrics.
type Campaign struct {
	// Run names the campaign (the store run id, or a CLI label).
	Run string
	// TotalSteps is the campaign's step target, for progress and ETA.
	TotalSteps int
	// Events is the run's shared fault/recovery timeline; the SSE
	// stream and the event-kind counters feed from it, and fired
	// alerts are appended to it as telemetry.alert events.
	Events *mpi.EventLog
	// Recorder supplies the live-readable obs aggregates: comm
	// histograms and the pool gauge.
	Recorder *obs.Recorder
	// Store supplies the artifact-store counters (objects, put bytes,
	// dedup hits).
	Store *store.Store
}

// sample is one (wall clock, live step) observation for the rate/ETA
// estimate.
type sample struct {
	at   time.Time
	step int64
}

// Plane is the live telemetry plane of one run. Create with New,
// bind with Attach, serve with Serve. All exported methods are
// nil-safe: a nil *Plane is telemetry off.
type Plane struct {
	cfg Config

	// Step-path-facing state: the publish slots, created on first use
	// per rank and stable thereafter.
	pubMu sync.Mutex
	pubs  map[int]*RankPub

	// Campaign progress counters, written by the driver between
	// segments and read by any scraper.
	committed  atomic.Int64
	totalSteps atomic.Int64
	segment    atomic.Int64
	attempt    atomic.Int64
	retries    atomic.Int64
	done       atomic.Bool

	// Collector state, guarded by mu.
	mu      sync.Mutex
	run     string
	events  *mpi.EventLog
	rec     *obs.Recorder
	st      *store.Store
	eng     *engine
	alerts  []Alert
	samples []sample

	srv *server
}

// New builds a Plane.
func New(cfg Config) *Plane {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	return &Plane{
		cfg:  cfg,
		pubs: map[int]*RankPub{},
		eng:  newEngine(cfg.RetransmitStorm),
	}
}

// Attach binds the plane to a run's data sources; call before the run
// starts (resilience.RunCampaign calls it from Config.Telemetry).
// Nil-safe.
func (p *Plane) Attach(c Campaign) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if c.Run != "" {
		p.run = c.Run
	}
	if c.Events != nil {
		p.events = c.Events
	}
	if c.Recorder != nil {
		p.rec = c.Recorder
	}
	if c.Store != nil {
		p.st = c.Store
	}
	p.mu.Unlock()
	if c.TotalSteps > 0 {
		p.totalSteps.Store(int64(c.TotalSteps))
	}
}

// Rank returns the rank's publish slot, creating it on first use.
// Called at segment setup, not on the step path; nil-safe (a nil
// plane yields a nil *RankPub, which no-ops everywhere).
func (p *Plane) Rank(rank int) *RankPub {
	if p == nil {
		return nil
	}
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	pub := p.pubs[rank]
	if pub == nil {
		pub = &RankPub{}
		p.pubs[rank] = pub
	}
	return pub
}

// snapshots copies the latest published snapshot of every rank.
func (p *Plane) snapshots() map[int]Snapshot {
	if p == nil {
		return nil
	}
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	out := make(map[int]Snapshot, len(p.pubs))
	for rank, pub := range p.pubs {
		if s, ok := pub.Read(); ok {
			out[rank] = s
		}
	}
	return out
}

// ProfileSegments reports whether segment-boundary pprof capture is
// wanted (nil plane: no).
func (p *Plane) ProfileSegments() bool {
	return p != nil && !p.cfg.NoProfile
}

// SegmentStart records that a segment attempt began.
func (p *Plane) SegmentStart(seg, attempt int) {
	if p == nil {
		return
	}
	p.segment.Store(int64(seg))
	p.attempt.Store(int64(attempt))
}

// Commit records a committed campaign step.
func (p *Plane) Commit(step int) {
	if p == nil {
		return
	}
	p.committed.Store(int64(step))
}

// Retry counts a failed segment attempt.
func (p *Plane) Retry() {
	if p == nil {
		return
	}
	p.retries.Add(1)
}

// Finish marks the run complete and runs one final rule evaluation, so
// campaigns shorter than a collector tick still get their alerts
// before the run report is written.
func (p *Plane) Finish(step int) {
	if p == nil {
		return
	}
	p.committed.Store(int64(step))
	p.done.Store(true)
	p.Evaluate()
}

// Evaluate runs one collector pass: consume new events, feed the rule
// engine the freshest snapshots, latch and emit any alerts that fired.
// Served planes call it on every tick and scrape; tests and the
// campaign driver call it directly. Deterministic given the same
// inputs. Nil-safe.
func (p *Plane) Evaluate() {
	if p == nil {
		return
	}
	snaps := p.snapshots()
	p.mu.Lock()
	fired := p.eng.evaluate(snaps, p.events)
	p.alerts = append(p.alerts, fired...)
	events := p.events
	p.mu.Unlock()
	for _, a := range fired {
		events.Notef("telemetry.alert", "rule=%s step=%d %s", a.Rule, a.Step, a.Detail)
	}
}

// Alerts returns the alerts latched so far, in firing order.
func (p *Plane) Alerts() []Alert {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Alert, len(p.alerts))
	copy(out, p.alerts)
	return out
}

// AlertStrings renders the latched alerts one per line, for the run
// report.
func (p *Plane) AlertStrings() []string {
	alerts := p.Alerts()
	out := make([]string, 0, len(alerts))
	for _, a := range alerts {
		out = append(out, a.String())
	}
	return out
}

// Events returns the attached event log (nil when none).
func (p *Plane) Events() *mpi.EventLog {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.events
}

// tick is one collector heartbeat: sample the live step for the ETA
// estimate, then evaluate the rules.
func (p *Plane) tick() {
	live := p.liveStep()
	p.mu.Lock()
	p.samples = append(p.samples, sample{at: time.Now(), step: live})
	if len(p.samples) > 128 {
		p.samples = p.samples[len(p.samples)-64:]
	}
	p.mu.Unlock()
	p.Evaluate()
}

// liveStep is the freshest step any rank has published (falling back
// to the committed step when nothing published yet).
func (p *Plane) liveStep() int64 {
	live := p.committed.Load()
	for _, s := range p.snapshots() {
		if s.Step > live {
			live = s.Step
		}
	}
	return live
}

// rate estimates steps/sec from the retained samples (0 when unknown).
func (p *Plane) rate() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) < 2 {
		return 0
	}
	first, last := p.samples[0], p.samples[len(p.samples)-1]
	dt := last.at.Sub(first.at).Seconds()
	if dt <= 0 || last.step <= first.step {
		return 0
	}
	return float64(last.step-first.step) / dt
}

// RankProgress is one rank's row in the /progress document.
type RankProgress struct {
	Rank int     `json:"rank"`
	Step int64   `json:"step"`
	DT   float64 `json:"dt"`
	DivB float64 `json:"divb"`
}

// ProgressInfo is the /progress JSON document.
type ProgressInfo struct {
	Run             string         `json:"run"`
	Done            bool           `json:"done"`
	CommittedStep   int64          `json:"committed_step"`
	LiveStep        int64          `json:"live_step"`
	TotalSteps      int64          `json:"total_steps"`
	Segment         int64          `json:"segment"`
	Attempt         int64          `json:"attempt"`
	Retries         int64          `json:"retries"`
	RateStepsPerSec float64        `json:"rate_steps_per_sec"`
	ETASec          float64        `json:"eta_sec"`
	Alerts          int            `json:"alerts"`
	Ranks           []RankProgress `json:"ranks,omitempty"`
}

// Progress builds the /progress document from the current counters and
// snapshots.
func (p *Plane) Progress() ProgressInfo {
	if p == nil {
		return ProgressInfo{}
	}
	info := ProgressInfo{
		Run:           p.runName(),
		Done:          p.done.Load(),
		CommittedStep: p.committed.Load(),
		TotalSteps:    p.totalSteps.Load(),
		Segment:       p.segment.Load(),
		Attempt:       p.attempt.Load(),
		Retries:       p.retries.Load(),
	}
	snaps := p.snapshots()
	info.LiveStep = info.CommittedStep
	for rank, s := range snaps {
		if s.Step > info.LiveStep {
			info.LiveStep = s.Step
		}
		info.Ranks = append(info.Ranks, RankProgress{Rank: rank, Step: s.Step, DT: s.DT, DivB: s.DivB})
	}
	sortRankProgress(info.Ranks)
	info.RateStepsPerSec = p.rate()
	if info.RateStepsPerSec > 0 && info.TotalSteps > info.LiveStep {
		info.ETASec = float64(info.TotalSteps-info.LiveStep) / info.RateStepsPerSec
	}
	p.mu.Lock()
	info.Alerts = len(p.alerts)
	p.mu.Unlock()
	return info
}

func (p *Plane) runName() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.run == "" {
		return "run"
	}
	return p.run
}

func sortRankProgress(rs []RankProgress) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Rank < rs[j-1].Rank; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
