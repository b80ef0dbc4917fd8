// Package resilience drives fault-tolerant campaigns over the
// decomposed solver. A campaign is a long run split into checkpointed
// segments over one live world: each segment advances it a fixed
// number of steps, gathers the result on rank 0 and validates it. A
// segment that blows up (non-finite state or CFL collapse) or dies in
// the runtime (rank kill, communication deadline) is rolled back to the
// last checkpoint on disk and retried — with exponentially backed-off
// time step when the solver itself failed — until it commits or the
// retry budget is exhausted, at which point a post-mortem is saved next
// to the checkpoints and the campaign aborts gracefully. A campaign
// interrupted between checkpoints (crashed process, killed job) resumes
// from the newest checkpoint that still reads back valid, falling back
// past corrupt files.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ErrBlowUp tags segment failures caused by the solver itself (as
// opposed to runtime faults): a non-finite state after the segment.
// Only blow-ups shrink the retry time step; transient runtime faults
// retry at full dt.
var ErrBlowUp = errors.New("solver blow-up")

// Config describes a checkpointed campaign. Zero values select
// defaults.
type Config struct {
	// Core selects the grid, physics and initial conditions.
	Core core.Config
	// NProcs is the size of the campaign's world (default 2). NProcs 1
	// runs segments serially with no decomposition at all; because the
	// checkpoint format is layout-neutral, a campaign may be stopped and
	// resumed at a different NProcs (including to or from 1) and its
	// committed trajectory continues bit-identically.
	NProcs int
	// Steps is the campaign's total step count.
	Steps int
	// CheckpointEvery is the segment length in steps; a checkpoint is
	// committed at every multiple (default: Steps, one segment).
	CheckpointEvery int
	// Dir is the campaign directory holding checkpoints and, on
	// failure, the post-mortem: the root of a store.DirBackend.
	// Required unless Store is set; created if missing.
	Dir string
	// Store, when non-nil, replaces the loose-file directory with the
	// content-addressed artifact store: checkpoints dedup by sha256
	// (bit-identical reruns share one blob), every segment commit
	// appends a Merkle-chained ledger manifest recording the artifact
	// hashes, the recovery decisions taken, and an event-log digest,
	// and `yystore verify` can audit the whole campaign offline.
	Store *store.Store
	// RunID names this campaign inside the store's ref namespace
	// (refs/runs/<RunID>/...); default "campaign". Store mode only.
	RunID string
	// MaxRetries bounds the retries per segment after the first attempt
	// (default 3).
	//yyvet:ignore knob TestDroppedMessageRetries, TestPostmortemOnExhaustedRetries and TestPostmortemTimeline shrink the budget to reach exhaustion quickly
	MaxRetries int
	// Keep is how many checkpoints to retain on disk (default 2).
	//yyvet:ignore knob ROADMAP 5c decides ledger retention; store_test.go prunes with it meanwhile
	Keep int
	// Deadline bounds every blocking runtime call inside a segment; on
	// expiry the segment fails with the runtime's diagnostic dump of
	// blocked ranks and pending envelopes (0 disables).
	Deadline time.Duration
	// Faults optionally scripts deterministic runtime failures; the
	// plan is stateful across segments and retries, so a scripted fault
	// hits once and the retry runs clean.
	Faults *mpi.FaultPlan
	// Reliability, when non-nil, runs every segment on the ack/retransmit
	// transport, so transient message drops, duplicates and delays are
	// absorbed in-flight instead of costing a rollback-and-retry.
	Reliability *mpi.Reliability
	// Heartbeat, when non-nil, enables in-segment rank-failure detection:
	// a dead rank fails the segment as a typed *mpi.RankFailedError
	// within a few heartbeat intervals, instead of at Deadline expiry.
	Heartbeat *mpi.Heartbeat
	// Replace, when non-nil, enables surgical rank replacement inside a
	// segment: a confirmed-dead rank (scripted kill, or heartbeat-
	// confirmed silence) is respawned from the segment's own checkpoint
	// and rejoined at a new world-membership epoch while the survivors
	// park at a barrier — the segment continues instead of costing a
	// whole-campaign rollback. The rollback ladder remains the fallback
	// when replacement is unavailable (budget exhausted, reload failed).
	// Requires NProcs > 1; silent deaths additionally need Heartbeat.
	Replace *mpi.Elastic
	// DTSchedule overrides the per-segment time step (indexed by
	// segment); segments beyond its length, and entries <= 0, let the
	// executor estimate dt from the state it is about to step. Replaying
	// a finished campaign's Result.DTs reproduces its committed
	// trajectory bit-identically.
	DTSchedule []float64
	// Perturb, when set, edits a copy of the state a segment starts
	// from — a test hook for injecting mid-campaign blow-ups; the
	// perturbed copy is scattered into the world. A segment re-entered
	// after a rank replacement restores from its committed checkpoint,
	// unperturbed.
	//yyvet:ignore knob test hook: blow-up tests in resilience_test.go, oracle_test.go and telemetry_test.go, the disk-rot step of elastic_test.go
	Perturb func(seg, attempt int, in *snapshot.Interior)
	// Obs, when non-nil, records the whole campaign into one shared
	// observability recorder: every segment's rank spans land on the
	// same per-rank tracks, checkpoint reads/writes land on the driver
	// track, and the event log's segment/retry notes become trace
	// instants.
	Obs *obs.Recorder
	// Events optionally supplies a caller-owned event log for the
	// campaign timeline (so the caller can merge it into a trace
	// afterwards); nil lets the campaign create its own.
	Events *mpi.EventLog
	// Telemetry, when non-nil, is the live telemetry plane: every rank
	// publishes its step snapshot into a lock-free slot, the driver
	// feeds the plane campaign progress (segment starts, commits,
	// retries, completion) for the /progress and /metrics endpoints,
	// and — unless the plane disables it — each committed segment is
	// bracketed by a CPU profile whose pprof blob (plus a heap snapshot
	// at the boundary) is durably saved next to the checkpoint. The
	// plane reads shared memory only; a telemetrized campaign's
	// committed trajectory is sha256-identical to a dark one.
	Telemetry *telemetry.Plane
}

func (c Config) withDefaults() Config {
	c.Core = c.Core.WithDefaults()
	if c.NProcs == 0 {
		c.NProcs = 2
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = c.Steps
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.Keep == 0 {
		c.Keep = 2
	}
	return c
}

// runName labels the campaign for telemetry and artifact commits: the
// store run id when the ledger substrate is in use, the checkpoint
// directory otherwise.
func (c Config) runName() string {
	if c.Store != nil {
		if c.RunID != "" {
			return c.RunID
		}
		return "campaign"
	}
	return c.Dir
}

// retryBackoff scales the time step on each blow-up retry.
const retryBackoff = 0.5

// RecoveryMode names one of the campaign's recovery paths, most to
// least surgical.
type RecoveryMode string

const (
	// RecoverReplace: only the dead rank was respawned from the
	// segment's checkpoint; survivors kept their world.
	RecoverReplace RecoveryMode = "rank-replace"
	// RecoverRollback: the whole segment was rolled back to its own
	// checkpoint and retried.
	RecoverRollback RecoveryMode = "rollback"
	// RecoverRewind: the segment's own checkpoint was unusable, so the
	// campaign rewound to an older committed checkpoint and replays
	// forward from there.
	RecoverRewind RecoveryMode = "rollback-rewind"
)

// RecoveryDecision records one recovery the campaign performed: where
// it happened, which path was chosen, and the error that forced it.
// The post-mortem renders these as its "recovery decisions" section.
type RecoveryDecision struct {
	// Segment is the index of the affected segment; Attempt the attempt
	// number within it (0 is the first try).
	Segment int
	Attempt int
	Mode    RecoveryMode
	// Rank is the replaced world rank and Epoch the membership epoch
	// after the fence (rank-replace only).
	Rank  int
	Epoch int
	// Cause is the triggering error's text.
	Cause string
}

func (d RecoveryDecision) String() string {
	if d.Mode == RecoverReplace {
		return fmt.Sprintf("segment %d attempt %d: %s rank=%d epoch=%d (%s)",
			d.Segment, d.Attempt, d.Mode, d.Rank, d.Epoch, d.Cause)
	}
	return fmt.Sprintf("segment %d attempt %d: %s (%s)", d.Segment, d.Attempt, d.Mode, d.Cause)
}

// Result is the campaign's committed history.
type Result struct {
	// Diags holds one globally reduced diagnostics record per committed
	// segment.
	Diags []mhd.Diagnostics
	// DTs holds the committed time step of each segment — feed it back
	// as Config.DTSchedule to reproduce the trajectory bit-identically.
	DTs []float64
	// Retries counts failed segment attempts across the campaign.
	Retries int
	// Resumed reports whether the campaign picked up from a checkpoint
	// already on disk, and StartStep where it picked up.
	Resumed   bool
	StartStep int
	// FinalStep is the step count reached; Final the gathered state.
	FinalStep int
	Final     *mhd.Solver
	// Events is the campaign's fault/transport/heartbeat timeline,
	// accumulated across every segment and retry (and written to the
	// post-mortem when the campaign aborts).
	Events []mpi.Event
	// Recoveries lists every recovery decision the campaign made — rank
	// replacements and rollbacks alike — in the order they happened.
	Recoveries []RecoveryDecision
}

// RunCampaign executes (or resumes) a checkpointed campaign.
func RunCampaign(cfg Config) (res *Result, err error) {
	cfg = cfg.withDefaults()
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("resilience: campaign needs a positive step count, got %d", cfg.Steps)
	}
	if cfg.Dir == "" && cfg.Store == nil {
		return nil, fmt.Errorf("resilience: campaign needs a directory or a store for checkpoints")
	}
	sink, err := cfg.sink()
	if err != nil {
		return nil, err
	}
	spec := cfg.Core.Spec()
	// One shared log across every segment and retry: the post-mortem can
	// then show the whole campaign's fault history, not just the last
	// attempt's.
	events := cfg.Events
	if events == nil {
		events = mpi.NewEventLog()
	}
	rc := mpi.RunConfig{
		Deadline:    cfg.Deadline,
		Faults:      cfg.Faults,
		Reliability: cfg.Reliability,
		Heartbeat:   cfg.Heartbeat,
		Events:      events,
		Obs:         cfg.Obs,
	}
	plane := cfg.Telemetry
	plane.Attach(telemetry.Campaign{
		Run:        cfg.runName(),
		TotalSteps: cfg.Steps,
		Events:     events,
		Recorder:   cfg.Obs,
		Store:      cfg.Store,
	})
	// The campaign driver records on its own pseudo-rank track:
	// checkpoint I/O and validation between segments.
	drv := cfg.Obs.Driver()
	drv.Open()
	defer drv.Close()

	res = &Result{}
	// Recovery decisions are appended from two places: the campaign
	// goroutine (rollbacks, rewinds) and the runtime's monitor goroutine
	// (a replacement fence firing mid-segment via OnReplace).
	var recMu sync.Mutex
	curSeg, curAttempt := 0, 0
	if cfg.Replace != nil && cfg.NProcs > 1 {
		el := *cfg.Replace
		user := el.OnReplace
		el.OnReplace = func(rank, epoch int, cause error) {
			recMu.Lock()
			res.Recoveries = append(res.Recoveries, RecoveryDecision{
				Segment: curSeg, Attempt: curAttempt, Mode: RecoverReplace,
				Rank: rank, Epoch: epoch, Cause: cause.Error(),
			})
			recMu.Unlock()
			if user != nil {
				user(rank, epoch, cause)
			}
		}
		rc.Elastic = &el
	}
	// One live executor per call (DESIGN.md "Segment boundary").
	exec, err := newExecutor(cfg, rc)
	if err != nil {
		return nil, err
	}
	defer func() {
		if res != nil {
			res.Events = events.Events()
		}
	}()
	// A crash between a past commit's temp write and its rename strands
	// a *.tmp file that nothing would ever reclaim; sweep such orphans
	// before touching the checkpoints.
	if swept, err := sink.sweep(); err != nil {
		return nil, fmt.Errorf("resilience: sweeping orphan temp files: %w", err)
	} else if len(swept) > 0 {
		events.Notef("note", "swept %d orphan temp file(s): %v", len(swept), swept)
	}
	// lastRec marks how much of res.Recoveries earlier commits have
	// already reported, so each ledger entry carries only its own
	// segment's recovery decisions.
	lastRec := 0
	commitMeta := func(note string) segMeta {
		recMu.Lock()
		var recs []string
		for _, d := range res.Recoveries[lastRec:] {
			recs = append(recs, d.String())
		}
		lastRec = len(res.Recoveries)
		recMu.Unlock()
		return segMeta{note: note, recoveries: recs, events: events}
	}
	cr := drv.Begin(obs.SpanCkptRead)
	state, _, err := sink.newest(spec)
	cr.End()
	if err != nil {
		return nil, err
	}
	if state == nil {
		origin, err := mhd.NewSolver(spec, *cfg.Core.Params, *cfg.Core.IC)
		if err != nil {
			return nil, err
		}
		state = snapshot.InteriorOf(origin)
		// Commit the origin so the very first rollback has a checkpoint
		// to reload.
		cw := drv.Begin(obs.SpanCkptWrite)
		err = sink.write(state, commitMeta("origin"))
		cw.End()
		if err != nil {
			return nil, err
		}
	} else {
		res.Resumed = true
	}
	res.StartStep = state.Step
	res.FinalStep = state.Step
	// Final is the last committed state on every way out: the one solver
	// a call builds from it. Everything else about the committed state —
	// commit, scatter, validation — works on the Interior.
	defer func() {
		final, ferr := state.Solver()
		if res.Final = final; err == nil {
			err = ferr
		}
	}()
	// Unless synced, exec lacks state and the next order scatters it.
	// Segments gather into spare; the world and spare go before Final.
	synced := false
	var spare *snapshot.Interior
	defer func() {
		spare = nil
		if cerr := exec.close(); cerr != nil {
			events.Notef("note", "campaign world ended with: %v", cerr)
		}
	}()

	// commitEnds records the end step of every segment this run
	// committed (parallel to res.Diags/res.DTs), so a rewind can
	// truncate the committed history it is about to replay over.
	var commitEnds []int
	rewinds := 0
	for state.Step < cfg.Steps {
		segStart := state.Step
		segIdx := segStart / cfg.CheckpointEvery
		n := cfg.CheckpointEvery - segStart%cfg.CheckpointEvery
		if segStart+n > cfg.Steps {
			n = cfg.Steps - segStart
		}
		// reload is the rank-replacement restore path: a world
		// re-entering its segment at a fenced epoch restores the
		// segment's own committed checkpoint from disk, because the
		// respawned rank never saw the original scatter and the
		// survivors' in-segment progress was fenced away with the dead
		// epoch. Any failure here aborts the attempt and falls back to
		// the rollback ladder.
		reload := func() (*snapshot.Interior, error) {
			cr := drv.Begin(obs.SpanCkptRead)
			defer cr.End()
			in, err := sink.segment(segStart)
			if err == nil && in.Spec != spec {
				err = fmt.Errorf("resilience: replacement checkpoint grid %+v does not match campaign %+v", in.Spec, spec)
			}
			if err == nil && in.Step != segStart {
				err = fmt.Errorf("resilience: replacement checkpoint holds step %d, want segment start %d", in.Step, segStart)
			}
			if err != nil {
				return nil, fmt.Errorf("resilience: restoring checkpoint after rank replacement: %w", err)
			}
			return in, nil
		}

		committed := false
		rewound := false
		blowUps := 0
		var lastErr error
		for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
			if attempt > 0 {
				res.Retries++
				plane.Retry()
				// Roll back: the failed attempt may have consumed or
				// corrupted the in-memory state, so reload the segment's
				// own checkpoint from disk.
				rb := drv.Begin(obs.SpanCkptRead)
				st, _, err := sink.newest(spec)
				rb.End()
				if err != nil {
					return res, err
				}
				if st == nil || st.Step > segStart {
					return res, fmt.Errorf("resilience: rollback found no checkpoint at step %d", segStart)
				}
				if st.Step < segStart {
					// The segment's own checkpoint is gone or corrupt
					// but an older one survives: rewind the whole
					// campaign to it and replay forward from there.
					if rewinds >= cfg.MaxRetries {
						lastErr = fmt.Errorf("resilience: rewind budget exhausted after %d rewinds: %w", rewinds, lastErr)
						break
					}
					rewinds++
					recMu.Lock()
					res.Recoveries = append(res.Recoveries, RecoveryDecision{
						Segment: segIdx, Attempt: attempt, Mode: RecoverRewind,
						Cause: fmt.Sprintf("no usable checkpoint at step %d, rewinding to step %d after: %v", segStart, st.Step, lastErr),
					})
					recMu.Unlock()
					events.Notef("note", "rewind from=%d to=%d attempt=%d", segStart, st.Step, attempt)
					for len(commitEnds) > 0 && commitEnds[len(commitEnds)-1] > st.Step {
						commitEnds = commitEnds[:len(commitEnds)-1]
						res.Diags = res.Diags[:len(res.Diags)-1]
						res.DTs = res.DTs[:len(res.DTs)-1]
					}
					state = st
					rewound = true
					break
				}
				recMu.Lock()
				res.Recoveries = append(res.Recoveries, RecoveryDecision{
					Segment: segIdx, Attempt: attempt, Mode: RecoverRollback, Cause: lastErr.Error(),
				})
				recMu.Unlock()
				state = st
			}
			if spare == nil {
				spare = snapshot.NewInterior(spec, *cfg.Core.Params)
			}
			o := order{steps: n, halvings: blowUps, into: spare, reload: reload}
			if segIdx < len(cfg.DTSchedule) {
				o.dt = cfg.DTSchedule[segIdx]
			}
			if !synced {
				o.state = state
			}
			if cfg.Perturb != nil {
				o.state = state.Clone()
				cfg.Perturb(segIdx, attempt, o.state)
			}
			recMu.Lock()
			curSeg, curAttempt = segIdx, attempt
			recMu.Unlock()
			plane.SegmentStart(segIdx, attempt)
			// Continuous profiling: bracket the attempt with a CPU
			// profile. Profiling is signal-driven and process-global — it
			// perturbs scheduling, never arithmetic — so the committed
			// trajectory is unchanged.
			var prof *telemetry.SegProfiler
			if plane.ProfileSegments() {
				prof = telemetry.StartSegProfile()
			}
			diag, dt, err := exec.run(o)
			cpuProfile := prof.Stop()
			// The executor picked dt from the state it stepped; the note
			// follows the attempt (dt=0: the world died before choosing).
			events.Notef("note", "segment start=%d steps=%d attempt=%d dt=%.6g", segStart, n, attempt, dt)
			if err == nil {
				err = validate(o.into)
			}
			if err != nil {
				synced = false
				events.Notef("note", "segment start=%d attempt=%d failed: %v", segStart, attempt, err)
			}
			if err == nil {
				cw := drv.Begin(obs.SpanCkptWrite)
				werr := sink.write(o.into, commitMeta("segment"))
				cw.End()
				if werr != nil {
					// Checkpoint-write failures abort immediately — never
					// into the dt-backoff retry ladder. In particular a
					// full disk surfaces as the typed *store.DiskFullError.
					// state, hence Final, stays at the last commit.
					return res, werr
				}
				state, spare, synced = o.into, state, true
				res.Diags = append(res.Diags, diag)
				res.DTs = append(res.DTs, dt)
				commitEnds = append(commitEnds, state.Step)
				if err := sink.prune(cfg.Keep); err != nil {
					return res, err
				}
				plane.Commit(state.Step)
				// Save the committed attempt's profiles next to its
				// checkpoint. Best-effort: a campaign never fails over a
				// lost profile.
				if plane.ProfileSegments() {
					var arts []Artifact
					if len(cpuProfile) > 0 {
						arts = append(arts, Artifact{
							Name: fmt.Sprintf("profile-cpu-%09d.pb.gz", state.Step),
							Role: "profile.cpu", Data: cpuProfile,
						})
					}
					if heap := telemetry.HeapProfile(); len(heap) > 0 {
						arts = append(arts, Artifact{
							Name: fmt.Sprintf("profile-heap-%09d.pb.gz", state.Step),
							Role: "profile.heap", Data: heap,
						})
					}
					if err := sink.artifacts(state.Step, "profiles", arts); err != nil {
						events.Notef("note", "profile commit at step %d failed: %v", state.Step, err)
					}
				}
				committed = true
				break
			}
			if errors.Is(err, ErrBlowUp) {
				blowUps++
			}
			lastErr = err
		}
		if rewound {
			continue
		}
		if !committed {
			// Latch the final alert state before the failure account is
			// written, so the post-mortem's timeline carries the
			// telemetry.alert events that saw the campaign die.
			plane.Evaluate()
			pm := sink.postmortem(postmortemText(segStart, cfg.MaxRetries+1, lastErr, res, events))
			return res, fmt.Errorf("resilience: segment at step %d failed after %d attempts (post-mortem: %s): %w",
				segStart, cfg.MaxRetries+1, pm, lastErr)
		}
		res.FinalStep = state.Step
	}
	plane.Finish(res.FinalStep)
	return res, nil
}

// validate decides whether a gathered segment result is committable:
// a non-finite value anywhere in the slabs is a blow-up.
func validate(in *snapshot.Interior) error {
	if err := in.CheckFinite(); err != nil {
		return fmt.Errorf("%w: %v", ErrBlowUp, err)
	}
	return nil
}
