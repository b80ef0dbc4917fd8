package chaos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/resilience"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Verdict classifies one scenario execution.
type Verdict string

const (
	// OK: the run completed and (for message-fault scenarios) matched
	// the fault-free golden checkpoint byte for byte.
	OK Verdict = "ok"
	// CleanAbort: the run terminated with a diagnosable error — liveness
	// holds, safety is vacuous (nothing was committed).
	CleanAbort Verdict = "clean-abort"
	// Wedge: the scenario did not terminate within WedgeTimeout — a
	// liveness violation.
	Wedge Verdict = "wedge"
	// Mismatch: the run completed under message faults but its
	// checkpoint differs from the golden run — a safety violation.
	Mismatch Verdict = "mismatch"
	// CampaignFailed: a kill schedule did not converge through the
	// resilience campaign — a recoverability violation.
	CampaignFailed Verdict = "campaign-failed"
	// VerifyMiss: a store scenario's fired silent corruption escaped
	// store.Verify, or object/ref damage survived scrub plus
	// re-derivation — a durability violation (store arm only).
	VerifyMiss Verdict = "verify-miss"
)

// Violation reports whether the verdict breaks one of the four
// properties (liveness, safety, recoverability, durability).
func (v Verdict) Violation() bool {
	return v == Wedge || v == Mismatch || v == CampaignFailed || v == VerifyMiss
}

// Outcome is the result of executing one scenario.
type Outcome struct {
	Scenario Scenario
	Verdict  Verdict
	// Detail carries the error or mismatch diagnostic, with the run's
	// event timeline appended on violations.
	Detail  string
	Elapsed time.Duration
}

// Runner executes scenarios against one solver configuration, caching
// the fault-free golden checkpoint hash the safety property compares
// against.
type Runner struct {
	cfg Config

	goldenOnce sync.Once
	golden     [32]byte
	goldenErr  error
}

// NewRunner returns a runner for the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults()}
}

func (r *Runner) coreConfig() core.Config {
	return core.Config{Nr: gridNr, Nt: gridNt}
}

// Golden returns the fault-free checkpoint hash for the runner's
// configuration, computing it on first use.
func (r *Runner) Golden() ([32]byte, error) {
	r.goldenOnce.Do(func() {
		var buf bytes.Buffer
		_, err := core.RunParallelCheckpointWith(r.coreConfig(), mpi.RunConfig{Deadline: runDeadline},
			worldSize, r.cfg.Steps, runDT, &buf)
		if err != nil {
			r.goldenErr = fmt.Errorf("chaos: golden run failed: %w", err)
			return
		}
		r.golden = sha256.Sum256(buf.Bytes())
	})
	return r.golden, r.goldenErr
}

// RunSeed generates and executes the scenario for one seed.
func (r *Runner) RunSeed(seed uint64) Outcome {
	return r.Run(GenScenario(seed, r.cfg))
}

// Run executes one scenario under the liveness guard: if the run has
// not terminated within WedgeTimeout the scenario is declared a wedge
// without waiting any longer (the stuck goroutines are abandoned —
// the caller is expected to treat a wedge as fatal).
func (r *Runner) Run(sc Scenario) Outcome {
	start := time.Now()
	done := make(chan Outcome, 1)
	go func() { done <- r.execute(sc) }()
	select {
	case o := <-done:
		o.Elapsed = time.Since(start)
		return o
	case <-time.After(r.cfg.WedgeTimeout):
		return Outcome{
			Scenario: sc,
			Verdict:  Wedge,
			Detail:   fmt.Sprintf("no termination within %v", r.cfg.WedgeTimeout),
			Elapsed:  time.Since(start),
		}
	}
}

// execute runs the scenario to a verdict: kill schedules go through a
// resilience campaign (recoverability), pure message-fault schedules
// through a direct solver run whose checkpoint must match the golden
// hash (safety).
func (r *Runner) execute(sc Scenario) Outcome {
	plan, err := sc.plan()
	if err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: err.Error()}
	}
	if len(sc.Kills) > 0 {
		return r.executeCampaign(sc, plan)
	}
	events := mpi.NewEventLog()
	cc := r.coreConfig()
	if r.cfg.Telemetry != nil {
		r.cfg.Telemetry.Attach(telemetry.Campaign{Run: "chaos", TotalSteps: r.cfg.Steps, Events: events})
		cc.Telemetry = r.cfg.Telemetry
	}

	var buf bytes.Buffer
	_, err = core.RunParallelCheckpointWith(cc, mpi.RunConfig{
		Deadline:    runDeadline,
		Faults:      plan,
		Reliability: &mpi.Reliability{AckTimeout: ackTimeout},
		Events:      events,
	}, worldSize, r.cfg.Steps, runDT, &buf)
	r.cfg.Telemetry.Evaluate()
	if err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: err.Error()}
	}
	want, err := r.Golden()
	if err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: err.Error()}
	}
	if got := sha256.Sum256(buf.Bytes()); got != want {
		r.saveArtifacts(sc, "", events.Events())
		return Outcome{
			Scenario: sc,
			Verdict:  Mismatch,
			Detail:   fmt.Sprintf("checkpoint %x differs from golden %x\ntimeline:\n%s", got, want, events),
		}
	}
	return Outcome{Scenario: sc, Verdict: OK}
}

// executeCampaign checks recoverability: the killed (and possibly also
// message-faulted) run must converge through the resilience campaign —
// by checkpointed rollback, or, for Replace scenarios, by surgically
// respawning the dead rank — and the converged final state must be
// byte-identical to the fault-free golden run.
func (r *Runner) executeCampaign(sc Scenario, plan *mpi.FaultPlan) Outcome {
	dir, err := os.MkdirTemp("", "yychaos-*")
	if err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: fmt.Sprintf("campaign tempdir: %v", err)}
	}
	defer os.RemoveAll(dir)

	every := r.cfg.Steps / 2
	if every < 1 {
		every = 1
	}
	rcfg := resilience.Config{
		Core:            r.coreConfig(),
		NProcs:          worldSize,
		Steps:           r.cfg.Steps,
		CheckpointEvery: every,
		Dir:             dir,
		Deadline:        runDeadline,
		Faults:          plan,
		Reliability:     &mpi.Reliability{AckTimeout: ackTimeout},
		Heartbeat:       &mpi.Heartbeat{Interval: campaignHeartbeat},
		DTSchedule:      dtSchedule(r.cfg),
		Telemetry:       r.cfg.Telemetry,
	}
	if sc.Replace {
		rcfg.Replace = &mpi.Elastic{}
	}
	res, err := resilience.RunCampaign(rcfg)
	if err != nil {
		detail := fmt.Sprintf("campaign did not converge: %v", err)
		if res != nil {
			detail += timelineOf(res.Events)
			r.saveArtifacts(sc, dir, res.Events)
		}
		return Outcome{Scenario: sc, Verdict: CampaignFailed, Detail: detail}
	}
	// Safety holds for campaigns too: rollback and rank replacement both
	// must land on the exact bytes of the fault-free run (the dt
	// schedule pins every segment to the direct run's fixed step).
	want, err := r.Golden()
	if err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: err.Error()}
	}
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, res.Final); err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: fmt.Sprintf("hashing campaign final state: %v", err)}
	}
	if got := sha256.Sum256(buf.Bytes()); got != want {
		r.saveArtifacts(sc, dir, res.Events)
		return Outcome{
			Scenario: sc,
			Verdict:  Mismatch,
			Detail:   fmt.Sprintf("campaign final state %x differs from golden %x%s", got, want, timelineOf(res.Events)),
		}
	}
	return Outcome{Scenario: sc, Verdict: OK}
}

// timelineOf renders a campaign's event timeline for a violation
// report (empty input renders nothing).
func timelineOf(events []mpi.Event) string {
	if len(events) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\ntimeline:")
	for _, e := range events {
		b.WriteString("\n  ")
		b.WriteString(e.String())
	}
	return b.String()
}

// saveArtifacts collects a violating scenario's diagnostics under
// cfg.ArtifactDir: the campaign's postmortem.txt (if campaignDir holds
// one) and the event timeline, both prefixed with the scenario's name
// (or seed). Best effort — artifact trouble must never mask the
// verdict.
func (r *Runner) saveArtifacts(sc Scenario, campaignDir string, events []mpi.Event) {
	if r.cfg.ArtifactDir == "" {
		return
	}
	if err := os.MkdirAll(r.cfg.ArtifactDir, 0o755); err != nil {
		return
	}
	base := sc.Name
	if base == "" {
		base = fmt.Sprintf("seed-%d", sc.Seed)
	}
	if campaignDir != "" {
		if pm, err := os.ReadFile(filepath.Join(campaignDir, "postmortem.txt")); err == nil {
			_ = store.WriteFileAtomic(filepath.Join(r.cfg.ArtifactDir, base+"-postmortem.txt"), pm, 0o644)
		}
	}
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	_ = store.WriteFileAtomic(filepath.Join(r.cfg.ArtifactDir, base+"-timeline.txt"), []byte(b.String()), 0o644)
}

// dtSchedule fixes every segment's time step to the configured DT so
// campaign runs and direct runs advance identically.
func dtSchedule(cfg Config) []float64 {
	n := cfg.Steps + 1
	s := make([]float64, n)
	for i := range s {
		s[i] = runDT
	}
	return s
}
