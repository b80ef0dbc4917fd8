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
)

// Verdict classifies one scenario execution.
type Verdict string

const (
	// OK: the run completed and matched the fault-free golden
	// checkpoint byte for byte.
	OK Verdict = "ok"
	// CleanAbort: the run terminated with a diagnosable error, or a
	// message-fault run needed a recovery — liveness holds, safety is
	// vacuous (the transport did not carry the run alone).
	CleanAbort Verdict = "clean-abort"
	// Wedge: the scenario did not terminate within WedgeTimeout — a
	// liveness violation.
	Wedge Verdict = "wedge"
	// Mismatch: the run completed but its checkpoint differs from the
	// golden run — a safety violation.
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

// Golden returns the fault-free checkpoint hash for the runner's
// configuration, computing it on first use: one segment of a campaign
// with no faults, the reference every other run must land on.
func (r *Runner) Golden() ([32]byte, error) {
	r.goldenOnce.Do(func() {
		if _, r.golden, r.goldenErr = finalHash(r.config(Scenario{}, nil)); r.goldenErr != nil {
			r.goldenErr = fmt.Errorf("chaos: golden run failed: %w", r.goldenErr)
		}
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

// config is the campaign a scenario runs, at the fixed dt of every
// segment. The golden (a nil plan) is one fault-free segment committed
// in memory. A fault plan adds the reliable transport and the
// telemetry plane. A kill schedule then cuts the run into two segments
// to roll back between and adds the heartbeat for silent deaths and,
// for Replace scenarios, rank replacement; execute gives it a checkpoint
// directory for its post-mortem.
func (r *Runner) config(sc Scenario, plan *mpi.FaultPlan) resilience.Config {
	dts := make([]float64, r.cfg.Steps+1) // more than any segment count
	for i := range dts {
		dts[i] = runDT
	}
	cfg := resilience.Config{
		Core:            core.Config{Nr: gridNr, Nt: gridNt},
		NProcs:          worldSize,
		Steps:           r.cfg.Steps,
		CheckpointEvery: r.cfg.Steps,
		Deadline:        runDeadline,
		DTSchedule:      dts,
	}
	if plan == nil {
		return cfg
	}
	cfg.Faults, cfg.Reliability, cfg.Telemetry = plan, &mpi.Reliability{AckTimeout: ackTimeout}, r.cfg.Telemetry
	if len(sc.Kills) > 0 {
		cfg.CheckpointEvery = max(r.cfg.Steps/2, 1)
		cfg.Heartbeat = &mpi.Heartbeat{Interval: campaignHeartbeat}
		if sc.Replace {
			cfg.Replace = &mpi.Elastic{}
		}
	}
	return cfg
}

// finalHash runs a campaign and hashes its final state's checkpoint.
func finalHash(cfg resilience.Config) (*resilience.Result, [32]byte, error) {
	res, err := resilience.RunCampaign(cfg)
	if err != nil {
		return res, [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, res.Final); err != nil {
		return res, [32]byte{}, fmt.Errorf("hashing campaign final state: %w", err)
	}
	return res, sha256.Sum256(buf.Bytes()), nil
}

// execute runs the scenario's campaign to a verdict. Every campaign
// must land on the golden bytes (safety). A kill schedule must converge
// — by checkpointed rollback or, for Replace scenarios, by respawning
// the dead rank (recoverability). A message-fault schedule must need
// no recovery at all: the transport absorbs its faults in flight, and a
// campaign that had to retry is a clean abort, however it ended.
func (r *Runner) execute(sc Scenario) Outcome {
	plan, err := sc.plan()
	if err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: err.Error()}
	}
	cfg := r.config(sc, plan)
	if len(sc.Kills) > 0 {
		if cfg.Dir, err = os.MkdirTemp("", "yychaos-*"); err != nil {
			return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: fmt.Sprintf("campaign tempdir: %v", err)}
		}
		defer os.RemoveAll(cfg.Dir)
	}
	res, got, err := finalHash(cfg)
	return r.judge(sc, cfg.Dir, res, got, err)
}

// judge turns a scenario's campaign result into its verdict; dir is
// the campaign's checkpoint directory ("" in memory).
func (r *Runner) judge(sc Scenario, dir string, res *resilience.Result, got [32]byte, err error) Outcome {
	kills := len(sc.Kills) > 0
	switch {
	case err != nil && kills:
		detail := fmt.Sprintf("campaign did not converge: %v", err)
		if res != nil {
			detail += timelineOf(res.Events)
			r.saveArtifacts(sc, dir, res.Events)
		}
		return Outcome{Scenario: sc, Verdict: CampaignFailed, Detail: detail}
	case err != nil:
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: err.Error()}
	case !kills && len(res.Recoveries) > 0:
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: fmt.Sprintf("message faults cost a recovery: %s", res.Recoveries[0])}
	}
	want, err := r.Golden()
	if err != nil {
		return Outcome{Scenario: sc, Verdict: CleanAbort, Detail: err.Error()}
	}
	if got != want {
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
