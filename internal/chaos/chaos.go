// Package chaos is a seeded randomized fault-space fuzzer for the
// self-healing runtime: it generates drop/delay/duplicate/kill
// schedules over full multi-step decomposed solver runs and checks
// three properties per scenario —
//
//   - liveness: every run terminates, in success or a clean diagnosable
//     abort, never a wedge;
//   - safety: a run that completes under message faults produces a
//     checkpoint byte-identical to the fault-free golden run;
//   - recoverability: kill schedules converge through a
//     resilience.RunCampaign rollback.
//
// Scenarios are pure functions of their seed, so any failure replays
// exactly; failing scenarios minimize (Minimize) to a smallest
// reproducer for the committed regression corpus in testdata/, which
// go test replays deterministically.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/decomp"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Config sizes the solver runs the fuzzer drives. Zero values select
// defaults small enough for a CI smoke stage.
type Config struct {
	// NProcs is the world size (default 2; 4 adds intra-panel halo
	// traffic to the fault space).
	NProcs int
	// Steps per run (default 5).
	Steps int
	// Nr, Nt size the grid (defaults 9, 13).
	Nr, Nt int
	// WedgeTimeout is the outer liveness bound: a scenario that has not
	// terminated by then is declared a wedge (default 60s — it must
	// comfortably exceed runDeadline, which is itself a clean
	// termination).
	//yyvet:ignore knob TestWedgeGuard and TestStoreWedgeGuard force a wedge verdict with a 1ms bound
	WedgeTimeout time.Duration
	// ArtifactDir, when set, collects diagnostics for every violating
	// scenario: the failed campaign's postmortem.txt and the run's event
	// timeline, named after the scenario — what a CI job uploads when a
	// chaos stage goes red. Empty disables collection.
	ArtifactDir string
	// Telemetry, when non-nil, is a live telemetry plane attached to
	// every scenario run: ranks publish step snapshots into it and its
	// anomaly engine consumes the run's event timeline, so the scripted
	// faults must surface as latched telemetry alerts. Pure
	// observability — the verdict logic never reads the plane.
	//yyvet:ignore knob TestChaosDropRaisesRetransmitAlert and TestChaosSilentKillRaisesRankDeadAlert attach a plane
	Telemetry *telemetry.Plane
}

// The fixed parts of every scenario run.
const (
	// runDT is the fixed time step — fixed so the golden checkpoint is
	// one hash, not a per-scenario estimate.
	runDT = 2e-3
	// ackTimeout is the reliable transport's first-retransmit wait;
	// retries back off from there.
	ackTimeout = 2 * time.Millisecond
	// runDeadline is the in-run watchdog backstop.
	runDeadline = 20 * time.Second
	// maxFaults bounds the message faults per scenario.
	maxFaults = 6
)

func (c Config) withDefaults() Config {
	if c.NProcs <= 0 {
		c.NProcs = 2
	}
	if c.Steps <= 0 {
		c.Steps = 5
	}
	if c.Nr <= 0 {
		c.Nr = 9
	}
	if c.Nt <= 0 {
		c.Nt = 13
	}
	if c.WedgeTimeout <= 0 {
		c.WedgeTimeout = 60 * time.Second
	}
	return c
}

// rng is splitmix64: tiny, seedable, and stable across Go versions —
// scenario generation must be a pure function of the seed forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// FaultSpec is the JSON-stable mirror of one scripted message fault.
type FaultSpec struct {
	Comm    int    `json:"comm"`
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Tag     int    `json:"tag"`
	Epoch   int    `json:"epoch"`
	Action  string `json:"action"` // "drop", "delay" or "duplicate"
	DelayMS int    `json:"delay_ms,omitempty"`
}

func (f FaultSpec) String() string {
	s := fmt.Sprintf("%s comm=%d src=%d dst=%d tag=%d epoch=%d", f.Action, f.Comm, f.Src, f.Dst, f.Tag, f.Epoch)
	if f.Action == "delay" {
		s += fmt.Sprintf(" delay=%dms", f.DelayMS)
	}
	return s
}

// KillSpec is the JSON-stable mirror of one scripted rank kill.
type KillSpec struct {
	Rank   int  `json:"rank"`
	Step   int  `json:"step"`
	Silent bool `json:"silent,omitempty"`
}

func (k KillSpec) String() string {
	kind := "kill"
	if k.Silent {
		kind = "kill-silent"
	}
	return fmt.Sprintf("%s rank=%d step=%d", kind, k.Rank, k.Step)
}

// Scenario is one generated (or corpus-committed) fault schedule.
type Scenario struct {
	// Seed the scenario was generated from (0 for hand-written corpus
	// entries); informational — the schedule below is authoritative.
	Seed   uint64      `json:"seed"`
	Name   string      `json:"name,omitempty"` // corpus entries only
	Faults []FaultSpec `json:"faults,omitempty"`
	Kills  []KillSpec  `json:"kills,omitempty"`
	// Replace runs the kill schedule under elastic rank replacement:
	// confirmed-dead ranks are respawned from the segment checkpoint
	// instead of costing a whole-segment rollback. The verdict demands
	// the same liveness and golden byte-identity either way.
	Replace bool `json:"replace,omitempty"`
}

func (sc Scenario) String() string {
	s := fmt.Sprintf("seed=%d", sc.Seed)
	if sc.Name != "" {
		s = sc.Name + " " + s
	}
	for _, f := range sc.Faults {
		s += "; " + f.String()
	}
	for _, k := range sc.Kills {
		s += "; " + k.String()
	}
	if sc.Replace {
		s += "; replace"
	}
	return s
}

// plan compiles the scenario into a fresh (stateful) runtime fault
// plan; every attempt needs its own.
func (sc Scenario) plan() (*mpi.FaultPlan, error) {
	p := mpi.NewFaultPlan()
	for _, f := range sc.Faults {
		mf := mpi.Fault{Comm: f.Comm, Src: f.Src, Dst: f.Dst, Tag: f.Tag, Epoch: f.Epoch}
		switch f.Action {
		case "drop":
			mf.Action = mpi.Drop
		case "duplicate":
			mf.Action = mpi.Duplicate
		case "delay":
			mf.Action = mpi.Delay
			mf.Delay = time.Duration(f.DelayMS) * time.Millisecond
		default:
			return nil, fmt.Errorf("chaos: unknown fault action %q", f.Action)
		}
		p.Add(mf)
	}
	for _, k := range sc.Kills {
		if k.Silent {
			p.KillSilent(k.Rank, k.Step)
		} else {
			p.Kill(k.Rank, k.Step)
		}
	}
	return p, nil
}

// GenScenario derives a scenario purely from seed: 1..MaxFaults message
// faults across the solver's real exchange-tag space (world and both
// panel communicators), and, for a third of the seeds, one rank kill
// (noisy or silent) somewhere in the run. Epochs reach well past the
// traffic a short run generates, so some faults are deliberately inert
// — absence of a fault is part of the space too.
func GenScenario(seed uint64, cfg Config) Scenario {
	cfg = cfg.withDefaults()
	g := &rng{s: seed}
	sc := Scenario{Seed: seed}
	tags := decomp.ExchangeTags()
	nf := 1 + g.intn(maxFaults)
	for i := 0; i < nf; i++ {
		f := FaultSpec{
			Comm:  g.intn(3), // world or either panel's split comm
			Tag:   tags[g.intn(len(tags))],
			Epoch: g.intn(cfg.Steps * 20),
		}
		f.Src = g.intn(cfg.NProcs)
		f.Dst = g.intn(cfg.NProcs - 1)
		if f.Dst >= f.Src {
			f.Dst++ // distinct peers; the runtime rejects self-sends
		}
		switch g.intn(3) {
		case 0:
			f.Action = "drop"
		case 1:
			f.Action = "duplicate"
		default:
			f.Action = "delay"
			f.DelayMS = 1 + g.intn(25)
		}
		sc.Faults = append(sc.Faults, f)
	}
	if g.intn(3) == 0 {
		sc.Kills = append(sc.Kills, KillSpec{
			Rank:   g.intn(cfg.NProcs),
			Step:   1 + g.intn(cfg.Steps),
			Silent: g.intn(2) == 1,
		})
		// Half the kill schedules recover by surgical rank replacement,
		// the other half by the rollback ladder — both must converge to
		// the same bytes.
		sc.Replace = g.intn(2) == 1
	}
	return sc
}
