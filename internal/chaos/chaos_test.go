package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/resilience"
)

// TestGenScenarioDeterministic: scenario generation is a pure function
// of the seed — the corpus and any failure report replay exactly.
func TestGenScenarioDeterministic(t *testing.T) {
	cfg := Config{}
	for _, seed := range []uint64{0, 1, 42, 1 << 40} {
		a := GenScenario(seed, cfg)
		b := GenScenario(seed, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %v vs %v", seed, a, b)
		}
	}
	if reflect.DeepEqual(GenScenario(1, cfg), GenScenario(2, cfg)) {
		t.Fatal("distinct seeds generated identical scenarios")
	}
}

// TestChaosSmoke is the in-test fuzz pass: a batch of seeded scenarios
// over full solver runs, all three properties checked, zero violations
// tolerated.
func TestChaosSmoke(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	r := NewRunner(Config{})
	for seed := 0; seed < seeds; seed++ {
		o := r.RunSeed(uint64(seed))
		if o.Verdict.Violation() {
			t.Fatalf("seed %d: %s\nscenario: %s\n%s", seed, o.Verdict, o.Scenario, o.Detail)
		}
	}
}

// TestCorpusReplay replays the committed regression corpora — the
// message-fault/rollback corpus and the rank-replacement corpus: every
// entry must reproduce its recorded verdict, deterministically.
func TestCorpusReplay(t *testing.T) {
	var entries []CorpusEntry
	for _, path := range []string{"testdata/corpus.json", "testdata/corpus_replace.json"} {
		part, err := LoadCorpus(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(part) == 0 {
			t.Fatalf("empty corpus %s", path)
		}
		entries = append(entries, part...)
	}
	r := NewRunner(Config{})
	for _, e := range entries {
		e := e
		t.Run(e.Scenario.Name, func(t *testing.T) {
			o := r.Run(e.Scenario)
			if o.Verdict != e.Want {
				t.Fatalf("verdict %s, want %s\nscenario: %s\n%s", o.Verdict, e.Want, o.Scenario, o.Detail)
			}
		})
	}
}

// TestMinimize: greedy delta debugging strips every fault and kill the
// failure predicate does not depend on.
func TestMinimize(t *testing.T) {
	sc := GenScenario(7, Config{})
	sc.Faults = append(sc.Faults, FaultSpec{Comm: 0, Src: 0, Dst: 1, Tag: 77, Epoch: 3, Action: "drop"})
	sc.Kills = append(sc.Kills, KillSpec{Rank: 1, Step: 4}, KillSpec{Rank: 0, Step: 2, Silent: true})

	// Synthetic failure: reproduces iff the tag-77 drop and the silent
	// kill are both present.
	bad := func(s Scenario) bool {
		var f, k bool
		for _, x := range s.Faults {
			if x.Tag == 77 {
				f = true
			}
		}
		for _, x := range s.Kills {
			if x.Silent {
				k = true
			}
		}
		return f && k
	}
	if !bad(sc) {
		t.Fatal("precondition: scenario must fail")
	}
	min := Minimize(sc, bad)
	if len(min.Faults) != 1 || len(min.Kills) != 1 {
		t.Fatalf("minimized to %d faults, %d kills; want 1+1: %s", len(min.Faults), len(min.Kills), min)
	}
	if min.Faults[0].Tag != 77 || !min.Kills[0].Silent {
		t.Fatalf("minimizer kept the wrong schedule: %s", min)
	}
}

// TestGenScenarioReplaceArm: the generator exercises both recovery
// arms — some kill schedules carry Replace, some do not, and Replace
// never appears without a kill.
func TestGenScenarioReplaceArm(t *testing.T) {
	cfg := Config{}
	var withReplace, withoutReplace int
	for seed := uint64(0); seed < 200; seed++ {
		sc := GenScenario(seed, cfg)
		if sc.Replace && len(sc.Kills) == 0 {
			t.Fatalf("seed %d: replace set on a kill-free scenario: %s", seed, sc)
		}
		if len(sc.Kills) > 0 {
			if sc.Replace {
				withReplace++
			} else {
				withoutReplace++
			}
		}
	}
	if withReplace == 0 || withoutReplace == 0 {
		t.Fatalf("200 seeds split %d replace / %d rollback kill schedules; want both arms covered", withReplace, withoutReplace)
	}
}

// TestArtifactCollection: a violating campaign scenario leaves its
// post-mortem and event timeline under ArtifactDir, named after the
// scenario, so CI has something to upload when a chaos stage goes red.
func TestArtifactCollection(t *testing.T) {
	dir := t.TempDir()
	campaignDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(campaignDir, "postmortem.txt"), []byte("campaign post-mortem\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Config{ArtifactDir: dir})
	log := mpi.NewEventLog()
	log.Notef("note", "synthetic timeline entry")
	r.saveArtifacts(Scenario{Name: "broken-scenario"}, campaignDir, log.Events())
	pm, err := os.ReadFile(filepath.Join(dir, "broken-scenario-postmortem.txt"))
	if err != nil {
		t.Fatalf("post-mortem artifact not written: %v", err)
	}
	if !strings.Contains(string(pm), "campaign post-mortem") {
		t.Errorf("post-mortem artifact holds %q", pm)
	}
	tl, err := os.ReadFile(filepath.Join(dir, "broken-scenario-timeline.txt"))
	if err != nil {
		t.Fatalf("timeline artifact not written: %v", err)
	}
	if !strings.Contains(string(tl), "synthetic timeline entry") {
		t.Errorf("timeline artifact holds %q", tl)
	}
	// Unnamed scenarios fall back to their seed.
	r.saveArtifacts(Scenario{Seed: 41}, "", nil)
	if _, err := os.Stat(filepath.Join(dir, "seed-41-timeline.txt")); err != nil {
		t.Errorf("seed-named timeline artifact not written: %v", err)
	}
}

// TestWedgeGuard: the outer liveness guard classifies a run that
// outlives WedgeTimeout as a wedge instead of blocking the harness.
func TestWedgeGuard(t *testing.T) {
	r := NewRunner(Config{WedgeTimeout: time.Millisecond})
	o := r.Run(Scenario{Name: "any"})
	if o.Verdict != Wedge {
		t.Fatalf("verdict %s, want wedge (a 1ms bound cannot fit a solver run)", o.Verdict)
	}
}

// TestMessageFaultRecoveryIsCleanAbort: a message-fault campaign that
// needed a rollback is a clean abort naming the failed attempt's
// cause, even though the rollback landed it on the golden bytes: a
// recovery must not pass for a transport that absorbed its faults. A
// kill scenario's rollback is its recoverability, and passes.
func TestMessageFaultRecoveryIsCleanAbort(t *testing.T) {
	r := NewRunner(Config{})
	golden, err := r.Golden()
	if err != nil {
		t.Fatal(err)
	}
	res := &resilience.Result{Recoveries: []resilience.RecoveryDecision{{
		Mode: resilience.RecoverRollback, Cause: "mpi: retransmit budget exhausted",
	}}}
	drop := Scenario{Faults: []FaultSpec{{Comm: 0, Src: 0, Dst: 1, Tag: 100, Action: "drop"}}}
	o := r.judge(drop, "", res, golden, nil)
	if o.Verdict != CleanAbort || !strings.Contains(o.Detail, "rollback (mpi: retransmit budget exhausted)") {
		t.Errorf("message-fault rollback: verdict %s (%s), want %s with the cause", o.Verdict, o.Detail, CleanAbort)
	}
	kill := Scenario{Kills: []KillSpec{{Rank: 1, Step: 2}}}
	if o := r.judge(kill, "", res, golden, nil); o.Verdict != OK {
		t.Errorf("kill rollback onto the golden bytes: verdict %s (%s), want %s", o.Verdict, o.Detail, OK)
	}
}
