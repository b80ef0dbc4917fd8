package chaos

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// storeOpSpace is the number of backend writes a fault-free campaign
// issues: each commit (origin plus one per segment) writes a blob, a
// ref, a ledger entry, and the chain anchor.
func storeOpSpace(cfg Config) int {
	every := cfg.Steps / 2
	if every < 1 {
		every = 1
	}
	commits := 1 + (cfg.Steps+every-1)/every
	return commits * 4
}

// GenStoreScenario derives a store scenario for TestStoreChaosSmoke's
// seeded sweep purely from seed: usually
// one fault (occasionally two — the second may land after a crash
// aborts the run and never fire; absence is part of the space too)
// placed anywhere in the campaign's write sequence, with one seed in
// eight drawing a persistently full disk instead. Its draw sequence is
// frozen the same way GenScenario's is: committed corpus entries and
// failure reports must replay forever.
func GenStoreScenario(seed uint64, cfg Config) StoreScenario {
	cfg = cfg.withDefaults()
	g := &rng{s: seed}
	sc := StoreScenario{Seed: seed}
	if g.intn(8) == 0 {
		sc.Faults = append(sc.Faults, StoreFaultSpec{Op: -1, Kind: string(store.FaultENOSPC)})
		return sc
	}
	kinds := []store.FaultKind{store.FaultTornWrite, store.FaultBitFlip, store.FaultENOSPC,
		store.FaultCrashBeforeRename, store.FaultCrashAfterRename}
	ops := storeOpSpace(cfg)
	n := 1 + g.intn(2)
	for i := 0; i < n; i++ {
		f := StoreFaultSpec{Op: g.intn(ops), Kind: string(kinds[g.intn(len(kinds))])}
		if f.Kind == string(store.FaultTornWrite) || f.Kind == string(store.FaultBitFlip) {
			f.Byte = 1 + g.intn(64)
		}
		sc.Faults = append(sc.Faults, f)
	}
	return sc
}

// TestGenStoreScenarioDeterministic: store scenario generation is a
// pure function of the seed, independent of the message-fault
// generator's draw stream.
func TestGenStoreScenarioDeterministic(t *testing.T) {
	cfg := Config{}
	for _, seed := range []uint64{0, 1, 42, 1 << 40} {
		a := GenStoreScenario(seed, cfg)
		b := GenStoreScenario(seed, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %v vs %v", seed, a, b)
		}
		if len(a.Faults) == 0 {
			t.Fatalf("seed %d generated no faults", seed)
		}
	}
	if reflect.DeepEqual(GenStoreScenario(1, cfg), GenStoreScenario(2, cfg)) {
		t.Fatal("distinct seeds generated identical store scenarios")
	}
}

// TestGenStoreScenarioCoversKinds: over a modest seed range the
// generator draws every fault kind, including the persistent-ENOSPC
// arm.
func TestGenStoreScenarioCoversKinds(t *testing.T) {
	cfg := Config{}
	seen := map[string]bool{}
	persistent := 0
	for seed := uint64(0); seed < 200; seed++ {
		sc := GenStoreScenario(seed, cfg)
		for _, f := range sc.Faults {
			seen[f.Kind] = true
			if f.Op == -1 {
				persistent++
			}
		}
	}
	for _, kind := range []store.FaultKind{store.FaultTornWrite, store.FaultBitFlip,
		store.FaultENOSPC, store.FaultCrashBeforeRename, store.FaultCrashAfterRename} {
		if !seen[string(kind)] {
			t.Fatalf("200 seeds never drew %s", kind)
		}
	}
	if persistent == 0 {
		t.Fatal("200 seeds never drew a persistent full disk")
	}
}

// TestStoreCorpusReplay replays the committed store regression corpus:
// torn writes, bit rot on every artifact class (blob, ref, interior
// and tail ledger entries), a persistently full disk, and both crash
// points around the rename — each must come back to its recorded
// verdict through detect → scrub → re-derive.
func TestStoreCorpusReplay(t *testing.T) {
	entries, err := LoadStoreCorpus("testdata/corpus_store.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty store corpus")
	}
	r := NewRunner(Config{})
	for _, e := range entries {
		e := e
		t.Run(e.Scenario.Name, func(t *testing.T) {
			o := r.RunStore(e.Scenario)
			if o.Verdict != e.Want {
				t.Fatalf("verdict %s, want %s\nscenario: %s\n%s", o.Verdict, e.Want, e.Scenario, o.Detail)
			}
		})
	}
}

// TestStoreChaosSmoke is the seeded sweep over the storage fault
// space: zero durability violations tolerated.
func TestStoreChaosSmoke(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	r := NewRunner(Config{})
	for seed := 0; seed < seeds; seed++ {
		sc := GenStoreScenario(uint64(seed), Config{})
		if o := r.RunStore(sc); o.Verdict.Violation() {
			t.Fatalf("seed %d: %s\nscenario: %s\n%s", seed, o.Verdict, sc, o.Detail)
		}
	}
}

// TestStoreWedgeGuard: the store arm sits under the same outer
// liveness bound as the message arm.
func TestStoreWedgeGuard(t *testing.T) {
	r := NewRunner(Config{WedgeTimeout: time.Millisecond})
	o := r.RunStore(StoreScenario{Name: "any", Faults: []StoreFaultSpec{{Op: 0, Kind: "bit-flip", Byte: 1}}})
	if o.Verdict != Wedge {
		t.Fatalf("verdict %s, want wedge (a 1ms bound cannot fit a campaign)", o.Verdict)
	}
}

// TestStoreArtifactCollection: a violating store scenario leaves its
// verify and scrub reports under ArtifactDir for CI to upload.
func TestStoreArtifactCollection(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Config{ArtifactDir: dir})
	rep := &store.VerifyReport{Findings: []store.Finding{
		{Kind: store.FindingCorruptObject, Name: "deadbeef", Severe: true, Detail: "synthetic"},
	}}
	scrub := &store.ScrubReport{Verify: rep}
	r.saveStoreArtifacts(StoreScenario{Name: "broken-store"}, rep, scrub)
	v, err := os.ReadFile(filepath.Join(dir, "broken-store-store-verify.txt"))
	if err != nil {
		t.Fatalf("verify artifact not written: %v", err)
	}
	if !strings.Contains(string(v), "deadbeef") {
		t.Errorf("verify artifact holds %q", v)
	}
	if _, err := os.ReadFile(filepath.Join(dir, "broken-store-store-scrub.txt")); err != nil {
		t.Fatalf("scrub artifact not written: %v", err)
	}
	// Unnamed scenarios fall back to their seed.
	r.saveStoreArtifacts(StoreScenario{Seed: 17}, rep, nil)
	if _, err := os.Stat(filepath.Join(dir, "seed-17-store-verify.txt")); err != nil {
		t.Errorf("seed-named verify artifact not written: %v", err)
	}
}

// TestStoreUntypedErrorIsViolation: an error that is not a typed
// storage failure must be flagged, not excused — the unknown-fault
// scenario compiles to a plan error and a clean abort, while a wedged
// diagnosis path would be CampaignFailed.
func TestStoreUntypedErrorIsViolation(t *testing.T) {
	r := NewRunner(Config{})
	o := r.RunStore(StoreScenario{Faults: []StoreFaultSpec{{Op: 0, Kind: "meteor-strike"}}})
	if o.Verdict != CleanAbort {
		t.Fatalf("unknown kind verdict %s, want clean-abort", o.Verdict)
	}
	if !strings.Contains(o.Detail, "meteor-strike") {
		t.Fatalf("detail %q does not name the bad kind", o.Detail)
	}
}
