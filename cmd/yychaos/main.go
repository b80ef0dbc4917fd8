// Command yychaos drives the seeded chaos fuzzer over full decomposed
// solver runs: randomized drop/delay/duplicate/kill schedules, with
// liveness, safety (golden-checkpoint byte-identity) and recoverability
// checked per scenario. Exit status 0 means every scenario passed
// (success or clean abort), 1 means at least one property violation,
// 2 means the harness itself failed.
//
// Usage:
//
//	yychaos [-seeds 25] [-steps 5] [-artifacts dir] [-v]
//	yychaos -corpus internal/chaos/testdata/corpus.json
//	yychaos -corpus internal/chaos/testdata/corpus_replace.json
//	yychaos -store-corpus internal/chaos/testdata/corpus_store.json
//
// Every run is two ranks on a 9 x 13 grid. The second corpus replays
// the rank-replacement regression scenarios (kill → heartbeat confirm →
// surgical respawn). The -store-corpus mode drives the storage arm
// instead: filesystem faults (torn writes, bit rot, ENOSPC, crash
// points) against the durable run ledger, with the detect → scrub →
// re-derive pipeline checked per scenario; its seeded sweep is
// internal/chaos's TestStoreChaosSmoke. With -artifacts set, any violating campaign
// leaves its postmortem.txt and event timeline — or, for the store
// arm, its verify and scrub reports — in that directory for CI to
// upload.
//
// A violating seed is minimized to a locally minimal reproducer and
// printed as a ready-to-commit corpus entry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
)

func main() {
	var (
		seeds       = flag.Int("seeds", 25, "number of seeded scenarios to run")
		steps       = flag.Int("steps", 5, "solver steps per scenario")
		corpus      = flag.String("corpus", "", "replay a committed corpus file instead of fuzzing seeds")
		storeCorpus = flag.String("store-corpus", "", "replay a committed store-fault corpus file")
		artifacts   = flag.String("artifacts", "", "directory collecting postmortem + event-timeline artifacts of violating scenarios")
		verbose     = flag.Bool("v", false, "print one line per scenario")
	)
	flag.Parse()

	r := chaos.NewRunner(chaos.Config{Steps: *steps, ArtifactDir: *artifacts})
	switch {
	case *storeCorpus != "":
		os.Exit(replayStore(r, *storeCorpus, *verbose))
	case *corpus != "":
		os.Exit(replay(r, *corpus, *verbose))
	}
	os.Exit(fuzz(r, *seeds, *verbose))
}

// fuzz runs seeds 0..seeds-1 and reports the first violation, minimized.
func fuzz(r *chaos.Runner, seeds int, verbose bool) int {
	start := time.Now()
	counts := map[chaos.Verdict]int{}
	for i := 0; i < seeds; i++ {
		seed := uint64(i)
		o := r.RunSeed(seed)
		counts[o.Verdict]++
		if verbose {
			fmt.Printf("seed %-6d %-15s %8s  %s\n", seed, o.Verdict, o.Elapsed.Round(time.Millisecond), o.Scenario)
		}
		if o.Verdict.Violation() {
			fmt.Printf("yychaos: VIOLATION at seed %d: %s\nscenario: %s\n%s\n", seed, o.Verdict, o.Scenario, o.Detail)
			minimize(r, o)
			return 1
		}
	}
	fmt.Printf("yychaos: %d scenarios, %d ok, %d clean-abort, 0 violations (%s)\n",
		seeds, counts[chaos.OK], counts[chaos.CleanAbort], time.Since(start).Round(time.Millisecond))
	return 0
}

// replay re-executes a committed corpus and demands recorded verdicts.
func replay(r *chaos.Runner, path string, verbose bool) int {
	entries, err := chaos.LoadCorpus(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yychaos: %v\n", err)
		return 2
	}
	bad := 0
	for _, e := range entries {
		o := r.Run(e.Scenario)
		if verbose || o.Verdict != e.Want {
			fmt.Printf("%-32s %-15s want %s\n", e.Scenario.Name, o.Verdict, e.Want)
		}
		if o.Verdict != e.Want {
			fmt.Printf("yychaos: corpus entry %q: verdict %s, want %s\n%s\n", e.Scenario.Name, o.Verdict, e.Want, o.Detail)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("yychaos: %d/%d corpus entries failed\n", bad, len(entries))
		return 1
	}
	fmt.Printf("yychaos: corpus ok (%d entries)\n", len(entries))
	return 0
}

// replayStore re-executes a committed store corpus and demands
// recorded verdicts.
func replayStore(r *chaos.Runner, path string, verbose bool) int {
	entries, err := chaos.LoadStoreCorpus(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "yychaos: %v\n", err)
		return 2
	}
	bad := 0
	for _, e := range entries {
		o := r.RunStore(e.Scenario)
		if verbose || o.Verdict != e.Want {
			fmt.Printf("%-32s %-15s want %s\n", e.Scenario.Name, o.Verdict, e.Want)
		}
		if o.Verdict != e.Want {
			fmt.Printf("yychaos: store corpus entry %q (%s): verdict %s, want %s\n%s\n", e.Scenario.Name, e.Note, o.Verdict, e.Want, o.Detail)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("yychaos: %d/%d store corpus entries failed\n", bad, len(entries))
		return 1
	}
	fmt.Printf("yychaos: store corpus ok (%d entries)\n", len(entries))
	return 0
}

// minimize shrinks a violating scenario and prints it as a corpus
// entry (want set to the verdict a fixed transport should produce).
func minimize(r *chaos.Runner, o chaos.Outcome) {
	fmt.Println("yychaos: minimizing...")
	min := chaos.Minimize(o.Scenario, func(s chaos.Scenario) bool {
		return r.Run(s).Verdict == o.Verdict
	})
	min.Name = fmt.Sprintf("seed-%d-minimized", o.Scenario.Seed)
	entry := chaos.CorpusEntry{Scenario: min, Want: chaos.OK, Note: fmt.Sprintf("minimized from seed %d (%s)", o.Scenario.Seed, o.Verdict)}
	data, err := json.MarshalIndent([]chaos.CorpusEntry{entry}, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "yychaos: marshaling minimized scenario: %v\n", err)
		return
	}
	fmt.Printf("minimal reproducer (commit to internal/chaos/testdata/corpus.json once fixed):\n%s\n", data)
}
