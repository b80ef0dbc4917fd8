package chaos

// The storage arm: seeded filesystem-fault scenarios against the
// durable run ledger (internal/store), the fourth chaos property next
// to liveness, safety, and recoverability —
//
//   - durability: any store fault a campaign write hits is either loud
//     (a typed *store.DiskFullError / *store.CrashError at write time)
//     or, if silent (bit rot), detected by store.Verify as a severe
//     finding; a scrub plus deterministic re-derivation then restores
//     the store to object-level health, and the recovered campaign
//     still lands byte-identical on the fault-free golden state.
//
// A store scenario runs in three phases. Phase A commits a campaign
// through a backend wired to the scenario's store.FaultPlan; every
// campaign error must be typed. Phase B lifts the faults, reopens the
// store cold, and demands that Verify surface every fired silent fault
// (verdict VerifyMiss otherwise); Scrub then repairs or quarantines.
// Phase C resumes the campaign to completion over whatever survived —
// the recovery ladder falling back through quarantined checkpoints —
// and, if ledger-pinned blobs are still missing, re-derives them with
// a fresh deterministic rerun. The final state must hash to the golden
// and the store must end object- and ref-clean; damaged ledger history
// is tolerated as permanent tamper evidence, never rewritten.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/resilience"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// StoreFaultSpec is the JSON-stable mirror of one scripted store fault.
type StoreFaultSpec struct {
	// Op is the backend write-op index the fault fires on (-1 fires on
	// every write: a persistently full disk).
	Op int `json:"op"`
	// Kind is the store.FaultKind name: "torn-write", "bit-flip",
	// "enospc", "crash-before-rename", "crash-after-rename".
	Kind string `json:"kind"`
	// Byte positions the damage for torn-write and bit-flip.
	Byte int `json:"byte,omitempty"`
}

func (f StoreFaultSpec) String() string {
	s := fmt.Sprintf("%s op=%d", f.Kind, f.Op)
	if f.Byte != 0 {
		s += fmt.Sprintf(" byte=%d", f.Byte)
	}
	return s
}

// StoreScenario is one generated (or corpus-committed) store fault
// schedule.
type StoreScenario struct {
	// Seed the scenario was generated from (0 for hand-written corpus
	// entries); informational — the schedule below is authoritative.
	Seed   uint64           `json:"seed"`
	Name   string           `json:"name,omitempty"` // corpus entries only
	Faults []StoreFaultSpec `json:"faults"`
}

func (sc StoreScenario) String() string {
	s := fmt.Sprintf("seed=%d", sc.Seed)
	if sc.Name != "" {
		s = sc.Name + " " + s
	}
	for _, f := range sc.Faults {
		s += "; " + f.String()
	}
	return s
}

// plan compiles the scenario into a fresh (stateful) store fault plan;
// every attempt needs its own.
func (sc StoreScenario) plan() (*store.FaultPlan, error) {
	var faults []store.Fault
	for _, f := range sc.Faults {
		switch store.FaultKind(f.Kind) {
		case store.FaultTornWrite, store.FaultBitFlip, store.FaultENOSPC,
			store.FaultCrashBeforeRename, store.FaultCrashAfterRename:
		default:
			return nil, fmt.Errorf("chaos: unknown store fault kind %q", f.Kind)
		}
		faults = append(faults, store.Fault{Op: f.Op, Kind: store.FaultKind(f.Kind), Byte: f.Byte})
	}
	return store.NewFaultPlan(faults), nil
}

// StoreOutcome is the result of executing one store scenario.
type StoreOutcome struct {
	Verdict Verdict
	// Detail carries the error or verification diagnostic on violations.
	Detail string
}

// RunStore executes one store scenario under the same liveness guard
// as Run: no termination within WedgeTimeout is a wedge.
func (r *Runner) RunStore(sc StoreScenario) StoreOutcome {
	done := make(chan StoreOutcome, 1)
	go func() { done <- r.executeStore(sc) }()
	select {
	case o := <-done:
		return o
	case <-time.After(r.cfg.WedgeTimeout):
		return StoreOutcome{Verdict: Wedge, Detail: fmt.Sprintf("no termination within %v", r.cfg.WedgeTimeout)}
	}
}

// storeCampaignConfig is the resilience config for one store-substrate
// campaign attempt — the store arm runs no message faults, so the two
// chaos arms stay orthogonal.
func (r *Runner) storeCampaignConfig(st *store.Store, runID string) resilience.Config {
	cfg := r.config(Scenario{}, nil)
	cfg.CheckpointEvery = max(r.cfg.Steps/2, 1)
	cfg.Store, cfg.RunID = st, runID
	cfg.Heartbeat = &mpi.Heartbeat{Interval: campaignHeartbeat}
	return cfg
}

func (r *Runner) executeStore(sc StoreScenario) StoreOutcome {
	fail := func(v Verdict, format string, args ...any) StoreOutcome {
		return StoreOutcome{Verdict: v, Detail: fmt.Sprintf(format, args...)}
	}
	plan, err := sc.plan()
	if err != nil {
		return fail(CleanAbort, "%v", err)
	}
	root, err := os.MkdirTemp("", "yychaos-store-*")
	if err != nil {
		return fail(CleanAbort, "store tempdir: %v", err)
	}
	defer os.RemoveAll(root)
	backend, err := store.NewDirBackend(root)
	if err != nil {
		return fail(CleanAbort, "store backend: %v", err)
	}
	st, err := store.Open(backend)
	if err != nil {
		return fail(CleanAbort, "store open: %v", err)
	}

	// Phase A: a campaign through the faulted store. Whatever the plan
	// does to the writes, the campaign must either complete or abort
	// with a typed storage error — an untyped error means some layer
	// swallowed the diagnosis.
	backend.SetFaults(plan)
	if _, err := resilience.RunCampaign(r.storeCampaignConfig(st, "chaos")); err != nil && !typedStoreErr(err) {
		return fail(CampaignFailed, "campaign error not a typed storage error: %v", err)
	}

	// Phase B: lift the faults, reopen cold, and verify. Every fired
	// silent fault must be matched by a severe finding.
	backend.SetFaults(nil)
	st2, err := store.Open(backend)
	if err != nil {
		return fail(CampaignFailed, "store reopen after faults: %v", err)
	}
	rep, err := st2.Verify()
	if err != nil {
		return fail(CampaignFailed, "verify walk failed: %v", err)
	}
	if missed := undetectedSilentFaults(plan.Fired(), rep); missed != "" {
		r.saveStoreArtifacts(sc, rep, nil)
		return fail(VerifyMiss, "fired silent fault(s) undetected by verify: %s\n%s", missed, rep)
	}
	scrub, err := st2.Scrub(true)
	if err != nil {
		r.saveStoreArtifacts(sc, rep, nil)
		return fail(CampaignFailed, "scrub failed: %v", err)
	}

	// Phase C: recover. Resume the campaign over whatever survived the
	// scrub — the recovery ladder falls back through quarantined or
	// missing checkpoints — and demand golden byte-identity.
	res, err := resilience.RunCampaign(r.storeCampaignConfig(st2, "chaos"))
	if err != nil {
		r.saveStoreArtifacts(sc, rep, scrub)
		return fail(CampaignFailed, "recovery campaign did not converge: %v", err)
	}
	want, err := r.Golden()
	if err != nil {
		return fail(CleanAbort, "%v", err)
	}
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, res.Final); err != nil {
		return fail(CleanAbort, "hashing recovered final state: %v", err)
	}
	if got := sha256.Sum256(buf.Bytes()); got != want {
		r.saveStoreArtifacts(sc, rep, scrub)
		return fail(Mismatch, "recovered final state %x differs from golden %x", got, want)
	}

	// Object-level healing: a quarantined blob the resume did not pass
	// through (an already-pruned rung, say) is still ledger-pinned and
	// missing. Campaigns are deterministic, so a fresh rerun re-derives
	// every pinned checkpoint bit-identically — the simulation is the
	// replica of last resort.
	after, err := st2.Verify()
	if err != nil {
		return fail(CampaignFailed, "post-recovery verify failed: %v", err)
	}
	if len(unhealedFindings(after)) > 0 {
		if _, err := resilience.RunCampaign(r.storeCampaignConfig(st2, "rederive")); err != nil {
			r.saveStoreArtifacts(sc, after, scrub)
			return fail(CampaignFailed, "re-derivation campaign failed: %v", err)
		}
		if after, err = st2.Verify(); err != nil {
			return fail(CampaignFailed, "post-re-derivation verify failed: %v", err)
		}
	}
	if bad := unhealedFindings(after); len(bad) > 0 {
		r.saveStoreArtifacts(sc, after, scrub)
		return fail(VerifyMiss, "store did not heal: %d object/ref finding(s) survive scrub and re-derivation\n%s", len(bad), after)
	}
	return StoreOutcome{Verdict: OK}
}

// typedStoreErr reports whether the campaign error is one of the
// store's typed storage failures.
func typedStoreErr(err error) bool {
	var full *store.DiskFullError
	var crash *store.CrashError
	return errors.As(err, &full) || errors.As(err, &crash)
}

// undetectedSilentFaults returns the fired silent (bit-flip) faults
// phase-B verification failed to surface, empty when all were caught.
// Loud kinds surface as typed errors at write time and need no finding.
func undetectedSilentFaults(fired []store.FiredFault, rep *store.VerifyReport) string {
	var missed []string
	for _, f := range fired {
		if f.Kind != store.FaultBitFlip {
			continue
		}
		if !flipDetected(f.Name, rep) {
			missed = append(missed, f.Name)
		}
	}
	return strings.Join(missed, ", ")
}

// flipDetected maps a fired flip's backend name to the finding that
// must testify to it.
func flipDetected(name string, rep *store.VerifyReport) bool {
	switch {
	case strings.HasPrefix(name, "anchor/"):
		// A flip always renders the anchor unparsable, so a still-damaged
		// anchor is necessarily reported; no finding means a later Append
		// overwrote the flipped bytes whole — healed, not missed.
		return true
	case strings.HasPrefix(name, "ledger/"):
		// Entry damage can surface at the entry itself (undecodable), at
		// the next entry's broken Prev link, or — for the tail entry — at
		// the chain anchor: any severe chain finding testifies.
		for _, fd := range rep.Findings {
			if !fd.Severe {
				continue
			}
			switch fd.Kind {
			case store.FindingBadEntry, store.FindingChainBreak, store.FindingChainGap,
				store.FindingMerkleMismatch, store.FindingSizeMismatch, store.FindingBadAnchor:
				return true
			}
		}
		return false
	default:
		// Objects and refs are located by name: the finding names the
		// hash or ref, a suffix of the backend name the fault hit.
		for _, fd := range rep.Findings {
			if fd.Severe && fd.Name != "" && strings.HasSuffix(name, fd.Name) {
				return true
			}
		}
		return false
	}
}

// unhealedFindings are the severe findings scrub plus re-derivation
// must clear: object and ref health. Damaged ledger *history* is
// deliberately exempt — the chain is append-only and its damage stays
// as tamper evidence; it was already charged for in phase B.
func unhealedFindings(rep *store.VerifyReport) []store.Finding {
	var out []store.Finding
	for _, f := range rep.Findings {
		if !f.Severe {
			continue
		}
		switch f.Kind {
		case store.FindingMissingObject, store.FindingCorruptObject,
			store.FindingAlienObject, store.FindingBadRef:
			out = append(out, f)
		}
	}
	return out
}

// saveStoreArtifacts collects a violating store scenario's verify and
// scrub reports under cfg.ArtifactDir. Best effort — artifact trouble
// must never mask the verdict.
func (r *Runner) saveStoreArtifacts(sc StoreScenario, rep *store.VerifyReport, scrub *store.ScrubReport) {
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
	if rep != nil {
		_ = store.WriteFileAtomic(r.cfg.ArtifactDir+"/"+base+"-store-verify.txt", []byte(rep.String()), 0o644)
	}
	if scrub != nil {
		_ = store.WriteFileAtomic(r.cfg.ArtifactDir+"/"+base+"-store-scrub.txt", []byte(scrub.String()), 0o644)
	}
}

// StoreCorpusEntry is one committed store regression scenario with the
// verdict it must reproduce.
type StoreCorpusEntry struct {
	Scenario StoreScenario `json:"scenario"`
	// Want is the verdict the replay must produce.
	Want Verdict `json:"want"`
	// Note says why the entry is in the corpus.
	Note string `json:"note,omitempty"`
}

// LoadStoreCorpus reads a store corpus file (a JSON array of entries).
func LoadStoreCorpus(path string) ([]StoreCorpusEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []StoreCorpusEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("chaos: store corpus %s: %w", path, err)
	}
	return entries, nil
}
