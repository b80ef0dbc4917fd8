package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScrubRepairsFromReplica(t *testing.T) {
	replica, err := NewDirBackend(filepath.Join(t.TempDir(), "replica"))
	if err != nil {
		t.Fatalf("NewDirBackend: %v", err)
	}
	s, b := newTestStore(t, replica)
	hashes := populate(t, s, "a", 2)

	// Rot one primary object; the replica still holds good bytes.
	flipBit(filepath.Join(b.root, filepath.FromSlash(objectName(hashes[0]))), 6)
	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Actions) != 1 || rep.Actions[0].Outcome != "repaired-from-replica" {
		t.Fatalf("Actions = %+v, want one repair", rep.Actions)
	}
	if len(rep.Unrepaired) != 0 {
		t.Fatalf("Unrepaired = %v", rep.Unrepaired)
	}
	if got, err := s.Get(hashes[0]); err != nil || HashOf(got) != hashes[0] {
		t.Fatalf("Get after repair = %v", err)
	}
	after, _ := s.Verify()
	if after.Severe() != 0 {
		t.Fatalf("store not clean after repair:\n%s", after)
	}
}

func TestScrubIgnoresRottenReplica(t *testing.T) {
	replica, err := NewDirBackend(filepath.Join(t.TempDir(), "replica"))
	if err != nil {
		t.Fatalf("NewDirBackend: %v", err)
	}
	s, b := newTestStore(t, replica)
	hashes := populate(t, s, "a", 1)
	// Both copies rot: the replica must be hash-checked, not trusted.
	flipBit(filepath.Join(b.root, filepath.FromSlash(objectName(hashes[0]))), 6)
	flipBit(filepath.Join(replica.root, filepath.FromSlash(objectName(hashes[0]))), 9)
	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Unrepaired) != 1 || rep.Unrepaired[0] != hashes[0] {
		t.Fatalf("Unrepaired = %v, want [%s]", rep.Unrepaired, hashes[0].Short())
	}
	if rep.Actions[0].Outcome != "quarantined" {
		t.Fatalf("Actions = %+v, want quarantine", rep.Actions)
	}
}

func TestScrubQuarantineThenRederive(t *testing.T) {
	s, b := newTestStore(t)
	data := []byte("deterministic checkpoint payload")
	h, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Append(Manifest{Run: "a", Step: 0,
		Artifacts: []Artifact{{Name: "ckpt-000000000", Role: "checkpoint", Hash: h, Size: int64(len(data))}}}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	flipBit(filepath.Join(b.root, filepath.FromSlash(objectName(h))), 3)

	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Unrepaired) != 1 {
		t.Fatalf("Unrepaired = %v, want the rotten object", rep.Unrepaired)
	}
	// Quarantine preserved the damaged bytes for forensics...
	if q, err := b.Get("quarantine/" + h.String()); err != nil || len(q) != len(data) {
		t.Fatalf("quarantine copy = %d bytes, %v", len(q), err)
	}
	// ...and made the damage honest: a typed miss, not silent rot.
	var miss *MissingObjectError
	if _, err := s.Get(h); !errors.As(err, &miss) {
		t.Fatalf("Get after quarantine = %v, want *MissingObjectError", err)
	}

	// A deterministic rerun re-derives the bit-identical blob; the
	// re-Put lands under the same ledger-pinned address and the store
	// verifies clean again. This is the "re-derivable sources" repair
	// path: the simulation itself is the replica of last resort.
	h2, err := s.Put(data)
	if err != nil {
		t.Fatalf("re-derive Put: %v", err)
	}
	if h2 != h {
		t.Fatalf("re-derived hash %s != ledger-pinned %s", h2.Short(), h.Short())
	}
	after, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if n := after.Severe(); n != 0 {
		t.Fatalf("store still damaged after re-derivation (%d severe):\n%s", n, after)
	}
}

func TestScrubWithoutRepairOnlyReports(t *testing.T) {
	s, b := newTestStore(t)
	hashes := populate(t, s, "a", 1)
	flipBit(filepath.Join(b.root, filepath.FromSlash(objectName(hashes[0]))), 3)
	rep, err := s.Scrub(false)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Actions) != 0 {
		t.Fatalf("repair=false took actions: %+v", rep.Actions)
	}
	if rep.Verify.Severe() == 0 {
		t.Fatal("damage not reported")
	}
	// The damaged object is untouched.
	var corr *CorruptObjectError
	if _, err := s.Get(hashes[0]); !errors.As(err, &corr) {
		t.Fatalf("Get = %v, want *CorruptObjectError still", err)
	}
}

func TestGCKeepsReachableSweepsGarbage(t *testing.T) {
	s, _ := newTestStore(t)
	hashes := populate(t, s, "a", 2)
	refOnly, _ := s.Put([]byte("ref-only blob"))
	if err := s.SetRef("runs/a/extra", refOnly); err != nil {
		t.Fatalf("SetRef: %v", err)
	}
	garbage, _ := s.Put([]byte("unreachable"))

	rep, err := s.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if len(rep.Swept) != 1 || rep.Swept[0] != garbage {
		t.Fatalf("Swept = %v, want [%s]", rep.Swept, garbage.Short())
	}
	if rep.Kept != 3 {
		t.Fatalf("Kept = %d, want 3", rep.Kept)
	}
	for _, h := range append(hashes, refOnly) {
		if _, err := s.Get(h); err != nil {
			t.Fatalf("reachable %s collected: %v", h.Short(), err)
		}
	}
	if _, ok := s.index[garbage]; ok {
		t.Fatal("swept object still indexed")
	}
}

func TestGCRefusesUnreadableLedger(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 2)
	garbage, _ := s.Put([]byte("unreachable"))
	flipBit(filepath.Join(b.root, "ledger", "000000000"), 4)
	if _, err := s.GC(); err == nil {
		t.Fatal("GC ran over an undecodable ledger")
	}
	// Nothing was removed — not even true garbage.
	if _, err := s.Get(garbage); err != nil {
		t.Fatalf("GC removed objects despite refusing: %v", err)
	}
}

func TestGCRefusesBadRef(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 1)
	if err := b.Put("refs/runs/a/bogus", []byte("not a hash\n")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.GC(); err == nil {
		t.Fatal("GC ran over an unparsable ref")
	}
}

// TestScrubDropsBadRef: a ref whose content no longer parses is
// dropped — the blob it once named stays ledger-pinned, so only a rung
// of rollback depth is lost, and the store verifies clean again.
func TestScrubDropsBadRef(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 1)
	if err := b.Put("refs/runs/a/rotten", []byte("not a hash\n")); err != nil {
		t.Fatalf("Put ref: %v", err)
	}
	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Actions) != 1 || rep.Actions[0].Outcome != "dropped-ref" || rep.Actions[0].Name != "runs/a/rotten" {
		t.Fatalf("Actions = %+v, want one dropped-ref", rep.Actions)
	}
	after, _ := s.Verify()
	if after.Severe() != 0 {
		t.Fatalf("store not clean after dropping the ref:\n%s", after)
	}
}

// TestScrubReanchors: an anchor that is unparsable (its own bytes
// rotted) or stale by the one-entry crash window is recomputable state;
// scrub rewrites it from the chain tail.
func TestScrubReanchors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, s *Store, b *DirBackend)
	}{
		{"unparsable", func(t *testing.T, s *Store, b *DirBackend) {
			if err := b.Put(anchorName, []byte("garbage, not hex\n")); err != nil {
				t.Fatalf("Put anchor: %v", err)
			}
		}},
		{"stale-by-one", func(t *testing.T, s *Store, b *DirBackend) {
			raw, err := b.Get("ledger/000000000")
			if err != nil {
				t.Fatalf("Get entry 0: %v", err)
			}
			if err := b.Put(anchorName, []byte(HashOf(raw).String()+"\n")); err != nil {
				t.Fatalf("Put anchor: %v", err)
			}
		}},
		{"absent", func(t *testing.T, s *Store, b *DirBackend) {
			if err := b.Remove(anchorName); err != nil {
				t.Fatalf("Remove anchor: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, b := newTestStore(t)
			populate(t, s, "a", 2)
			tc.damage(t, s, b)
			rep, err := s.Scrub(true)
			if err != nil {
				t.Fatalf("Scrub: %v", err)
			}
			var reanchored bool
			for _, a := range rep.Actions {
				if a.Outcome == "re-anchored" {
					reanchored = true
				}
			}
			if !reanchored {
				t.Fatalf("no re-anchored action in %+v", rep.Actions)
			}
			after, _ := s.Verify()
			if after.Severe() != 0 || len(after.Findings) != 0 {
				t.Fatalf("anchor still unhealthy after scrub:\n%s", after)
			}
		})
	}
}

// TestScrubLeavesMismatchedAnchor: an anchor that names some *other*
// hash could mean a tampered tail entry — rewriting it would launder
// the tampering, so scrub must leave it severe and tamper-evident.
func TestScrubLeavesMismatchedAnchor(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 2)
	path := filepath.Join(b.root, "ledger", "000000001")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	tampered := strings.Replace(string(raw), `"run": "a"`, `"run": "z"`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper had no effect")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	for _, a := range rep.Actions {
		if a.Outcome == "re-anchored" {
			t.Fatalf("scrub laundered a tampered tail: %+v", a)
		}
	}
	after, _ := s.Verify()
	if after.Severe() == 0 {
		t.Fatalf("tampered tail no longer severe after scrub:\n%s", after)
	}
}

// TestGCNeverCollectsReachableProperty is the seeded property test
// behind "gc provably never collects a ledger-reachable object": for
// each seed, build a random mix of ledger-pinned, ref-pinned, and
// dangling blobs, run GC, and check exactly the unreachable set is
// gone and everything reachable still content-verifies.
func TestGCNeverCollectsReachableProperty(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := seed
			next := func() uint64 { // splitmix64, matching the chaos harness's generator
				rng += 0x9e3779b97f4a7c15
				z := rng
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				return z ^ (z >> 31)
			}
			intn := func(n int) int { return int(next() % uint64(n)) }

			s, _ := newTestStore(t)
			reachable := map[Hash]struct{}{}
			unreachable := map[Hash]struct{}{}
			nBlobs := 4 + intn(12)
			var pending []Artifact
			for i := 0; i < nBlobs; i++ {
				data := []byte(fmt.Sprintf("seed %d blob %d: %x", seed, i, next()))
				h, err := s.Put(data)
				if err != nil {
					t.Fatalf("Put: %v", err)
				}
				switch intn(3) {
				case 0: // pin via a ledger entry (possibly batched)
					pending = append(pending, Artifact{Name: fmt.Sprintf("b%d", i), Role: "blob", Hash: h, Size: int64(len(data))})
					reachable[h] = struct{}{}
					if intn(2) == 0 {
						if _, err := s.Append(Manifest{Run: "p", Step: i, Artifacts: pending}); err != nil {
							t.Fatalf("Append: %v", err)
						}
						pending = nil
					}
				case 1: // pin via a ref
					if err := s.SetRef(fmt.Sprintf("runs/p/b%d", i), h); err != nil {
						t.Fatalf("SetRef: %v", err)
					}
					reachable[h] = struct{}{}
				default: // dangling
					if _, ok := reachable[h]; !ok {
						unreachable[h] = struct{}{}
					}
				}
			}
			if len(pending) > 0 {
				if _, err := s.Append(Manifest{Run: "p", Step: nBlobs, Artifacts: pending}); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}

			rep, err := s.GC()
			if err != nil {
				t.Fatalf("GC: %v", err)
			}
			for h := range reachable {
				data, err := s.Get(h)
				if err != nil {
					t.Fatalf("reachable %s gone after GC: %v", h.Short(), err)
				}
				if HashOf(data) != h {
					t.Fatalf("reachable %s damaged after GC", h.Short())
				}
			}
			for _, h := range rep.Swept {
				if _, ok := reachable[h]; ok {
					t.Fatalf("GC swept reachable %s", h.Short())
				}
			}
			for h := range unreachable {
				if _, ok := s.index[h]; ok {
					t.Fatalf("unreachable %s survived GC", h.Short())
				}
			}
			// Idempotence: a second sweep finds nothing.
			rep2, err := s.GC()
			if err != nil {
				t.Fatalf("second GC: %v", err)
			}
			if len(rep2.Swept) != 0 {
				t.Fatalf("second GC swept %v", rep2.Swept)
			}
		})
	}
}
