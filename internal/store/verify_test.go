package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// populate commits a small campaign-shaped history: nSeg segments,
// each putting one checkpoint blob, setting a ref, and appending a
// ledger entry. Returns the checkpoint hashes.
func populate(t *testing.T, s *Store, run string, nSeg int) []Hash {
	t.Helper()
	var hashes []Hash
	for i := 0; i < nSeg; i++ {
		data := []byte(fmt.Sprintf("run %s checkpoint %d payload", run, i))
		h, err := s.Put(data)
		if err != nil {
			t.Fatalf("Put seg %d: %v", i, err)
		}
		name := fmt.Sprintf("ckpt-%09d", i)
		if err := s.SetRef("runs/"+run+"/"+name, h); err != nil {
			t.Fatalf("SetRef seg %d: %v", i, err)
		}
		if _, err := s.Append(Manifest{
			Run: run, Step: i,
			Artifacts: []Artifact{{Name: name, Role: "checkpoint", Hash: h, Size: int64(len(data))}},
		}); err != nil {
			t.Fatalf("Append seg %d: %v", i, err)
		}
		hashes = append(hashes, h)
	}
	return hashes
}

func wantFinding(t *testing.T, rep *VerifyReport, kind FindingKind, nameFrag string) {
	t.Helper()
	for _, f := range rep.Findings {
		if f.Kind == kind && strings.Contains(f.Name, nameFrag) {
			return
		}
	}
	t.Fatalf("no %s finding matching %q in:\n%s", kind, nameFrag, rep)
}

func TestVerifyCleanStore(t *testing.T) {
	s, _ := newTestStore(t)
	populate(t, s, "a", 3)
	rep, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Severe() != 0 || len(rep.Findings) != 0 {
		t.Fatalf("clean store yields findings:\n%s", rep)
	}
	if rep.Entries != 3 || rep.Objects != 3 || rep.Refs != 3 {
		t.Fatalf("counts = %d/%d/%d, want 3/3/3", rep.Entries, rep.Objects, rep.Refs)
	}
}

func TestVerifyDetectsBitRot(t *testing.T) {
	s, b := newTestStore(t)
	hashes := populate(t, s, "a", 3)
	flipBit(filepath.Join(b.root, filepath.FromSlash(objectName(hashes[1]))), 5)
	rep, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	wantFinding(t, rep, FindingCorruptObject, hashes[1].String())
	if rep.Severe() == 0 {
		t.Fatal("bit rot not severe")
	}
}

func TestVerifyDetectsMissingObject(t *testing.T) {
	s, b := newTestStore(t)
	hashes := populate(t, s, "a", 2)
	if err := b.Remove(objectName(hashes[0])); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingMissingObject, hashes[0].String())
}

func TestVerifyDetectsChainBreak(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 3)
	// Tamper with entry 1 in place: entry 2's Prev no longer matches.
	path := filepath.Join(b.root, "ledger", "000000001")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw = []byte(strings.Replace(string(raw), `"step": 1`, `"step": 7`, 1))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingChainBreak, "ledger/000000002")
}

func TestVerifyDetectsChainGap(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 3)
	if err := b.Remove("ledger/000000001"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingChainGap, "ledger/000000001")
	// The gap also breaks the next entry's Prev link.
	wantFinding(t, rep, FindingChainBreak, "ledger/000000002")
}

func TestVerifyDetectsMerkleMismatch(t *testing.T) {
	s, b := newTestStore(t)
	hashes := populate(t, s, "a", 1)
	// Swap the recorded artifact hash for another valid object's: the
	// entry still decodes, the object exists, but the root is wrong.
	other, err := s.Put([]byte("innocent bystander"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(b.root, "ledger", "000000000")
	raw, _ := os.ReadFile(path)
	swapped := strings.Replace(string(raw), hashes[0].String(), other.String(), 1)
	if swapped == string(raw) {
		t.Fatal("tamper had no effect")
	}
	if err := os.WriteFile(path, []byte(swapped), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingMerkleMismatch, "ledger/000000000")
}

func TestVerifyDetectsSizeMismatch(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 1)
	path := filepath.Join(b.root, "ledger", "000000000")
	raw, _ := os.ReadFile(path)
	tampered := strings.Replace(string(raw), `"size": `, `"size": 9`, 1)
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingSizeMismatch, "")
}

func TestVerifyDetectsBadRefAndOrphans(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 1)
	if err := b.Put("refs/runs/a/bogus", []byte("not a hash\n")); err != nil {
		t.Fatalf("Put ref: %v", err)
	}
	// An unreferenced object and an orphan temp are hygiene notes,
	// not integrity damage.
	if _, err := s.Put([]byte("unreferenced")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.WriteFile(filepath.Join(b.root, "objects", "deadbeef.tmp-123"), []byte("x"), 0o644); err != nil {
		t.Fatalf("WriteFile temp: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingBadRef, "runs/a/bogus")
	wantFinding(t, rep, FindingUnreferencedObject, "")
	wantFinding(t, rep, FindingOrphanTemp, "deadbeef.tmp-123")
	if rep.Severe() != 1 {
		t.Fatalf("Severe = %d, want 1 (only the bad ref):\n%s", rep.Severe(), rep)
	}
}

func TestVerifyDetectsAlienObject(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 1)
	if err := b.Put("objects/zz/zznotahash", []byte("alien")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingAlienObject, "objects/zz/zznotahash")
}

// TestFaultMatrixDetection is the package-level half of the
// fault-matrix gate: for every fault kind at every op of a
// campaign-shaped write sequence, any damage the fault leaves behind
// is either surfaced as a typed error at Put time (crash kinds,
// ENOSPC) or detected by Verify as a severe finding (silent bit rot).
// 100% detection, no fault kind exempt.
func TestFaultMatrixDetection(t *testing.T) {
	kinds := []FaultKind{FaultTornWrite, FaultBitFlip, FaultENOSPC, FaultCrashBeforeRename, FaultCrashAfterRename}
	const nSeg = 3
	// Each segment issues 4 backend Puts: blob, ref, ledger entry, and
	// the chain anchor the Append rewrites.
	for _, kind := range kinds {
		for op := 0; op < nSeg*4; op++ {
			t.Run(fmt.Sprintf("%s-op%d", kind, op), func(t *testing.T) {
				s, b := newTestStore(t)
				plan := NewFaultPlan([]Fault{{Op: op, Kind: kind, Byte: 4}})
				b.SetFaults(plan)

				typedErr := false
				for i := 0; i < nSeg && !typedErr; i++ {
					data := []byte(fmt.Sprintf("checkpoint %d payload", i))
					h, err := s.Put(data)
					if err == nil {
						name := fmt.Sprintf("ckpt-%09d", i)
						err = s.SetRef("runs/m/"+name, h)
						if err == nil {
							_, err = s.Append(Manifest{Run: "m", Step: i,
								Artifacts: []Artifact{{Name: name, Role: "checkpoint", Hash: h, Size: int64(len(data))}}})
						}
					}
					if err != nil {
						if !isTypedStoreErr(err) {
							t.Fatalf("seg %d error not typed: %v", i, err)
						}
						typedErr = true
					}
				}

				fired := plan.Fired()
				if len(fired) != 1 {
					t.Fatalf("fired %d faults, want 1", len(fired))
				}
				switch kind {
				case FaultENOSPC, FaultTornWrite, FaultCrashBeforeRename, FaultCrashAfterRename:
					if !typedErr {
						t.Fatalf("%s fired without a typed error", kind)
					}
				case FaultBitFlip:
					if typedErr {
						t.Fatal("bit-flip must be silent at write time")
					}
					// Silent rot must be caught by verification. Note
					// the flip may hit a blob, a ref, a ledger entry
					// (including the tail, which only the anchor
					// pins), or the anchor itself — all must be
					// detected.
					s2, err := Open(b)
					if err != nil {
						// A flipped ledger head can make Open itself
						// refuse — that is detection too.
						return
					}
					rep, err := s2.Verify()
					if err != nil {
						t.Fatalf("Verify: %v", err)
					}
					// One exception: a flip on a non-final anchor write
					// is overwritten whole by the next Append — no
					// damage remains to detect. Every other target is
					// write-once, so its rot must surface.
					healedByOverwrite := fired[0].Name == anchorName && op != nSeg*4-1
					if rep.Severe() == 0 && !healedByOverwrite {
						t.Fatalf("bit-flip on %s undetected:\n%s", fired[0].Name, rep)
					}
				}
			})
		}
	}
}

// TestVerifyDetectsTailTamper: a flip inside a string value of the
// *newest* ledger entry leaves it decodable with every Prev link
// consistent — no interior check can see it. The chain anchor is the
// only witness, and it must testify.
func TestVerifyDetectsTailTamper(t *testing.T) {
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
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingBadAnchor, anchorName)
	if rep.Severe() != 1 {
		t.Fatalf("Severe = %d, want 1 (the anchor alone catches a tail tamper):\n%s", rep.Severe(), rep)
	}
}

// TestVerifyStaleAnchorIsInformational: an anchor lagging by exactly
// one entry is the crash window between an entry commit and its anchor
// update — reported, but not integrity damage.
func TestVerifyStaleAnchorIsInformational(t *testing.T) {
	s, b := newTestStore(t)
	populate(t, s, "a", 2)
	raw, err := b.Get("ledger/000000000")
	if err != nil {
		t.Fatalf("Get entry 0: %v", err)
	}
	if err := b.Put(anchorName, []byte(HashOf(raw).String()+"\n")); err != nil {
		t.Fatalf("rewinding anchor: %v", err)
	}
	rep, _ := s.Verify()
	wantFinding(t, rep, FindingStaleAnchor, anchorName)
	if rep.Severe() != 0 {
		t.Fatalf("crash-window anchor reported severe:\n%s", rep)
	}
	// Lagging by *two* is no crash window any single failure explains:
	// that is severe.
	populate(t, s, "b", 1) // now 3 entries; re-anchored at entry 2
	if err := b.Put(anchorName, []byte(HashOf(raw).String()+"\n")); err != nil {
		t.Fatalf("rewinding anchor by two: %v", err)
	}
	rep, _ = s.Verify()
	wantFinding(t, rep, FindingBadAnchor, anchorName)
	if rep.Severe() != 1 {
		t.Fatalf("lag-2 anchor Severe = %d, want 1:\n%s", rep.Severe(), rep)
	}
}

func isTypedStoreErr(err error) bool {
	var full *DiskFullError
	var crash *CrashError
	return errors.As(err, &full) || errors.As(err, &crash)
}
