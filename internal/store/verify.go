package store

// Offline verification: walk the Merkle-chained ledger and every
// object and ref the store holds, recomputing every hash, and report
// each deviation as a typed Finding. The chaos harness's storage arm
// requires that every silent fault its seeded FaultPlan fires is
// matched by a severe finding here — "verify detects 100% of injected
// corruptions" is a gated claim, not an aspiration.

import (
	"encoding/json"
	"fmt"
	"strings"
)

// FindingKind classifies one verification deviation.
type FindingKind string

const (
	// Severe findings: the store's integrity claims are broken.

	// FindingChainGap: a ledger sequence number is missing.
	FindingChainGap FindingKind = "chain-gap"
	// FindingChainBreak: an entry's Prev does not match the sha256 of
	// the previous entry's stored bytes.
	FindingChainBreak FindingKind = "chain-break"
	// FindingBadEntry: a ledger entry fails to decode or its recorded
	// Seq disagrees with its name.
	FindingBadEntry FindingKind = "bad-entry"
	// FindingMerkleMismatch: an entry's Root does not match the
	// recomputed Merkle root over its artifact hashes.
	FindingMerkleMismatch FindingKind = "merkle-mismatch"
	// FindingMissingObject: a ledger- or ref-referenced blob has no
	// object in the store.
	FindingMissingObject FindingKind = "missing-object"
	// FindingCorruptObject: an object's bytes do not hash to its name.
	FindingCorruptObject FindingKind = "corrupt-object"
	// FindingSizeMismatch: an object's length differs from the size a
	// manifest recorded for it.
	FindingSizeMismatch FindingKind = "size-mismatch"
	// FindingBadRef: a ref's content does not parse as a hash.
	FindingBadRef FindingKind = "bad-ref"
	// FindingAlienObject: a name under objects/ that is not a
	// well-formed content address.
	FindingAlienObject FindingKind = "alien-object"
	// FindingBadAnchor: the chain anchor is absent, unparsable, or names
	// a hash matching neither the newest ledger entry nor its
	// predecessor — the tail of the chain (which no Prev link pins) can
	// no longer be trusted.
	FindingBadAnchor FindingKind = "bad-anchor"

	// Informational findings: hygiene, not integrity.

	// FindingOrphanTemp: a leftover temp file from a crashed writer.
	FindingOrphanTemp FindingKind = "orphan-temp"
	// FindingUnreferencedObject: an object no ledger entry or ref
	// reaches (GC fodder, not damage).
	FindingUnreferencedObject FindingKind = "unreferenced-object"
	// FindingStaleAnchor: the anchor lags the chain by exactly one
	// entry — the window a crash between an entry commit and its anchor
	// update leaves behind. The next Append (or Scrub) advances it.
	FindingStaleAnchor FindingKind = "stale-anchor"
)

// Finding is one verification deviation.
type Finding struct {
	Kind FindingKind `json:"kind"`
	// Name locates the damage: a backend name, ref name, or object
	// hash in hex.
	Name string `json:"name"`
	// Severe marks integrity damage (vs hygiene notes).
	Severe bool `json:"severe"`
	// Detail is the human-facing explanation.
	Detail string `json:"detail"`
}

func (f Finding) String() string {
	sev := "info"
	if f.Severe {
		sev = "SEVERE"
	}
	return fmt.Sprintf("%-7s %-20s %s: %s", sev, f.Kind, f.Name, f.Detail)
}

// VerifyReport is the outcome of a full store walk.
type VerifyReport struct {
	Entries  int       `json:"entries"`
	Objects  int       `json:"objects"`
	Refs     int       `json:"refs"`
	Findings []Finding `json:"findings,omitempty"`
}

// Severe counts integrity-breaking findings.
func (r *VerifyReport) Severe() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severe {
			n++
		}
	}
	return n
}

func (r *VerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "store verify: %d ledger entries, %d objects, %d refs: %d findings (%d severe)\n",
		r.Entries, r.Objects, r.Refs, len(r.Findings), r.Severe())
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// Verify walks the whole store: the ledger chain (recomputing Prev
// links and Merkle roots from raw bytes), every referenced artifact
// (content-hashed), every ref, every object, and leftover temps. It
// reads only — repair is Scrub's job — and keeps walking past damage
// so one corrupt blob cannot mask another.
func (s *Store) Verify() (*VerifyReport, error) {
	rep := &VerifyReport{}
	report := func(kind FindingKind, name string, severe bool, format string, args ...any) {
		rep.Findings = append(rep.Findings, Finding{
			Kind: kind, Name: name, Severe: severe, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Content-check each object at most once, whichever path reaches
	// it first; referenced tracks reachability for the hygiene pass.
	checked := map[Hash]error{}
	referenced := map[Hash]bool{}
	checkObject := func(h Hash) error {
		referenced[h] = true
		if err, done := checked[h]; done {
			return err
		}
		_, err := s.Get(h)
		checked[h] = err
		return err
	}
	reportObjectErr := func(h Hash, where string, err error) {
		switch err.(type) {
		case *MissingObjectError:
			report(FindingMissingObject, h.String(), true, "referenced by %s but absent", where)
		case *CorruptObjectError:
			report(FindingCorruptObject, h.String(), true, "referenced by %s: %v", where, err)
		default:
			report(FindingCorruptObject, h.String(), true, "referenced by %s: unreadable: %v", where, err)
		}
	}

	// 1. The ledger chain.
	names, err := s.primary.List(ledgerPrefix)
	if err != nil {
		return nil, fmt.Errorf("store: listing ledger: %w", err)
	}
	var prev, prevPrev Hash
	wantSeq := 0
	for _, name := range names {
		seq, ok := parseEntryName(name)
		if !ok {
			report(FindingBadEntry, name, true, "name is not a ledger sequence number")
			continue
		}
		for wantSeq < seq {
			report(FindingChainGap, entryName(wantSeq), true, "ledger entry missing")
			wantSeq++
		}
		wantSeq = seq + 1
		rep.Entries++
		raw, err := s.primary.Get(name)
		if err != nil {
			report(FindingBadEntry, name, true, "unreadable: %v", err)
			continue
		}
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			report(FindingBadEntry, name, true, "undecodable: %v", err)
			prevPrev, prev = prev, HashOf(raw) // still chain over the stored bytes
			continue
		}
		if m.Seq != seq {
			report(FindingBadEntry, name, true, "recorded seq %d disagrees with name", m.Seq)
		}
		if m.Prev != prev {
			report(FindingChainBreak, name, true,
				"prev %s, but previous entry's bytes hash to %s", m.Prev.Short(), prev.Short())
		}
		hashes := make([]Hash, len(m.Artifacts))
		for i, a := range m.Artifacts {
			hashes[i] = a.Hash
		}
		if root := MerkleRoot(hashes); root != m.Root {
			report(FindingMerkleMismatch, name, true,
				"root %s, recomputed %s", m.Root.Short(), root.Short())
		}
		for _, a := range m.Artifacts {
			where := fmt.Sprintf("%s artifact %q", name, a.Name)
			if err := checkObject(a.Hash); err != nil {
				reportObjectErr(a.Hash, where, err)
				continue
			}
			if data, err := s.primary.Get(objectName(a.Hash)); err == nil && int64(len(data)) != a.Size {
				report(FindingSizeMismatch, a.Hash.String(), true,
					"%s records %d bytes, object holds %d", where, a.Size, len(data))
			}
		}
		prevPrev, prev = prev, HashOf(raw)
	}

	// 1b. The chain anchor. The Prev links pin every entry except the
	// newest; the anchor pins that one. A crash between an entry commit
	// and its anchor update leaves the anchor lagging by exactly one
	// entry — tolerated as informational — but anything else (absent
	// with a multi-entry ledger, unparsable, or naming some other hash)
	// means the chain tail cannot be trusted.
	s.verifyAnchor(report, rep.Entries, prev, prevPrev)

	// 2. Refs.
	refs, err := s.Refs("")
	if err != nil {
		return nil, fmt.Errorf("store: listing refs: %w", err)
	}
	rep.Refs = len(refs)
	for _, r := range refs {
		if r.Err != nil {
			report(FindingBadRef, r.Name, true, "%v", r.Err)
			continue
		}
		if err := checkObject(r.Hash); err != nil {
			reportObjectErr(r.Hash, "ref "+r.Name, err)
		}
	}

	// 3. Every object on disk, including ones nothing references
	//    (bit rot does not care whether anything points at the blob).
	objNames, err := s.primary.List("objects/")
	if err != nil {
		return nil, fmt.Errorf("store: listing objects: %w", err)
	}
	for _, name := range objNames {
		h, ok := parseObjectName(name)
		if !ok {
			report(FindingAlienObject, name, true, "not a well-formed content address")
			continue
		}
		rep.Objects++
		wasReferenced := referenced[h]
		if err := checkObject(h); err != nil {
			if wasReferenced {
				continue // already reported via its reference
			}
			reportObjectErr(h, "objects walk", err)
			continue
		}
		if !wasReferenced {
			report(FindingUnreferencedObject, h.String(), false,
				"no ledger entry or ref reaches it (gc candidate)")
		}
	}

	// 4. Crashed-writer leftovers.
	temps, err := s.primary.Temps()
	if err != nil {
		return nil, fmt.Errorf("store: listing temps: %w", err)
	}
	for _, t := range temps {
		report(FindingOrphanTemp, t, false, "leftover temp from an interrupted write")
	}
	return rep, nil
}

// verifyAnchor checks the chain anchor against the recomputed chain
// head (the hash of the newest entry's stored bytes) and its
// predecessor. head/prevHead come from the chain walk, so this is a
// disk-vs-disk comparison — the in-memory head plays no part.
func (s *Store) verifyAnchor(report func(FindingKind, string, bool, string, ...any), entries int, head, prevHead Hash) {
	raw, err := s.primary.Get(anchorName)
	if err != nil {
		switch {
		case entries == 0:
			// An empty ledger has no anchor; nothing to check.
		case entries == 1:
			// A crash on the very first anchor write leaves no anchor at
			// all — the one shape of "absent" that is a crash window
			// rather than damage.
			report(FindingStaleAnchor, anchorName, false,
				"absent with a single-entry ledger (crash window after the first append)")
		default:
			report(FindingBadAnchor, anchorName, true,
				"absent with %d ledger entries: %v", entries, err)
		}
		return
	}
	if entries == 0 {
		report(FindingBadAnchor, anchorName, true, "anchor exists but the ledger is empty")
		return
	}
	h, err := ParseHash(strings.TrimSpace(string(raw)))
	if err != nil {
		report(FindingBadAnchor, anchorName, true, "unparsable: %v", err)
		return
	}
	switch h {
	case head:
		// Anchored exactly at the tail: the expected steady state.
	case prevHead:
		report(FindingStaleAnchor, anchorName, false,
			"lags the chain by one entry (crash window); the next append or scrub advances it")
	default:
		report(FindingBadAnchor, anchorName, true,
			"anchors %s, but the newest entry's bytes hash to %s — the chain tail cannot be trusted",
			h.Short(), head.Short())
	}
}
