package store

// The run ledger: an append-only, hash-chained sequence of manifest
// entries. Every campaign segment commit appends one Manifest naming
// the artifacts it produced (by content address), the recovery
// decisions taken to reach it, and a digest of the event log. Each
// entry's Prev is the sha256 of the previous entry's stored bytes and
// its Root is the Merkle root over its artifact hashes, so the whole
// history — and therefore any past "sha256-identical to golden"
// claim — is verifiable offline from the store alone: tamper with any
// byte of any entry or any referenced blob and Verify localizes it.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

const ledgerPrefix = "ledger/"

// anchorName is the chain anchor: after every Append the current chain
// head (the sha256 of the newest entry's stored bytes) is written
// here. A hash chain pins each entry only through the *next* entry's
// Prev, which leaves the tail entry unpinned; the anchor closes that
// gap, so silent rot of the newest manifest is detectable too. A crash
// between the entry commit and the anchor update leaves the anchor
// lagging exactly one entry — Verify reports that window as
// informational, anything else as damage.
const anchorName = "anchor/HEAD"

// entryName formats a ledger sequence number as its backend name; the
// fixed width keeps lexical order equal to numeric order for List.
func entryName(seq int) string {
	return fmt.Sprintf("%s%09d", ledgerPrefix, seq)
}

func parseEntryName(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, ledgerPrefix)
	if !ok || len(rest) != 9 {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Artifact is one named output pinned by a manifest entry.
type Artifact struct {
	// Name is the human-facing identity ("ckpt-000000004", "postmortem").
	Name string `json:"name"`
	// Role classifies it ("checkpoint", "postmortem", "report", ...).
	Role string `json:"role"`
	// Hash is the content address of the blob.
	Hash Hash `json:"hash"`
	// Size is the blob length in bytes, a cheap first-line check.
	Size int64 `json:"size"`
}

// Manifest is one ledger entry: what a campaign segment committed and
// how it got there.
type Manifest struct {
	// Seq is the entry's position in the chain; filled by Append.
	Seq int `json:"seq"`
	// Prev is the sha256 of the previous entry's stored bytes (zero
	// for the first entry); filled by Append.
	Prev Hash `json:"prev"`
	// Root is the Merkle root over the artifact hashes; filled by
	// Append.
	Root Hash `json:"root"`
	// Run identifies the campaign this entry belongs to.
	Run string `json:"run"`
	// Step is the solver step the segment committed at.
	Step int `json:"step"`
	// Note is free-form context ("origin", "segment", "postmortem").
	Note string `json:"note,omitempty"`
	// Artifacts are the outputs this entry pins.
	Artifacts []Artifact `json:"artifacts"`
	// EventDigest is the sha256 of the campaign event log at commit
	// time (zero when no event log is attached).
	EventDigest Hash `json:"event_digest,omitempty"`
	// Recoveries lists the recovery decisions taken since the
	// previous entry ("rank-replace@12", "rollback@8", ...).
	Recoveries []string `json:"recoveries,omitempty"`
}

// Append fills the chain fields of m (Seq, Prev, Root), stores it as
// the next ledger entry, and returns the new chain head (the sha256 of
// the entry's stored bytes). The ledger entry itself goes through the
// same atomic backend path as blobs.
func (s *Store) Append(m Manifest) (Hash, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m.Seq = s.seq
	m.Prev = s.head
	hashes := make([]Hash, len(m.Artifacts))
	for i, a := range m.Artifacts {
		hashes[i] = a.Hash
	}
	m.Root = MerkleRoot(hashes)
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return Hash{}, fmt.Errorf("store: encoding ledger entry %d: %w", m.Seq, err)
	}
	raw = append(raw, '\n')
	if err := s.primary.Put(entryName(m.Seq), raw); err != nil {
		return Hash{}, err
	}
	s.seq++
	s.head = HashOf(raw)
	// Anchor the new head. The entry itself is already committed: a
	// failure here is surfaced (the caller's commit aborts) but leaves
	// only a one-entry-stale anchor, which the next successful Append
	// repairs and Verify tolerates as informational.
	if err := s.primary.Put(anchorName, []byte(s.head.String()+"\n")); err != nil {
		return Hash{}, fmt.Errorf("store: anchoring ledger head: %w", err)
	}
	return s.head, nil
}

// Entries decodes the full ledger in sequence order. Decode failures
// abort — a damaged ledger is a Verify/Scrub matter, not something to
// silently skip here.
func (s *Store) Entries() ([]Manifest, error) {
	names, err := s.primary.List(ledgerPrefix)
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(names))
	for _, name := range names {
		raw, err := s.primary.Get(name)
		if err != nil {
			return nil, fmt.Errorf("store: reading ledger entry %s: %w", name, err)
		}
		var m Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("store: decoding ledger entry %s: %w", name, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// Merkle tree with domain separation between leaves and interior nodes
// (the classic second-preimage defence): leaf = H(0x00 || hash),
// interior = H(0x01 || left || right). An odd node is paired with
// itself. The root over no artifacts is the zero hash.

func merkleLeaf(h Hash) Hash {
	var buf [1 + len(h)]byte
	buf[0] = 0x00
	copy(buf[1:], h[:])
	return HashOf(buf[:])
}

func merkleNode(l, r Hash) Hash {
	var buf [1 + 2*len(l)]byte
	buf[0] = 0x01
	copy(buf[1:], l[:])
	copy(buf[1+len(l):], r[:])
	return HashOf(buf[:])
}

// MerkleRoot computes the Merkle root over artifact content hashes.
func MerkleRoot(hashes []Hash) Hash {
	if len(hashes) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(hashes))
	for i, h := range hashes {
		level[i] = merkleLeaf(h)
	}
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, merkleNode(level[i], level[i+1]))
			} else {
				next = append(next, merkleNode(level[i], level[i]))
			}
		}
		level = next
	}
	return level[0]
}
