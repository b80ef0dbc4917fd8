// Package store is the durable run ledger: a crash-consistent,
// content-addressed artifact store plus a Merkle-chained manifest log.
// It exists because the repository's correctness methodology rests on
// "sha256-identical to golden" claims — the determinism suite, the
// chaos safety arm, the reshard gates — and those claims are only as
// good as the artifacts they are made about. Checkpoints, postmortems
// and run reports used to live as loose files in a run dir with a
// per-file CRC between them and silent corruption; here every artifact
// is a blob keyed by its sha256 (so bit-identical reruns — the common
// case by design — dedup to one object), every campaign segment appends
// a hash-chained manifest entry, and any past claim is verifiable
// offline by walking the chain (Verify).
//
// All writes go through one atomic path — temp write, fsync, rename,
// directory fsync — behind a pluggable Backend (a local directory now,
// an S3-compatible object store later). The robustness story is tested
// by a seeded filesystem fault layer (FaultPlan: torn writes, bit rot,
// ENOSPC, crash points around the rename), the storage analogue of
// mpi.FaultPlan, driven by the chaos harness and the cmd/yystore
// verify/scrub/gc tools.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Hash is the content address of a blob: its sha256.
type Hash [sha256.Size]byte

// HashOf returns the content address of data.
func HashOf(data []byte) Hash { return sha256.Sum256(data) }

// IsZero reports whether h is the zero hash (no digest recorded).
func (h Hash) IsZero() bool { return h == Hash{} }

func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short is the leading 8 hex digits, for human-facing summaries.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// MarshalText encodes the hash as lowercase hex (JSON-friendly).
func (h Hash) MarshalText() ([]byte, error) {
	out := make([]byte, hex.EncodedLen(len(h)))
	hex.Encode(out, h[:])
	return out, nil
}

// UnmarshalText decodes a lowercase-hex hash.
func (h *Hash) UnmarshalText(text []byte) error {
	if hex.DecodedLen(len(text)) != len(h) {
		return fmt.Errorf("store: hash text of %d chars, want %d", len(text), hex.EncodedLen(len(h)))
	}
	_, err := hex.Decode(h[:], text)
	return err
}

// ParseHash decodes a hex content address.
func ParseHash(s string) (Hash, error) {
	var h Hash
	err := h.UnmarshalText([]byte(s))
	return h, err
}

// objectName maps a content address to its backend name; the two-digit
// fan-out keeps any one directory small on the local backend.
func objectName(h Hash) string {
	hx := h.String()
	return "objects/" + hx[:2] + "/" + hx
}

// parseObjectName inverts objectName.
func parseObjectName(name string) (Hash, bool) {
	rest, ok := strings.CutPrefix(name, "objects/")
	if !ok {
		return Hash{}, false
	}
	i := strings.IndexByte(rest, '/')
	if i != 2 {
		return Hash{}, false
	}
	h, err := ParseHash(rest[i+1:])
	if err != nil || !strings.HasPrefix(rest[i+1:], rest[:2]) {
		return Hash{}, false
	}
	return h, true
}

// MissingObjectError is the typed read failure for a blob the store has
// no object for: the checkpoint ladder in internal/resilience falls
// back through it to an older artifact.
type MissingObjectError struct {
	Hash Hash
}

func (e *MissingObjectError) Error() string {
	return fmt.Sprintf("store: object %s does not exist", e.Hash)
}

// CorruptObjectError is the typed read failure for a blob whose bytes
// no longer hash to its name — bit rot or a tampered object. The
// recovery ladder falls back through it; Scrub repairs or quarantines
// the object.
type CorruptObjectError struct {
	Hash Hash
	// Actual is the content hash the damaged bytes produce.
	Actual Hash
}

func (e *CorruptObjectError) Error() string {
	return fmt.Sprintf("store: object %s is corrupt: content hashes to %s", e.Hash, e.Actual)
}

// RefEntry is one name → content-address pointer. A damaged ref (bytes
// that do not parse as a hash) carries its error instead.
type RefEntry struct {
	Name string
	Hash Hash
	Err  error
}

// Store is a content-addressed artifact store over a primary backend
// and optional replica backends (object mirrors Scrub can repair from).
type Store struct {
	primary  Backend
	replicas []Backend

	mu    sync.RWMutex
	index map[Hash]struct{} // objects known present on the primary
	seq   int               // next ledger sequence number
	head  Hash              // chain hash of the newest ledger entry

	// Write-path counters for the live telemetry plane: lock-free so
	// reading them never contends with the allocation-free dedup fast
	// path they instrument.
	putBytes   atomic.Int64
	dedupHits  atomic.Int64
	dedupBytes atomic.Int64
}

// Stats is a point-in-time read of the store's write-path counters.
// Objects is durable state; the byte/hit counters are per-process
// (they start at zero on Open).
type Stats struct {
	// Objects is the number of blobs in the index.
	Objects int
	// PutBytes counts bytes newly committed by Put (dedup misses).
	PutBytes int64
	// DedupHits counts Puts satisfied by an existing identical blob,
	// and DedupBytes the bytes those Puts did not rewrite.
	DedupHits  int64
	DedupBytes int64
}

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	return Stats{
		Objects:    s.Objects(),
		PutBytes:   s.putBytes.Load(),
		DedupHits:  s.dedupHits.Load(),
		DedupBytes: s.dedupBytes.Load(),
	}
}

// Open loads a store rooted at the primary backend: the object index
// and the ledger head. Replicas are write-through object mirrors used
// by Scrub to re-materialize damaged blobs. Opening never repairs or
// sweeps anything — a crashed writer's leftovers stay visible to
// Verify until Sweep or Scrub is asked to act.
func Open(primary Backend, replicas ...Backend) (*Store, error) {
	s := &Store{primary: primary, replicas: replicas, index: map[Hash]struct{}{}}
	names, err := primary.List("objects/")
	if err != nil {
		return nil, fmt.Errorf("store: listing objects: %w", err)
	}
	for _, n := range names {
		if h, ok := parseObjectName(n); ok {
			s.index[h] = struct{}{}
		}
		// Unparsable names stay out of the index; Verify reports them.
	}
	entries, err := primary.List(ledgerPrefix)
	if err != nil {
		return nil, fmt.Errorf("store: listing ledger: %w", err)
	}
	if len(entries) > 0 {
		last := entries[len(entries)-1]
		seq, ok := parseEntryName(last)
		if !ok {
			return nil, fmt.Errorf("store: alien ledger entry %q", last)
		}
		raw, err := primary.Get(last)
		if err != nil {
			return nil, fmt.Errorf("store: reading ledger head %s: %w", last, err)
		}
		s.seq = seq + 1
		s.head = HashOf(raw)
	}
	return s, nil
}

// Put stores data under its content address and returns the address.
// The steady-state path — a blob the store already holds, the shape
// bit-identical reruns produce — is a hash plus an index hit and
// allocates nothing (pinned by TestStorePutDedupZeroAlloc). A miss
// commits the object atomically to the primary and mirrors it to every
// replica.
func (s *Store) Put(data []byte) (Hash, error) {
	h := HashOf(data)
	s.mu.RLock()
	_, ok := s.index[h]
	s.mu.RUnlock()
	if ok {
		s.dedupHits.Add(1)
		s.dedupBytes.Add(int64(len(data)))
		return h, nil
	}
	name := objectName(h)
	if err := s.primary.Put(name, data); err != nil {
		return Hash{}, err
	}
	for _, r := range s.replicas {
		if err := r.Put(name, data); err != nil {
			return Hash{}, fmt.Errorf("store: mirroring %s: %w", name, err)
		}
	}
	s.mu.Lock()
	s.index[h] = struct{}{}
	s.mu.Unlock()
	s.putBytes.Add(int64(len(data)))
	return h, nil
}

// Has reports whether the store's index holds the object.
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[h]
	return ok
}

// Objects returns the number of indexed blobs.
func (s *Store) Objects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Get returns the blob's bytes, verified against its content address on
// every read: a missing object is a *MissingObjectError, damaged bytes
// are a *CorruptObjectError — the typed failures the resilience
// recovery ladder falls back through.
func (s *Store) Get(h Hash) ([]byte, error) {
	data, err := s.primary.Get(objectName(h))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, &MissingObjectError{Hash: h}
		}
		return nil, err
	}
	if got := HashOf(data); got != h {
		return nil, &CorruptObjectError{Hash: h, Actual: got}
	}
	return data, nil
}

// SetRef atomically points a mutable name at a content address.
func (s *Store) SetRef(name string, h Hash) error {
	return s.primary.Put(refPrefix+name, []byte(h.String()+"\n"))
}

// Ref resolves a name set with SetRef. A missing ref satisfies
// errors.Is(err, fs.ErrNotExist).
func (s *Store) Ref(name string) (Hash, error) {
	raw, err := s.primary.Get(refPrefix + name)
	if err != nil {
		return Hash{}, err
	}
	return ParseHash(strings.TrimSpace(string(raw)))
}

// DelRef removes a ref; the object it pointed at stays until GC finds
// it unreachable from both the refs and the ledger.
func (s *Store) DelRef(name string) error {
	return s.primary.Remove(refPrefix + name)
}

// Refs lists every ref under the prefix, sorted by name. Damaged refs
// are returned with their parse error set rather than dropped.
func (s *Store) Refs(prefix string) ([]RefEntry, error) {
	names, err := s.primary.List(refPrefix + prefix)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []RefEntry
	for _, n := range names {
		e := RefEntry{Name: strings.TrimPrefix(n, refPrefix)}
		raw, err := s.primary.Get(n)
		if err != nil {
			e.Err = err
		} else if e.Hash, err = ParseHash(strings.TrimSpace(string(raw))); err != nil {
			e.Err = err
		}
		out = append(out, e)
	}
	return out, nil
}

// Sweep removes orphaned temp files a crashed writer left behind (a
// crash between temp write and rename strands them forever otherwise)
// and returns their names. Campaign starts call this; Verify reports
// the orphans instead if it runs first.
func (s *Store) Sweep() ([]string, error) {
	return s.primary.SweepTemps()
}

const refPrefix = "refs/"
