package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func newTestStore(t *testing.T, replicas ...Backend) (*Store, *DirBackend) {
	t.Helper()
	b, err := NewDirBackend(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatalf("NewDirBackend: %v", err)
	}
	s, err := Open(b, replicas...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, b
}

func TestPutGetRoundtrip(t *testing.T) {
	s, _ := newTestStore(t)
	data := []byte("the quick brown fox")
	h, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if h != HashOf(data) {
		t.Fatalf("Put hash %s, want %s", h, HashOf(data))
	}
	got, err := s.Get(h)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("Get = %q, want %q", got, data)
	}
	if _, ok := s.index[h]; !ok {
		t.Fatal("Has = false after Put")
	}
}

func TestPutDedup(t *testing.T) {
	s, b := newTestStore(t)
	data := []byte("bit-identical rerun checkpoint payload")
	var first Hash
	for i := 0; i < 5; i++ {
		h, err := s.Put(data)
		if err != nil {
			t.Fatalf("Put #%d: %v", i, err)
		}
		if i == 0 {
			first = h
		} else if h != first {
			t.Fatalf("Put #%d hash %s, want %s", i, h, first)
		}
	}
	if s.Objects() != 1 {
		t.Fatalf("Objects = %d after 5 identical Puts, want 1", s.Objects())
	}
	names, err := b.List("objects/")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 1 {
		t.Fatalf("backend holds %d objects after 5 identical Puts, want 1", len(names))
	}
	// Dedup hits must not touch the backend at all: the op counter
	// only advances on real writes.
	if b.ops != 1 {
		t.Fatalf("backend saw %d Puts, want 1", b.ops)
	}
}

func TestGetMissingTyped(t *testing.T) {
	s, _ := newTestStore(t)
	h := HashOf([]byte("never stored"))
	_, err := s.Get(h)
	var miss *MissingObjectError
	if !errors.As(err, &miss) {
		t.Fatalf("Get(missing) = %v, want *MissingObjectError", err)
	}
	if miss.Hash != h {
		t.Fatalf("MissingObjectError.Hash = %s, want %s", miss.Hash, h)
	}
}

func TestGetCorruptTyped(t *testing.T) {
	s, b := newTestStore(t)
	h, err := s.Put([]byte("soon to rot"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	flipBit(filepath.Join(b.root, filepath.FromSlash(objectName(h))), 3)
	_, err = s.Get(h)
	var corr *CorruptObjectError
	if !errors.As(err, &corr) {
		t.Fatalf("Get(corrupt) = %v, want *CorruptObjectError", err)
	}
	if corr.Hash != h || corr.Actual == h {
		t.Fatalf("CorruptObjectError = %+v, want Hash=%s, Actual!=Hash", corr, h)
	}
}

func TestHashTextRoundtrip(t *testing.T) {
	h := HashOf([]byte("x"))
	text, err := h.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	var back Hash
	if err := back.UnmarshalText(text); err != nil {
		t.Fatalf("UnmarshalText: %v", err)
	}
	if back != h {
		t.Fatalf("roundtrip %s != %s", back, h)
	}
	if _, err := ParseHash("zz"); err == nil {
		t.Fatal("ParseHash accepted a 2-char string")
	}
}

func TestRefs(t *testing.T) {
	s, _ := newTestStore(t)
	h1, _ := s.Put([]byte("one"))
	h2, _ := s.Put([]byte("two"))
	if err := s.SetRef("runs/a/ckpt-000000001", h1); err != nil {
		t.Fatalf("SetRef: %v", err)
	}
	if err := s.SetRef("runs/a/ckpt-000000002", h2); err != nil {
		t.Fatalf("SetRef: %v", err)
	}
	got, err := s.Ref("runs/a/ckpt-000000002")
	if err != nil || got != h2 {
		t.Fatalf("Ref = %s, %v, want %s", got, err, h2)
	}
	refs, err := s.Refs("runs/a/")
	if err != nil {
		t.Fatalf("Refs: %v", err)
	}
	if len(refs) != 2 || refs[0].Hash != h1 || refs[1].Hash != h2 {
		t.Fatalf("Refs = %+v", refs)
	}
	if err := s.DelRef("runs/a/ckpt-000000001"); err != nil {
		t.Fatalf("DelRef: %v", err)
	}
	if _, err := s.Ref("runs/a/ckpt-000000001"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Ref after DelRef = %v, want fs.ErrNotExist", err)
	}
	// Retargeting a ref is an atomic replace, not an error.
	if err := s.SetRef("runs/a/ckpt-000000002", h1); err != nil {
		t.Fatalf("SetRef retarget: %v", err)
	}
	if got, _ := s.Ref("runs/a/ckpt-000000002"); got != h1 {
		t.Fatalf("retargeted Ref = %s, want %s", got, h1)
	}
}

func TestLedgerChainAndReopen(t *testing.T) {
	s, b := newTestStore(t)
	var heads []Hash
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("ckpt %d", i))
		h, err := s.Put(data)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		head, err := s.Append(Manifest{
			Run:  "t",
			Step: i * 4,
			Artifacts: []Artifact{
				{Name: fmt.Sprintf("ckpt-%09d", i*4), Role: "checkpoint", Hash: h, Size: int64(len(data))},
			},
		})
		if err != nil {
			t.Fatalf("Append #%d: %v", i, err)
		}
		heads = append(heads, head)
	}
	entries, err := s.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("Entries = %d, want 3", len(entries))
	}
	for i, m := range entries {
		if m.Seq != i {
			t.Fatalf("entry %d has Seq %d", i, m.Seq)
		}
		if i > 0 && m.Prev != heads[i-1] {
			t.Fatalf("entry %d Prev = %s, want %s", i, m.Prev.Short(), heads[i-1].Short())
		}
	}
	if !entries[0].Prev.IsZero() {
		t.Fatalf("first entry Prev = %s, want zero", entries[0].Prev)
	}

	// Reopening resumes the chain where it left off.
	s2, err := Open(b)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	head, n := s2.head, s2.seq
	if n != 3 || head != heads[2] {
		t.Fatalf("reopened Head = %s, %d; want %s, 3", head.Short(), n, heads[2].Short())
	}
	if s2.Objects() != 3 {
		t.Fatalf("reopened Objects = %d, want 3", s2.Objects())
	}
	head4, err := s2.Append(Manifest{Run: "t", Step: 12})
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	entries, _ = s2.Entries()
	if len(entries) != 4 || entries[3].Prev != heads[2] || entries[3].Seq != 3 {
		t.Fatalf("post-reopen chain broken: %+v", entries[len(entries)-1])
	}
	_ = head4
}

func TestMerkleRootProperties(t *testing.T) {
	if !MerkleRoot(nil).IsZero() {
		t.Fatal("MerkleRoot(nil) not zero")
	}
	h := func(s string) Hash { return HashOf([]byte(s)) }
	one := MerkleRoot([]Hash{h("a")})
	if one.IsZero() || one == h("a") {
		t.Fatal("single-leaf root must be domain-separated from the leaf hash")
	}
	ab := MerkleRoot([]Hash{h("a"), h("b")})
	ba := MerkleRoot([]Hash{h("b"), h("a")})
	if ab == ba {
		t.Fatal("root must be order-sensitive")
	}
	// Odd counts pair the last with itself; changing any leaf moves the root.
	abc := MerkleRoot([]Hash{h("a"), h("b"), h("c")})
	abd := MerkleRoot([]Hash{h("a"), h("b"), h("d")})
	if abc == abd || abc == ab {
		t.Fatal("3-leaf roots must be distinct per content")
	}
}

func TestBackendRejectsEscapingNames(t *testing.T) {
	_, b := newTestStore(t)
	for _, name := range []string{"", "/abs", "a/../../etc/passwd"} {
		if err := b.Put(name, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", name)
		}
		if _, err := b.Get(name); err == nil {
			t.Fatalf("Get(%q) accepted", name)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic overwrite: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir holds %d entries after atomic writes, want 1 (no temps)", len(ents))
	}
}

func TestSweepTemps(t *testing.T) {
	s, b := newTestStore(t)
	// A torn write strands a temp; List must not see it, Sweep must
	// remove it.
	b.SetFaults(NewFaultPlan([]Fault{{Op: 0, Kind: FaultTornWrite, Byte: 2}}))
	_, err := s.Put([]byte("payload"))
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("torn Put = %v, want *CrashError", err)
	}
	temps, err := b.Temps()
	if err != nil || len(temps) != 1 {
		t.Fatalf("Temps = %v, %v; want one orphan", temps, err)
	}
	names, _ := b.List("objects/")
	if len(names) != 0 {
		t.Fatalf("List sees %v; temps must be invisible", names)
	}
	swept, err := s.Sweep()
	if err != nil || len(swept) != 1 {
		t.Fatalf("Sweep = %v, %v; want the orphan", swept, err)
	}
	temps, _ = b.Temps()
	if len(temps) != 0 {
		t.Fatalf("Temps after sweep = %v", temps)
	}
}

func TestENOSPCTyped(t *testing.T) {
	s, b := newTestStore(t)
	b.SetFaults(NewFaultPlan([]Fault{{Op: -1, Kind: FaultENOSPC}}))
	_, err := s.Put([]byte("payload"))
	var full *DiskFullError
	if !errors.As(err, &full) {
		t.Fatalf("Put = %v, want *DiskFullError", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatal("DiskFullError must unwrap to syscall.ENOSPC")
	}
	// Persistent fault: every subsequent Put keeps failing.
	if _, err := s.Put([]byte("other")); !errors.As(err, &full) {
		t.Fatalf("second Put = %v, want *DiskFullError", err)
	}
}

func TestCrashFaultsLeaveNoVisibleBlob(t *testing.T) {
	for _, kind := range []FaultKind{FaultTornWrite, FaultCrashBeforeRename} {
		s, b := newTestStore(t)
		b.SetFaults(NewFaultPlan([]Fault{{Op: 0, Kind: kind}}))
		_, err := s.Put([]byte("payload"))
		var crash *CrashError
		if !errors.As(err, &crash) {
			t.Fatalf("%s: Put = %v, want *CrashError", kind, err)
		}
		if names, _ := b.List("objects/"); len(names) != 0 {
			t.Fatalf("%s: blob visible after crash: %v", kind, names)
		}
	}
}

func TestCrashAfterRenameCommits(t *testing.T) {
	s, b := newTestStore(t)
	b.SetFaults(NewFaultPlan([]Fault{{Op: 0, Kind: FaultCrashAfterRename}}))
	data := []byte("payload")
	_, err := s.Put(data)
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("Put = %v, want *CrashError", err)
	}
	// The rename is the commit point: a reopened store sees the blob
	// whole even though the writer died before the dir-fsync.
	s2, err := Open(b)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := s2.Get(HashOf(data))
	if err != nil || string(got) != string(data) {
		t.Fatalf("Get after crash-after-rename = %q, %v", got, err)
	}
}

// TestStorePutDedupZeroAlloc pins the steady-state blob-write contract:
// re-putting a blob the store already holds is a sha256 plus an index
// hit and must not touch the allocator. The payload is checkpoint-sized
// so the hash, not the call overhead, is what runs.
func TestStorePutDedupZeroAlloc(t *testing.T) {
	st, _ := newTestStore(t)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if _, err := st.Put(payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.Put(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Put allocates %.1f allocs/op, want 0", allocs)
	}
}
