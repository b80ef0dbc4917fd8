package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestRunRepairFromReplica: repair with -replica restores a damaged
// primary object from the replica root, and the store verifies clean
// afterwards.
func TestRunRepairFromReplica(t *testing.T) {
	dir := t.TempDir()
	root, replica := filepath.Join(dir, "primary"), filepath.Join(dir, "replica")
	primary, err := store.NewDirBackend(root)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := store.NewDirBackend(replica)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(primary, mirror)
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Put([]byte("checkpoint bytes"))
	if err != nil {
		t.Fatal(err)
	}
	hx := h.String()
	if err := os.WriteFile(filepath.Join(root, "objects", hx[:2], hx), []byte("rotten bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "verify"}, &out, &errOut); code != 1 {
		t.Fatalf("verify of the damaged store: exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-root", root, "repair", "-replica", replica}, &out, &errOut); code != 0 {
		t.Fatalf("repair: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "repaired-from-replica") {
		t.Errorf("repair report lacks the replica restore:\n%s", out.String())
	}
	if code := run([]string{"-root", root, "verify"}, &out, &errOut); code != 0 {
		t.Fatalf("verify after repair: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
