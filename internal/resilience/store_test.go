package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/store"
)

func testStore(t *testing.T) (*store.Store, *store.DirBackend) {
	t.Helper()
	b, err := store.NewDirBackend(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatalf("NewDirBackend: %v", err)
	}
	s, err := store.Open(b)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, b
}

func storeConfig(t *testing.T, steps, every int) (Config, *store.Store, *store.DirBackend) {
	t.Helper()
	cfg := testConfig(t, steps, every)
	cfg.Dir = ""
	st, b := testStore(t)
	cfg.Store = st
	cfg.RunID = "test"
	return cfg, st, b
}

func ckptBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteCheckpoint(&buf, res.Final); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestCampaignThroughStore: a campaign over the content-addressed
// store commits the same trajectory as the loose-file substrate —
// byte-identical final state — and leaves a clean, Merkle-chained
// ledger behind: one entry per commit, recovery decisions recorded,
// refs pruned to Keep.
func TestCampaignThroughStore(t *testing.T) {
	dirCfg := testConfig(t, 6, 2)
	want, err := RunCampaign(dirCfg)
	if err != nil {
		t.Fatalf("dir campaign: %v", err)
	}

	cfg, st, _ := storeConfig(t, 6, 2)
	cfg.DTSchedule = want.DTs // same trajectory, bit for bit
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("store campaign: %v", err)
	}
	if res.FinalStep != 6 || res.Retries != 0 {
		t.Fatalf("FinalStep=%d Retries=%d", res.FinalStep, res.Retries)
	}
	if !bytes.Equal(ckptBytes(t, res), ckptBytes(t, want)) {
		t.Fatal("store-substrate campaign final state differs from dir-substrate golden")
	}

	// Ledger: origin + 3 segment commits, chained.
	entries, err := st.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("ledger holds %d entries, want 4 (origin + 3 segments)", len(entries))
	}
	if entries[0].Note != "origin" || entries[0].Step != 0 {
		t.Fatalf("first entry = %+v, want origin at step 0", entries[0])
	}
	for i, m := range entries {
		if m.Run != "test" {
			t.Fatalf("entry %d run %q", i, m.Run)
		}
		if len(m.Artifacts) != 1 || m.Artifacts[0].Role != "checkpoint" {
			t.Fatalf("entry %d artifacts %+v", i, m.Artifacts)
		}
		if m.EventDigest.IsZero() {
			t.Fatalf("entry %d has no event digest", i)
		}
	}
	if entries[3].Step != 6 {
		t.Fatalf("last entry step %d, want 6", entries[3].Step)
	}

	// Refs pruned to Keep (2): steps 4 and 6 survive.
	refs, err := st.Refs("runs/test/")
	if err != nil {
		t.Fatalf("Refs: %v", err)
	}
	var names []string
	for _, r := range refs {
		names = append(names, r.Name)
	}
	if len(refs) != 2 || !strings.HasSuffix(refs[0].Name, "ckpt-000000004") || !strings.HasSuffix(refs[1].Name, "ckpt-000000006") {
		t.Fatalf("refs after prune = %v, want ckpt-4 and ckpt-6", names)
	}

	// The whole history verifies: pruned blobs are still ledger-pinned,
	// so the only acceptable findings are... none, because dedup means
	// every pinned blob is still present until GC.
	rep, err := st.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.Severe() != 0 {
		t.Fatalf("store damaged after campaign:\n%s", rep)
	}
}

// TestCampaignDedupAcrossReruns is the dedup acceptance criterion: N
// bit-identical reruns of the same campaign into one store add zero
// new checkpoint blobs after the first — only refs and ledger entries
// grow.
func TestCampaignDedupAcrossReruns(t *testing.T) {
	cfg, st, _ := storeConfig(t, 4, 2)
	cfg.RunID = "run-0"
	first, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("run-0: %v", err)
	}
	objectsAfterFirst := st.Objects()
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	entriesAfterFirst := len(entries)

	for i := 1; i <= 2; i++ {
		cfg.RunID = fmt.Sprintf("run-%d", i)
		cfg.DTSchedule = first.DTs // pin the trajectory: reruns are bit-identical by design
		res, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("run-%d: %v", i, err)
		}
		if !bytes.Equal(ckptBytes(t, res), ckptBytes(t, first)) {
			t.Fatalf("run-%d final state not bit-identical", i)
		}
	}

	if st.Objects() != objectsAfterFirst {
		t.Fatalf("reruns grew the object set: %d -> %d blobs; bit-identical checkpoints must dedup",
			objectsAfterFirst, st.Objects())
	}
	if entries, err = st.Entries(); err != nil || len(entries) <= entriesAfterFirst {
		t.Fatalf("ledger did not record the reruns: %d entries (%v)", len(entries), err)
	}
	// Three runs' refs point into the shared blob set.
	for i := 0; i <= 2; i++ {
		refs, err := st.Refs(fmt.Sprintf("runs/run-%d/", i))
		if err != nil || len(refs) == 0 {
			t.Fatalf("run-%d refs = %v, %v", i, refs, err)
		}
	}
	rep, err := st.Verify()
	if err != nil || rep.Severe() != 0 {
		t.Fatalf("shared store damaged (%v):\n%s", err, rep)
	}
}

// TestCampaignENOSPCTypedError is the ENOSPC satellite: a permanently
// full disk during a checkpoint write surfaces immediately as the
// typed *store.DiskFullError — no trips through the dt-backoff retry
// ladder, which exists for solver and runtime faults, not full disks.
func TestCampaignENOSPCTypedError(t *testing.T) {
	cfg, _, b := storeConfig(t, 4, 2)
	// Let the origin commit through, then the disk fills for good.
	b.SetFaults(store.NewFaultPlan([]store.Fault{{Op: -1, Kind: store.FaultENOSPC}}))
	_, err := RunCampaign(cfg)
	var full *store.DiskFullError
	if !errors.As(err, &full) {
		t.Fatalf("campaign error = %v, want *store.DiskFullError", err)
	}
}

// TestFailedCommitLeavesFinalAtLastCommit: when a segment's checkpoint
// write fails, the history handed back with the error ends at the last
// commit — Final, FinalStep and Diags alike; the gathered but
// uncommitted segment is not in it.
func TestFailedCommitLeavesFinalAtLastCommit(t *testing.T) {
	cfg, _, b := storeConfig(t, 2, 2)
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	b.SetFaults(store.NewFaultPlan([]store.Fault{{Op: -1, Kind: store.FaultENOSPC}}))
	cfg.Steps = 4
	res, err := RunCampaign(cfg)
	var full *store.DiskFullError
	if !errors.As(err, &full) {
		t.Fatalf("campaign error = %v, want *store.DiskFullError", err)
	}
	if res == nil || res.Final == nil || res.FinalStep != 2 || res.Final.Step != 2 || len(res.Diags) != 0 {
		t.Fatalf("after a failed commit of step 4: %+v, want Final and FinalStep at step 2, no diagnostics", res)
	}
}

// TestCampaignStoreCorruptNewestFallsBack: resuming through the store
// with a bit-rotted newest checkpoint falls back to the next-newest,
// exactly like the loose-file ladder.
func TestCampaignStoreCorruptNewestFallsBack(t *testing.T) {
	cfg, st, b := storeConfig(t, 4, 2)
	cfg.Keep = 3
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if res.FinalStep != 4 {
		t.Fatalf("FinalStep = %d", res.FinalStep)
	}
	// Rot the newest checkpoint's blob, then quarantine it via scrub
	// (Get would fail typed either way; scrub makes it a clean miss).
	newest, err := st.Ref("runs/test/ckpt-000000004")
	if err != nil {
		t.Fatalf("Ref: %v", err)
	}
	data, err := st.Get(newest)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	corruptStoredObject(t, b, newest, data)

	// Resume to more steps: the newest (step 4) no longer reads back,
	// so the campaign rewinds to step 2 and replays forward.
	cfg.Steps = 6
	cfg.DTSchedule = append(append([]float64{}, res.DTs...), res.DTs[len(res.DTs)-1])
	res2, err := RunCampaign(cfg)
	if err != nil {
		t.Fatalf("resume over corrupt newest: %v", err)
	}
	if !res2.Resumed || res2.StartStep != 2 {
		t.Fatalf("Resumed=%v StartStep=%d, want resume from step 2", res2.Resumed, res2.StartStep)
	}
	if res2.FinalStep != 6 {
		t.Fatalf("FinalStep = %d, want 6", res2.FinalStep)
	}
}

// corruptStoredObject flips a bit of a committed object in the
// store's backing directory, the way real bit rot would.
func corruptStoredObject(t *testing.T, b *store.DirBackend, h store.Hash, original []byte) {
	t.Helper()
	damaged := append([]byte{}, original...)
	damaged[len(damaged)/3] ^= 0x10
	hx := h.String()
	if err := b.Put("objects/"+hx[:2]+"/"+hx, damaged); err != nil {
		t.Fatalf("corrupting object: %v", err)
	}
}

// TestCampaignSweepsOrphanTemps is the orphan-temp satellite: a crash
// between a checkpoint's temp write and its rename leaves a *.tmp file
// nothing would ever reclaim; the next campaign start sweeps it, in
// both substrates.
func TestCampaignSweepsOrphanTemps(t *testing.T) {
	t.Run("dir", func(t *testing.T) {
		cfg := testConfig(t, 2, 2)
		orphan := filepath.Join(cfg.Dir, ckptName(0)+".tmp-4242")
		if err := store.WriteFileAtomic(orphan, []byte("half-written checkpoint"), 0o644); err != nil {
			t.Fatalf("planting orphan: %v", err)
		}
		res, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		if _, err := os.Stat(orphan); err == nil {
			t.Fatal("orphan temp survived the campaign start sweep")
		}
		if !eventsMention(res, "swept 1 orphan temp") {
			t.Fatalf("no sweep note in the event timeline: %v", res.Events)
		}
	})
	t.Run("store", func(t *testing.T) {
		cfg, _, b := storeConfig(t, 2, 2)
		// A torn write strands a real temp in the backend.
		b.SetFaults(store.NewFaultPlan([]store.Fault{{Op: 0, Kind: store.FaultTornWrite, Byte: 3}}))
		var full *store.CrashError
		if _, err := RunCampaign(cfg); !errors.As(err, &full) {
			t.Fatalf("torn origin write = %v, want *store.CrashError", err)
		}
		if temps, _ := b.Temps(); len(temps) != 1 {
			t.Fatalf("Temps = %v, want the stranded orphan", temps)
		}
		b.SetFaults(nil)
		res, err := RunCampaign(cfg)
		if err != nil {
			t.Fatalf("second campaign: %v", err)
		}
		if temps, _ := b.Temps(); len(temps) != 0 {
			t.Fatalf("orphan survived the sweep: %v", temps)
		}
		if !eventsMention(res, "swept 1 orphan temp") {
			t.Fatalf("no sweep note in the event timeline: %v", res.Events)
		}
	})
}

func eventsMention(res *Result, frag string) bool {
	for _, e := range res.Events {
		if strings.Contains(e.Detail, frag) {
			return true
		}
	}
	return false
}
