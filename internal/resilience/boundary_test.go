package resilience

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// TestSegmentCommitAllocBudget pins what the Interior-based segment
// boundary bought: committing a gathered segment — validation, encode,
// durable write, ledger append or rename, prune — allocates at most a
// quarter of the checkpoint's size through either sink, where the
// per-row encoder scratch used to cost about 130x and a fresh encode
// buffer per store commit 1.1x. The checkpoint bytes themselves are
// never allocated per commit: the directory sink streams them into the
// file, the store sink encodes into one reused buffer.
func TestSegmentCommitAllocBudget(t *testing.T) {
	cfg, _, _ := storeConfig(t, 2, 2)
	cfg = cfg.withDefaults()
	sv, err := mhd.NewSolver(cfg.Core.Spec(), *cfg.Core.Params, *cfg.Core.IC)
	if err != nil {
		t.Fatal(err)
	}
	state := snapshot.InteriorOf(sv)
	raw, err := state.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dirCfg := cfg
	dirCfg.Store, dirCfg.Dir = nil, t.TempDir()
	for name, c := range map[string]Config{"store": cfg, "dir": dirCfg} {
		sink, err := c.sink()
		if err != nil {
			t.Fatal(err)
		}
		state.Step = 0
		if err := sink.write(state, segMeta{note: "origin"}); err != nil {
			t.Fatal(err)
		}
		const commits = 3
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < commits; i++ {
			state.Step += 2
			state.Fields[0][0][i]++ // a new blob every commit, as a run produces
			if err := validate(state); err != nil {
				t.Fatal(err)
			}
			if err := sink.write(state, segMeta{note: "segment"}); err != nil {
				t.Fatal(err)
			}
			if err := sink.prune(cfg.Keep); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms1)
		per := (ms1.TotalAlloc - ms0.TotalAlloc) / commits
		t.Logf("%s sink: %d bytes allocated per commit of a %d-byte checkpoint", name, per, len(raw))
		if budget := uint64(len(raw) / 4); per > budget {
			t.Errorf("%s sink: %d bytes allocated per committed segment of a %d-byte checkpoint, budget %d",
				name, per, len(raw), budget)
		}
	}
}

// TestFirstCommitAllocBudget: a sink's first commit — the one every
// campaign call makes on a fresh sink — allocates its encode buffer
// once, at the checkpoint's size, plus the quarter-checkpoint budget of
// any later commit, where a buffer doubling as the encode filled it
// made about twice the checkpoint of garbage.
func TestFirstCommitAllocBudget(t *testing.T) {
	cfg, _, _ := storeConfig(t, 2, 2)
	cfg = cfg.withDefaults()
	sv, err := mhd.NewSolver(cfg.Core.Spec(), *cfg.Core.Params, *cfg.Core.IC)
	if err != nil {
		t.Fatal(err)
	}
	state := snapshot.InteriorOf(sv)
	size := uint64(state.EncodedLen())
	// What growing a buffer to that size once allocates in this build:
	// a race build allocates the buffer twice.
	var ms0, ms1 runtime.MemStats
	var buf bytes.Buffer
	runtime.ReadMemStats(&ms0)
	buf.Grow(int(size))
	runtime.ReadMemStats(&ms1)
	once := ms1.TotalAlloc - ms0.TotalAlloc
	dirCfg := cfg
	dirCfg.Store, dirCfg.Dir = nil, t.TempDir()
	for name, c := range map[string]Config{"store": cfg, "dir": dirCfg} {
		sink, err := c.sink()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms0)
		if err := sink.write(state, segMeta{note: "origin"}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		got := ms1.TotalAlloc - ms0.TotalAlloc
		t.Logf("%s sink: %d bytes allocated by the first commit of a %d-byte checkpoint", name, got, size)
		if budget := once + size/4; got > budget {
			t.Errorf("%s sink: first commit allocated %d bytes for a %d-byte checkpoint, budget %d",
				name, got, size, budget)
		}
	}
}

// TestCampaignWorldSizeEquivalence: over random small grids, campaigns
// of world size 1 (the serial segment path), 2, 4 and 8 — blank ranks
// scattered into at every segment — all commit the final sha256 of the
// plain serial solver stepping from the initial condition.
func TestCampaignWorldSizeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 2; trial++ {
		ccfg := core.Config{Nr: 5 + rng.Intn(6), Nt: 9 + 2*rng.Intn(4)}.WithDefaults()
		const dt = 2e-3
		ref, err := mhd.NewSolver(ccfg.Spec(), *ccfg.Params, *ccfg.IC)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			ref.Advance(dt)
		}
		want := finalSHA(t, &Result{Final: ref})
		for _, nProcs := range []int{1, 2, 4, 8} {
			res, err := RunCampaign(Config{
				Core: ccfg, NProcs: nProcs, Steps: 4, CheckpointEvery: 2,
				Dir: t.TempDir(), DTSchedule: []float64{dt, dt},
			})
			if err != nil {
				t.Fatalf("grid %dx%d, %d ranks: %v", ccfg.Nr, ccfg.Nt, nProcs, err)
			}
			if res.Retries != 0 || finalSHA(t, res) != want {
				t.Errorf("grid %dx%d, %d ranks: retries %d, final state differs from the serial solver's: %v",
					ccfg.Nr, ccfg.Nt, nProcs, res.Retries, finalSHA(t, res) != want)
			}
		}
	}
}

// TestResumeFallsBackPastLyingHeader: a ~100-byte "newest" checkpoint
// whose header passes every sanity bound while describing a grid of
// 1.3e13 values a slab is skipped by the fallback ladder like any other
// corrupt file — the old decoder allocated from the header before it
// read a payload byte and took the resuming campaign down with it.
func TestResumeFallsBackPastLyingHeader(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(cfg.Dir, ckptName(4))
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	lying := raw[:116] // magic + header
	binary.LittleEndian.PutUint32(lying[8:], 1<<14)
	binary.LittleEndian.PutUint32(lying[12:], 1<<14)
	binary.LittleEndian.PutUint32(lying[16:], 3<<14)
	if err := os.WriteFile(newest, lying, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Steps = 6
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.StartStep != 2 || res.FinalStep != 6 {
		t.Errorf("Resumed=%v StartStep=%d FinalStep=%d, want a fallback resume from step 2 to 6",
			res.Resumed, res.StartStep, res.FinalStep)
	}
}

// TestCampaignLaunchesOneWorld pins "one world per call" by its memory
// bill: a fault-free 12-step 2-rank campaign committed as 6 segments
// allocates (MemStats.TotalAlloc) less than one world launch more than
// the same 12 steps committed as one segment, where a world per segment
// cost five launches more. The comparison is differential because the
// call's fixed costs — the origin solver and Result.Final — alone come
// to about 1.3 launches at this grid. Estimating dt costs no solver
// either: the 6 segments without a DTSchedule allocate less than a
// quarter launch more than with one, where a solver per segment used
// to cost 4.45 launches more.
func TestCampaignLaunchesOneWorld(t *testing.T) {
	sched := []float64{2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3}
	campaign := func(every int, sched []float64) *Result {
		cfg, _, _ := storeConfig(t, 12, every)
		cfg.DTSchedule = sched
		res, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries != 0 || len(res.Diags) != 12/every {
			t.Fatalf("campaign: %d retries, %d segments, want a fault-free %d", res.Retries, len(res.Diags), 12/every)
		}
		return res
	}
	cfg := testConfig(t, 12, 2).withDefaults()
	layout, err := decomp.NewLayout(cfg.Core.Spec(), cfg.NProcs)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := mhd.NewSolver(cfg.Core.Spec(), *cfg.Core.Params, *cfg.Core.IC)
	if err != nil {
		t.Fatal(err)
	}
	start := snapshot.InteriorOf(sv)
	state := func(int) (*snapshot.Interior, error) { return start, nil }
	launch := func() {
		err := core.RunRanksFrom(cfg.Core, layout, mpi.RunConfig{}, nil, state, func(*mpi.Comm, *decomp.Rank, *obs.RankRec) {})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Warm the memoized overset plans and every lazy package state.
	launch()
	campaign(12, sched)
	var ms [5]runtime.MemStats
	runtime.ReadMemStats(&ms[0])
	launch()
	runtime.ReadMemStats(&ms[1])
	one := campaign(12, sched)
	runtime.ReadMemStats(&ms[2])
	six := campaign(2, sched)
	runtime.ReadMemStats(&ms[3])
	campaign(2, nil)
	runtime.ReadMemStats(&ms[4])
	if finalSHA(t, one) != finalSHA(t, six) {
		t.Fatal("the 1- and 6-segment campaigns end on different states")
	}
	perLaunch := ms[1].TotalAlloc - ms[0].TotalAlloc
	extra := int64(ms[3].TotalAlloc-ms[2].TotalAlloc) - int64(ms[2].TotalAlloc-ms[1].TotalAlloc)
	t.Logf("world launch %d bytes; 6 segments allocate %d bytes more than 1 (%.2f launches)",
		perLaunch, extra, float64(extra)/float64(perLaunch))
	if extra >= int64(perLaunch) {
		t.Errorf("6 segments allocate %d bytes more than 1, not under one world launch (%d bytes)", extra, perLaunch)
	}
	estimate := int64(ms[4].TotalAlloc-ms[3].TotalAlloc) - int64(ms[3].TotalAlloc-ms[2].TotalAlloc)
	t.Logf("6 segments without a DTSchedule allocate %d bytes more than with one (%.2f launches)",
		estimate, float64(estimate)/float64(perLaunch))
	if estimate >= int64(perLaunch)/4 {
		t.Errorf("estimating dt costs %d bytes over 6 segments, not under a quarter world launch (%d bytes)", estimate, perLaunch/4)
	}
}

// TestOnCommitPerSegment: OnCommit sees each segment as it commits —
// one call per segment, the new commit last in Diags and DTs — and the
// calls add up to the Result the campaign returns.
func TestOnCommitPerSegment(t *testing.T) {
	var steps []int
	cfg := Config{
		Core: core.Config{Nr: 5, Nt: 9}, NProcs: 1, Steps: 6, CheckpointEvery: 2,
		OnCommit: func(res *Result) {
			if len(res.Diags) != len(steps)+1 || len(res.DTs) != len(res.Diags) {
				t.Errorf("commit %d: %d diagnostics, %d time steps", len(steps)+1, len(res.Diags), len(res.DTs))
				return
			}
			steps = append(steps, res.Diags[len(res.Diags)-1].Step)
		},
	}
	res, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 4, 6}; !slices.Equal(steps, want) || len(res.Diags) != len(want) {
		t.Errorf("OnCommit saw steps %v, want %v; result has %d commits", steps, want, len(res.Diags))
	}
}
