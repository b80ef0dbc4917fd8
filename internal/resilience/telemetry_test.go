package resilience

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
)

// TestTelemetrizedCampaignIdentical is the plane's zero-perturbation
// gate: a 4-rank campaign watched by a served, scraped telemetry plane
// commits a final state byte-identical to the same campaign run dark.
func TestTelemetrizedCampaignIdentical(t *testing.T) {
	golden := testConfig(t, 6, 2)
	golden.NProcs = 4
	want, err := RunCampaign(golden)
	if err != nil {
		t.Fatalf("dark campaign: %v", err)
	}

	cfg := testConfig(t, 6, 2)
	cfg.NProcs = 4
	cfg.DTSchedule = want.DTs
	cfg.Obs = obs.New(obs.Config{})
	plane := telemetry.New(telemetry.Config{Interval: 10 * time.Millisecond})
	cfg.Telemetry = plane
	addr, err := plane.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	// Scrape aggressively while the campaign runs: reads must never
	// perturb the physics.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				http.Get("http://" + addr + "/metrics") //nolint:errcheck
			}
		}
	}()
	res, err := RunCampaign(cfg)
	close(stop)
	if err != nil {
		t.Fatalf("telemetrized campaign: %v", err)
	}
	if !bytes.Equal(ckptBytes(t, res), ckptBytes(t, want)) {
		t.Fatal("telemetrized campaign final state differs from dark golden")
	}

	// The plane saw the run: progress counters landed and all four
	// ranks published.
	info := plane.Progress()
	if !info.Done || info.CommittedStep != 6 || info.TotalSteps != 6 {
		t.Fatalf("progress = %+v", info)
	}
	if len(info.Ranks) != 4 {
		t.Fatalf("%d rank rows, want 4", len(info.Ranks))
	}
	for _, r := range info.Ranks {
		if r.Step < 1 {
			t.Fatalf("rank %d never published: %+v", r.Rank, r)
		}
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "yy_progress_done 1") {
		t.Fatal("final scrape lacks yy_progress_done 1")
	}
}

// TestCampaignCommitsProfiles: with a plane attached, every committed
// segment's CPU+heap pprof blobs are pinned into the store ledger with
// typed roles, and the store still verifies clean end to end.
func TestCampaignCommitsProfiles(t *testing.T) {
	cfg, st, _ := storeConfig(t, 4, 2)
	cfg.Telemetry = telemetry.New(telemetry.Config{})
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]int{}
	for _, m := range entries {
		for _, a := range m.Artifacts {
			roles[a.Role]++
			if a.Size == 0 {
				t.Errorf("artifact %s (%s) committed empty", a.Name, a.Role)
			}
			if _, err := st.Get(a.Hash); err != nil {
				t.Errorf("artifact %s not readable from the store: %v", a.Name, err)
			}
		}
	}
	// 2 segments committed: cpu + heap per segment (the CPU profiler
	// can be busy under parallel tests, so cpu may fall short of 2,
	// but heap snapshots are unconditional).
	if roles["profile.heap"] != 2 {
		t.Fatalf("roles = %v, want 2 profile.heap", roles)
	}
	if roles["checkpoint"] != 3 {
		t.Fatalf("roles = %v, want 3 checkpoints (origin + 2 segments)", roles)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Severe() != 0 {
		t.Fatalf("store not clean after profile commits:\n%+v", rep.Findings)
	}
	// GC must treat ledger-pinned profiles as live.
	gc, err := st.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(gc.Swept) > 0 {
		t.Fatalf("gc swept %d ledger-pinned objects", len(gc.Swept))
	}
	for _, m := range entries {
		for _, a := range m.Artifacts {
			if _, err := st.Get(a.Hash); err != nil {
				t.Errorf("gc dropped %s (%s): %v", a.Name, a.Role, err)
			}
		}
	}
}

// TestCampaignNoProfileSwitch: Config.NoProfile turns the segment
// profiling off while the rest of the plane stays live.
func TestCampaignNoProfileSwitch(t *testing.T) {
	cfg, st, _ := storeConfig(t, 4, 2)
	cfg.Telemetry = telemetry.New(telemetry.Config{NoProfile: true})
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range entries {
		for _, a := range m.Artifacts {
			if strings.HasPrefix(a.Role, "profile.") {
				t.Fatalf("NoProfile still committed %s", a.Name)
			}
		}
	}
	if got := cfg.Telemetry.Progress(); !got.Done || got.CommittedStep != 4 {
		t.Fatalf("plane progress = %+v", got)
	}
}

// TestCommitArtifacts pins caller-rendered post-run artifacts (trace,
// report) into the run ledger under their roles and refs.
func TestCommitArtifacts(t *testing.T) {
	st, _ := testStore(t)
	arts := []Artifact{
		{Name: "trace.json", Role: "trace", Data: []byte(`{"traceEvents":[]}`)},
		{Name: "report.txt", Role: "report", Data: []byte("Run Information\n")},
	}
	if err := CommitArtifacts(st, "", 6, "run-artifacts", arts); err != nil {
		t.Fatal(err)
	}
	entries, err := st.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(entries[0].Artifacts) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Run != "campaign" || entries[0].Note != "run-artifacts" || entries[0].Step != 6 {
		t.Fatalf("manifest = %+v", entries[0])
	}
	for _, name := range []string{"trace.json", "report.txt"} {
		if _, err := st.Ref("runs/campaign/" + name); err != nil {
			t.Errorf("no ref for %s: %v", name, err)
		}
	}
	if err := CommitArtifacts(nil, "x", 0, "n", nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

// TestCampaignAlertReachesPostmortem: a campaign that dies emits its
// latched alerts as telemetry.alert events, which the post-mortem's
// timeline then carries.
func TestCampaignAlertReachesPostmortem(t *testing.T) {
	cfg := testConfig(t, 4, 2)
	// Attempt 0 dies to a scripted kill (the rank-dead trigger); every
	// retry is perturbed into a blow-up, so the campaign aborts with a
	// post-mortem.
	cfg.Faults = mpi.NewFaultPlan().Kill(1, 1)
	cfg.Perturb = func(seg, attempt int, in *snapshot.Interior) {
		if attempt > 0 {
			data := in.Fields[0][0]
			data[len(data)/2] = math.NaN()
		}
	}
	cfg.Telemetry = telemetry.New(telemetry.Config{})
	events := mpi.NewEventLog()
	cfg.Events = events
	_, err := RunCampaign(cfg)
	if err == nil {
		t.Fatal("campaign survived its scripted kill")
	}
	alerts := cfg.Telemetry.Alerts()
	var found bool
	for _, a := range alerts {
		if a.Rule == telemetry.RuleRankDead {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s alert latched; alerts = %v", telemetry.RuleRankDead, alerts)
	}
	var inLog bool
	for _, ev := range events.Events() {
		if ev.Kind == "telemetry.alert" && strings.Contains(ev.Detail, telemetry.RuleRankDead) {
			inLog = true
		}
	}
	if !inLog {
		t.Fatal("telemetry.alert event missing from the campaign timeline")
	}
}
