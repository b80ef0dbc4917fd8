// Command yycore runs the Yin-Yang geodynamo simulation: thermal
// convection of a rotating, electrically conducting compressible fluid in
// a spherical shell, with a seed magnetic field amplified by dynamo
// action (the paper's simulation, scaled to the local machine).
//
// Examples:
//
//	yycore -nr 25 -nt 25 -steps 200 -every 20
//	yycore -nr 17 -nt 17 -steps 100 -procs 8       # goroutine-parallel
//	yycore -nr 9 -nt 13 -steps 10 -store run.store # campaign on the durable run ledger
//
// A campaign (-campaign or -store) checkpoints and resumes, so it is
// also the way to save a serial run: add -procs 1.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfcount"
	"repro/internal/resilience"
	"repro/internal/sph"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	var (
		nr    = flag.Int("nr", 17, "radial nodes per panel")
		nt    = flag.Int("nt", 17, "latitudinal nodes per panel (longitudinal = 3(nt-1)+1)")
		steps = flag.Int("steps", 100, "time steps to run")
		every = flag.Int("every", 10, "diagnostics interval in steps")
		procs = flag.Int("procs", 0, "run decomposed over this many goroutine ranks (0 = serial)")

		campaign  = flag.String("campaign", "", "run a fault-tolerant checkpointed campaign in this directory (resumes if checkpoints exist)")
		storeDir  = flag.String("store", "", "campaign: commit checkpoints to the content-addressed run-ledger store at this directory instead of loose files (audit with yystore)")
		runID     = flag.String("runid", "", "campaign: run name inside the store's ref namespace (default campaign)")
		ckptEvery = flag.Int("ckpt-every", 50, "campaign: steps between checkpoints")
		deadline  = flag.Duration("deadline", 0, "campaign: per-call communication deadline (0 = none)")
		replace   = flag.Bool("replace", false, "campaign: respawn a confirmed-dead rank from the segment checkpoint instead of rolling the whole segment back")
		hbEvery   = flag.Duration("hb", 0, "campaign: heartbeat interval for silent-death detection (0 = off)")

		trace     = flag.String("trace", "", "record per-rank phase spans and write a Chrome trace_event JSON here (view in ui.perfetto.dev)")
		runreport = flag.String("runreport", "", "write a PROGINF-style run report here at the end (\"-\" = stdout)")

		teleAddr   = flag.String("telemetry", "", "serve live telemetry at this host:port (\":0\" picks a free port): /metrics, /progress, /events, /debug/pprof; watch with yywatch")
		teleFile   = flag.String("telemetry-addr-file", "", "write the bound telemetry address to this file (scripts scraping a :0 server)")
		linger     = flag.Duration("linger", 0, "keep the telemetry server up this long after the run finishes")
		killSilent = flag.String("inject-kill-silent", "", "campaign: script a silent rank death as rank@step (fault-injection testing; pair with -hb/-replace)")
	)
	flag.Parse()

	cfg := core.Config{Nr: *nr, Nt: *nt}

	// Observability: one recorder and one event log for whichever run
	// mode executes below; exported at the end by writeObs.
	var rec *obs.Recorder
	var events *mpi.EventLog
	perf0 := perfcount.Read()
	if *trace != "" || *runreport != "" || *teleAddr != "" {
		ocfg := obs.Config{}
		if *trace != "" || *runreport != "" {
			// A rank records about 100 spans a step: the ring holds the
			// whole run, or the trace and the report see only its tail.
			ocfg.SpanCap = max(obs.DefaultSpanCap, 128**steps)
		}
		rec = obs.New(ocfg)
		events = mpi.NewEventLog()
		cfg.Obs = rec
	}

	// Live telemetry: serve the pull-based plane for the whole run. The
	// plane reads shared memory the ranks publish into lock-free slots;
	// scraping it never perturbs the physics.
	var plane *telemetry.Plane
	if *teleAddr != "" {
		plane = telemetry.New(telemetry.Config{})
		addr, err := plane.Serve(*teleAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("telemetry: serving http://%s (metrics, progress, events, debug/pprof)\n", addr)
		if *teleFile != "" {
			if err := store.WriteFileAtomic(*teleFile, []byte(addr+"\n"), 0o644); err != nil {
				fail(err)
			}
		}
		cfg.Telemetry = plane
		defer func() {
			if *linger > 0 {
				fmt.Printf("telemetry: lingering %s for late scrapes\n", *linger)
				time.Sleep(*linger)
			}
			plane.Close()
		}()
	}

	if *campaign != "" || *storeDir != "" {
		np := *procs
		if np == 0 {
			np = 2
		}
		where := *campaign
		if where == "" {
			where = "store " + *storeDir
		}
		fmt.Printf("campaign: %d steps on %d ranks, checkpoint every %d steps in %s\n",
			*steps, np, *ckptEvery, where)
		rcfg := resilience.Config{
			Core:            cfg,
			NProcs:          np,
			Steps:           *steps,
			CheckpointEvery: *ckptEvery,
			Dir:             *campaign,
			Deadline:        *deadline,
			Obs:             rec,
			Events:          events,
			Telemetry:       plane,
		}
		if *killSilent != "" {
			rank, step, err := parseRankStep(*killSilent)
			if err != nil {
				fail(err)
			}
			rcfg.Faults = mpi.NewFaultPlan().KillSilent(rank, step)
			fmt.Printf("fault injection: silent death of rank %d at step %d\n", rank, step)
		}
		if *storeDir != "" {
			backend, err := store.NewDirBackend(*storeDir)
			if err != nil {
				fail(err)
			}
			st, err := store.Open(backend)
			if err != nil {
				fail(err)
			}
			rcfg.Store = st
			rcfg.RunID = *runID
		}
		if *hbEvery > 0 {
			rcfg.Heartbeat = &mpi.Heartbeat{Interval: *hbEvery}
		}
		if *replace {
			rcfg.Replace = &mpi.Elastic{}
		}
		res, err := resilience.RunCampaign(rcfg)
		if res != nil {
			if res.Resumed {
				fmt.Printf("resumed from checkpoint at step %d\n", res.StartStep)
			}
			for i, d := range res.Diags {
				fmt.Printf("%s dt=%.4g\n", d, res.DTs[i])
			}
			if res.Retries > 0 {
				fmt.Printf("recovered from %d failed segment attempt(s)\n", res.Retries)
			}
			for _, rd := range res.Recoveries {
				fmt.Printf("recovery: %s\n", rd)
			}
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("campaign complete at step %d\n", res.FinalStep)
		writeObs(*trace, *runreport, rec, events, perf0, plane, rcfg.Store, rcfg.RunID, res.FinalStep)
		return
	}

	if *procs > 0 {
		fmt.Printf("running %d steps on %d goroutine ranks (2 panels x 2-D grid)\n", *steps, *procs)
		plane.Attach(telemetry.Campaign{Run: "yycore", TotalSteps: *steps, Events: events, Recorder: rec})
		hist, err := core.RunParallel(cfg, *procs, *steps, *every, 0)
		if err != nil {
			fail(err)
		}
		plane.Finish(*steps)
		for _, d := range hist {
			fmt.Println(d)
		}
		writeObs(*trace, *runreport, rec, events, perf0, plane, nil, "", *steps)
		return
	}

	sim, err := core.New(cfg)
	if err != nil {
		fail(err)
	}
	spec := sim.Solver.Spec
	runPrm := sim.Solver.Prm
	fmt.Printf("yycore: grid %d x %d x %d x 2 = %d points, Ra~%.3g, Ekman~%.3g\n",
		spec.Nr, spec.Nt, spec.Np, spec.TotalPoints(),
		runPrm.RayleighEstimate(spec.RO-spec.RI), runPrm.Ekman(spec.RO-spec.RI))
	fmt.Println(sim.Diagnostics())
	plane.Attach(telemetry.Campaign{Run: "yycore", TotalSteps: *steps, Events: events, Recorder: rec})
	for done := 0; done < *steps; done += *every {
		n := *every
		if *steps-done < n {
			n = *steps - done
		}
		if err := sim.Step(n); err != nil {
			fail(err)
		}
		plane.Commit(done + n)
		d := sim.Diagnostics()
		m := sph.MagneticMoment(sim.Solver)
		fmt.Printf("%s dipole=%.4g\n", d, sph.MomentMagnitude(m))
	}
	plane.Finish(*steps)
	sim.Close()
	writeObs(*trace, *runreport, rec, events, perf0, plane, nil, "", *steps)
}

// parseRankStep parses a "rank@step" fault-injection site.
func parseRankStep(s string) (rank, step int, err error) {
	at := strings.IndexByte(s, '@')
	if at < 0 {
		return 0, 0, fmt.Errorf("yycore: fault site %q is not rank@step", s)
	}
	rank, err = strconv.Atoi(s[:at])
	if err == nil {
		step, err = strconv.Atoi(s[at+1:])
	}
	if err != nil || rank < 0 || step < 0 {
		return 0, 0, fmt.Errorf("yycore: fault site %q is not rank@step", s)
	}
	return rank, step, nil
}

// writeObs exports the run's observability products: the Perfetto trace
// (with the event log merged as instants) and/or the PROGINF-style run
// report (with the telemetry plane's latched alerts in its health
// header). A nil recorder means none of the obs flags were set. When
// the run committed to a store, the trace and report are additionally
// rendered (even without their file flags) and pinned into the run's
// ledger next to the checkpoints, so `yystore ls` shows them and gc
// protects them.
func writeObs(tracePath, reportPath string, rec *obs.Recorder, events *mpi.EventLog, perf0 perfcount.Snapshot, plane *telemetry.Plane, st *store.Store, runID string, step int) {
	if rec == nil {
		return
	}
	commit := st != nil
	var arts []resilience.Artifact
	if tracePath != "" || commit {
		var buf bytes.Buffer
		if err := core.WriteTrace(&buf, rec, events); err != nil {
			fail(err)
		}
		if tracePath != "" {
			if err := store.WriteFileAtomic(tracePath, buf.Bytes(), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote trace %s (open in https://ui.perfetto.dev)\n", tracePath)
		}
		arts = append(arts, resilience.Artifact{Name: "trace.json", Role: "trace", Data: buf.Bytes()})
	}
	if reportPath != "" || commit {
		var buf bytes.Buffer
		if err := core.WriteRunReport(&buf, rec, perfcount.Read().Sub(perf0), events, plane.AlertStrings()); err != nil {
			fail(err)
		}
		switch reportPath {
		case "":
		case "-":
			io.Copy(os.Stdout, bytes.NewReader(buf.Bytes())) //nolint:errcheck
		default:
			if err := store.WriteFileAtomic(reportPath, buf.Bytes(), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote run report %s\n", reportPath)
		}
		arts = append(arts, resilience.Artifact{Name: "report.txt", Role: "report", Data: buf.Bytes()})
	}
	if commit && len(arts) > 0 {
		if err := resilience.CommitArtifacts(st, runID, step, "run-artifacts", arts); err != nil {
			fmt.Fprintln(os.Stderr, "yycore: committing run artifacts:", err)
			return
		}
		fmt.Printf("committed %d run artifact(s) into the store ledger\n", len(arts))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "yycore:", err)
	os.Exit(1)
}
