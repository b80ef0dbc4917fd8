// Command yycore runs the Yin-Yang geodynamo simulation: thermal
// convection of a rotating, electrically conducting compressible fluid in
// a spherical shell, with a seed magnetic field amplified by dynamo
// action (the paper's simulation, scaled to the local machine).
//
// Every run is a campaign (internal/resilience): segments of -every
// steps, each validated and committed at its end, with a blown-up or
// failed segment rolled back and retried. -procs is the world size (0
// and 1 step one serial solver). Without -campaign or -store the
// commits stay in memory: rollback and rank replacement still work,
// but nothing is written and nothing resumes. With either, they are
// durable checkpoints and a rerun resumes from the newest one, on any
// world size — the way to save a serial run too.
//
// Examples:
//
//	yycore -nr 25 -nt 25 -steps 200 -every 20
//	yycore -nr 17 -nt 17 -steps 100 -procs 8       # goroutine-parallel
//	yycore -nr 9 -nt 13 -steps 10 -store run.store # campaign on the durable run ledger
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage marks an input error: exit status 2 instead of 1.
var errUsage = errors.New("bad input")

func run(args []string, out, errOut io.Writer) int {
	err := runCampaign(args, out, errOut)
	if err == nil {
		return 0
	}
	if err != errUsage { // the flag set reports its own parse errors
		fmt.Fprintln(errOut, "yycore:", err)
	}
	if errors.Is(err, errUsage) {
		return 2
	}
	return 1
}

func runCampaign(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("yycore", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		nr    = fs.Int("nr", 17, "radial nodes per panel")
		nt    = fs.Int("nt", 17, "latitudinal nodes per panel (longitudinal = 3(nt-1)+1)")
		steps = fs.Int("steps", 100, "time steps to run")
		every = fs.Int("every", 10, "segment length in steps: diagnostics, dt estimate and commit at each segment's end")
		procs = fs.Int("procs", 0, "world size in goroutine ranks (0 and 1 = serial)")

		campaign = fs.String("campaign", "", "commit checkpoints to this directory (resumes if checkpoints exist)")
		storeDir = fs.String("store", "", "commit checkpoints to the content-addressed run-ledger store at this directory instead of loose files (audit with yystore)")
		runID    = fs.String("runid", "", "run name inside the store's ref namespace (default campaign)")
		deadline = fs.Duration("deadline", 0, "per-call communication deadline (0 = none)")
		replace  = fs.Bool("replace", false, "respawn a confirmed-dead rank from the segment checkpoint instead of rolling the whole segment back (needs -procs 2 or more)")
		hbEvery  = fs.Duration("hb", 0, "heartbeat interval for silent-death detection (0 = off)")

		trace     = fs.String("trace", "", "record per-rank phase spans and write a Chrome trace_event JSON here (view in ui.perfetto.dev)")
		runreport = fs.String("runreport", "", "write a PROGINF-style run report here at the end (\"-\" = stdout)")

		teleAddr   = fs.String("telemetry", "", "serve live telemetry at this host:port (\":0\" picks a free port): /metrics, /progress, /events, /debug/pprof; watch with yywatch")
		teleFile   = fs.String("telemetry-addr-file", "", "write the bound telemetry address to this file (scripts scraping a :0 server)")
		linger     = fs.Duration("linger", 0, "keep the telemetry server up this long after the run finishes")
		killSilent = fs.String("inject-kill-silent", "", "script a silent rank death as rank@step (fault-injection testing; pair with -hb/-replace; needs -procs 2 or more)")
	)
	if fs.Parse(args) != nil {
		return errUsage
	}
	if *procs < 0 {
		return fmt.Errorf("%w: -procs %d is negative", errUsage, *procs)
	}
	cfg := resilience.Config{
		Core:            core.Config{Nr: *nr, Nt: *nt},
		NProcs:          max(*procs, 1),
		Steps:           *steps,
		CheckpointEvery: *every,
		Dir:             *campaign,
		RunID:           *runID,
		Deadline:        *deadline,
	}
	if cfg.NProcs == 1 && (*replace || *killSilent != "") {
		return fmt.Errorf("%w: -replace and -inject-kill-silent need a world of -procs 2 or more", errUsage)
	}
	var rank, step int
	if *killSilent != "" {
		var err error
		if rank, step, err = parseRankStep(*killSilent); err != nil {
			return err
		}
		cfg.Faults = mpi.NewFaultPlan().KillSilent(rank, step)
	}
	if *hbEvery > 0 {
		cfg.Heartbeat = &mpi.Heartbeat{Interval: *hbEvery}
	}
	if *replace {
		cfg.Replace = &mpi.Elastic{}
	}
	where := "memory"
	switch {
	case *storeDir != "":
		backend, err := store.NewDirBackend(*storeDir)
		if err != nil {
			return err
		}
		if cfg.Store, err = store.Open(backend); err != nil {
			return err
		}
		where = "store " + *storeDir
	case *campaign != "":
		where = *campaign
	}

	// Observability: one recorder and one event log for the run,
	// exported at the end by writeObs.
	perf0 := perfcount.Read()
	if *trace != "" || *runreport != "" || *teleAddr != "" {
		ocfg := obs.Config{}
		if *trace != "" || *runreport != "" {
			// A rank records about 100 spans a step: the ring holds the
			// whole run, or the trace and the report see only its tail.
			ocfg.SpanCap = max(obs.DefaultSpanCap, 128**steps)
		}
		cfg.Obs = obs.New(ocfg)
		cfg.Events = mpi.NewEventLog()
	}

	// Live telemetry: serve the pull-based plane for the whole run. The
	// plane reads shared memory the ranks publish into lock-free slots;
	// scraping it never perturbs the physics.
	if *teleAddr != "" {
		cfg.Telemetry = telemetry.New(telemetry.Config{})
		addr, err := cfg.Telemetry.Serve(*teleAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "telemetry: serving http://%s (metrics, progress, events, debug/pprof)\n", addr)
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(out, "telemetry: lingering %s for late scrapes\n", *linger)
				time.Sleep(*linger)
			}
			cfg.Telemetry.Close()
		}()
		if *teleFile != "" {
			if err := store.WriteFileAtomic(*teleFile, []byte(addr+"\n"), 0o644); err != nil {
				return err
			}
		}
	}

	spec, prm := cfg.Core.Spec(), cfg.Core.WithDefaults().Params
	fmt.Fprintf(out, "yycore: grid %d x %d x %d x 2 = %d points, Ra~%.3g, Ekman~%.3g\n",
		spec.Nr, spec.Nt, spec.Np, spec.TotalPoints(),
		prm.RayleighEstimate(spec.RO-spec.RI), prm.Ekman(spec.RO-spec.RI))
	fmt.Fprintf(out, "campaign: %d steps on a world of %d, checkpoint every %d steps in %s\n", *steps, cfg.NProcs, *every, where)
	if cfg.Faults != nil {
		fmt.Fprintf(out, "fault injection: silent death of rank %d at step %d\n", rank, step)
	}
	// Each step line prints as its segment commits; show catches up on
	// whatever is left when the campaign returns.
	shown, resumedShown := 0, false
	show := func(res *resilience.Result) {
		if res.Resumed && !resumedShown {
			fmt.Fprintf(out, "resumed from checkpoint at step %d\n", res.StartStep)
			resumedShown = true
		}
		for ; shown < len(res.Diags); shown++ {
			fmt.Fprintf(out, "%s dt=%.4g\n", res.Diags[shown], res.DTs[shown])
		}
	}
	cfg.OnCommit = show
	res, err := resilience.RunCampaign(cfg)
	if res != nil {
		show(res)
		if res.Retries > 0 {
			fmt.Fprintf(out, "recovered from %d failed segment attempt(s)\n", res.Retries)
		}
		for _, rd := range res.Recoveries {
			fmt.Fprintf(out, "recovery: %s\n", rd)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "final dipole=%.4g\n", sph.MomentMagnitude(sph.MagneticMoment(res.Final)))
	fmt.Fprintf(out, "campaign complete at step %d\n", res.FinalStep)
	return writeObs(out, errOut, *trace, *runreport, cfg, perf0, res.FinalStep)
}

// parseRankStep parses a "rank@step" fault-injection site.
func parseRankStep(s string) (rank, step int, err error) {
	_, err = fmt.Sscanf(s, "%d@%d", &rank, &step)
	if err != nil || rank < 0 || step < 0 || fmt.Sprintf("%d@%d", rank, step) != s {
		return 0, 0, fmt.Errorf("%w: fault site %q is not rank@step", errUsage, s)
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
func writeObs(out, errOut io.Writer, tracePath, reportPath string, cfg resilience.Config, perf0 perfcount.Snapshot, step int) error {
	if cfg.Obs == nil {
		return nil
	}
	commit := cfg.Store != nil
	var arts []resilience.Artifact
	if tracePath != "" || commit {
		var buf bytes.Buffer
		if err := core.WriteTrace(&buf, cfg.Obs, cfg.Events); err != nil {
			return err
		}
		if tracePath != "" {
			if err := store.WriteFileAtomic(tracePath, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote trace %s (open in https://ui.perfetto.dev)\n", tracePath)
		}
		arts = append(arts, resilience.Artifact{Name: "trace.json", Role: "trace", Data: buf.Bytes()})
	}
	if reportPath != "" || commit {
		var buf bytes.Buffer
		if err := core.WriteRunReport(&buf, cfg.Obs, perfcount.Read().Sub(perf0), cfg.Events, cfg.Telemetry.AlertStrings()); err != nil {
			return err
		}
		switch reportPath {
		case "":
		case "-":
			if _, err := out.Write(buf.Bytes()); err != nil {
				return err
			}
		default:
			if err := store.WriteFileAtomic(reportPath, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote run report %s\n", reportPath)
		}
		arts = append(arts, resilience.Artifact{Name: "report.txt", Role: "report", Data: buf.Bytes()})
	}
	if commit && len(arts) > 0 {
		if err := resilience.CommitArtifacts(cfg.Store, cfg.RunID, step, "run-artifacts", arts); err != nil {
			fmt.Fprintln(errOut, "yycore: committing run artifacts:", err)
			return nil
		}
		fmt.Fprintf(out, "committed %d run artifact(s) into the store ledger\n", len(arts))
	}
	return nil
}
