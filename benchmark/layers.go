package main

// The layer phase: for every workload one run through the production
// entry point and one through the traced driver, which must agree on
// the final sha256; then the direct probes and the on/off ratios. It
// yields every per-layer metric and the per-workload self-time budgets.

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perfcount"
)

// layerReport is what the layer phase hands back.
type layerReport struct {
	Values values `json:"values"`
	// Refused metrics are written as null, with the reason.
	Refused map[string]string `json:"refused,omitempty"`
	// RatioBases is the "off" steps/s each ratio was taken against.
	RatioBases values `json:"ratio_bases"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples"`
	Budgets []budget       `json:"budgets"`
	Traces  []string       `json:"traces"`
	// Ops counts steps attempted through either driver; OpsFailed the
	// steps of runs that errored, diverged or disagreed on the sha256.
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Errors    []string `json:"errors,omitempty"`
	WallS     float64  `json:"wall_s"`
}

// traceSteps is the length of the traced run and of its untraced
// partner: half a timed repetition, whole checkpoint intervals.
func (b *bench) traceSteps(w workload) int {
	n := b.sc.Steps[w.Name] / 2
	if w.Campaign {
		n = n / (2 * ckptEvery) * (2 * ckptEvery)
		if n < 2*ckptEvery {
			n = 2 * ckptEvery
		}
	}
	if n < 2 {
		n = 2
	}
	return n
}

func (b *bench) layers(outDir string, log io.Writer) *layerReport {
	t0 := time.Now()
	rep := &layerReport{
		Values: values{}, Refused: map[string]string{}, RatioBases: values{}, Samples: map[string]int{},
	}
	out := rep.Values
	fail := func(steps int, format string, args ...any) {
		rep.OpsFailed += steps
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
		fmt.Fprintf(log, "FAIL "+format+"\n", args...)
	}
	phase := func(name string, t time.Time) {
		fmt.Fprintf(log, "layers: %-22s %6.2fs\n", name, time.Since(t).Seconds())
	}

	// Cold set-up comes first: the overset plan and overlap table are
	// memoized per process, so only the first core.New pays for them.
	big := b.config(false)
	tc := time.Now()
	sim, err := core.New(big)
	if err != nil {
		fail(0, "core.New: %v", err)
		return rep
	}
	out["core.setup_cold_ms"] = float64(time.Since(tc).Nanoseconds()) * 1e-6
	sim.Close()
	out["core.new_ms"] = medianOf(5, func() {
		if s, err := core.New(big); err == nil {
			s.Close()
		}
	}) * 1e-6

	// One production run and one traced run per workload.
	tp := time.Now()
	prods := map[string]runResult{}
	for i, w := range workloads {
		steps := b.traceSteps(w)
		rep.Ops += 2 * steps
		// A zero-step launch of a world comes first: it is the base the
		// per-step message counts are taken against, and it pays the
		// first-touch page faults of the shape's arrays so that the
		// production run is not handicapped against the traced one.
		var base perfcount.Snapshot
		if w.Ranks > 1 && !w.Campaign {
			c0 := perfcount.Read()
			if _, err := b.run(w, 0, true); err != nil {
				fail(2*steps, "%s: zero-step run: %v", w.Name, err)
				continue
			}
			base = perfcount.Read().Sub(c0)
		}
		// Both runs of the pair start from a collected heap: checkpoint
		// encoding is allocator-bound, so its speed follows heap state.
		runtime.GC()
		c0 := perfcount.Read()
		prod, err := b.run(w, steps, true)
		comm := perfcount.Read().Sub(c0)
		if err != nil {
			fail(2*steps, "%s: production run: %v", w.Name, err)
			continue
		}
		prods[w.Name] = prod
		var rec *obs.Recorder
		if w.Ranks > 1 && !w.Campaign {
			// A rank records about 100 spans a step; the ring must hold
			// the whole run, or the class shares are of its tail only.
			rec = obs.New(obs.Config{SpanCap: 128 * steps})
		}
		runtime.GC()
		tr := newTracer(i + 1)
		p0 := perfcount.Read()
		trc, err := b.drive(w, steps, tr, driveOpts{rec: rec})
		perf := perfcount.Read().Sub(p0)
		spans := tr.finished()
		switch {
		case err != nil:
			fail(steps, "%s: traced run: %v", w.Name, err)
			continue
		case trc.SHA != prod.SHA:
			fail(steps, "%s: traced driver sha256 %.12s differs from the production entry point's %.12s", w.Name, trc.SHA, prod.SHA)
		case trc.Diag != prod.Diag:
			fail(steps, "%s: traced driver diagnostics differ from the production entry point's", w.Name)
		}
		bd := newBudget(w, steps, spans)
		rep.Budgets = append(rep.Budgets, bd)
		out["bench.trace_overhead_pct_"+w.Name] = 100 * (prod.stepsPerS()/trc.stepsPerS() - 1)
		out["bench.span_coverage_pct_"+w.Name] = bd.CoveragePct
		if bd.CoveragePct < 95 {
			fail(0, "%s: span self-times cover %.1f%% of the traced run, want >= 95%%", w.Name, bd.CoveragePct)
		}
		path := filepath.Join(outDir, "trace-"+w.Name+".json")
		if err := writeTrace(path, spans); err != nil {
			fail(0, "%s: writing trace: %v", w.Name, err)
		} else {
			rep.Traces = append(rep.Traces, path)
		}

		fmt.Fprintf(log, "layers: %-14s production %.3f steps/s, traced %.3f steps/s, %d spans\n",
			w.Name, prod.stepsPerS(), trc.stepsPerS(), len(spans))

		// perStep removes what the zero-step launch sent, leaving the
		// messages of the steps alone.
		perStep := func(suffix string) {
			out["mpi.msgs_per_step"+suffix] = float64(comm.CommMsgs-base.CommMsgs) / float64(steps)
			out["mpi.bytes_per_step"+suffix] = float64(comm.CommBytes-base.CommBytes) / float64(steps)
		}
		adv := spanMS(spans, "decomp.advance", allRanks)
		switch w.Name {
		case "world2_l2out":
			out["decomp.new_rank_ms"] = summarize(spanMS(spans, "decomp.new_rank", allRanks)).Max
			out["decomp.estimate_dt_ms"] = median(spanMS(spans, "decomp.estimate_dt", allRanks))
			out["decomp.diagnose_ms"] = median(spanMS(spans, "decomp.diagnose", allRanks))
			out["decomp.advance_ms_p50_l2out"] = median(adv)
			_, _, wait := rec.BuildReport(perf).ClassPercents()
			out["decomp.wait_pct_l2out"] = wait
			perStep("_l2out")
		case "world4_small":
			out["decomp.advance_ms_p50_small"] = median(adv)
			out["decomp.advance_ms_p95_small"] = percentile(adv, 0.95)
			rep.Samples["decomp.advance_ms_p95_small"] = len(adv)
			totals := perRankTotalMS(spans, "decomp.advance")
			mean := 0.0
			for _, ms := range totals {
				mean += ms / float64(len(totals))
			}
			spread := summarize(totals)
			out["decomp.advance_skew_pct"] = 100 * (spread.Max - spread.Min) / mean
			orep := rec.BuildReport(perf)
			out["decomp.compute_pct_small"], out["decomp.comm_pct_small"], out["decomp.wait_pct_small"] = orep.ClassPercents()
			out["obs.spans_dropped"] = float64(orep.SpansDropped)
			perStep("_small")
		case "campaign_ckpt":
			out["decomp.gather_ms_l2out"] = median(spanMS(spans, "decomp.gather", 0))
			out["decomp.scatter_ms_l2out"] = median(spanMS(spans, "decomp.scatter", 0))
			out["resilience.resume_ms"] = float64(prod.ResumeNS) * 1e-6
			out["resilience.retries"] = float64(prod.Retries)
			out["resilience.commit_bytes_per_ckpt"] = float64(prod.CkptBytes)
		}
	}
	// The two figures that need the 2-rank world without its final
	// checkpoint, as the end-to-end phase times it.
	if w2, ok := workloadByName("world2_l2out"); ok {
		steps := b.traceSteps(w2)
		rep.Ops += steps
		if plain, err := b.run(w2, steps, false); err != nil {
			fail(steps, "%s: %v", w2.Name, err)
		} else {
			if s, ok := prods["serial_l2out"]; ok {
				out["decomp.speedup_vs_serial"] = plain.stepsPerS() / s.stepsPerS()
			}
			if c, ok := prods["campaign_ckpt"]; ok {
				stepMS := float64(plain.WallNS) * 1e-6 / float64(plain.Steps)
				out["resilience.segment_overhead_ms"] = (float64(c.WallNS)*1e-6 - float64(c.Steps)*stepMS) / float64(c.Steps/ckptEvery)
			}
		}
	}
	phase("production+traced", tp)

	// The serial step, one by one: its time distribution, and its
	// allocation and operation counts.
	tp = time.Now()
	if dt, err := b.fixedDT(false); err == nil {
		if sim, err := core.New(big); err == nil {
			n := b.sc.SerialSamples
			rep.Ops += n
			ms, mallocs, bytes := make([]float64, n), make([]float64, n), make([]float64, n)
			var m0, m runtime.MemStats
			p0 := perfcount.Read()
			runtime.ReadMemStats(&m0)
			prev := m0
			for i := range ms {
				t := time.Now()
				sim.Solver.Advance(dt)
				ms[i] = float64(time.Since(t).Nanoseconds()) * 1e-6
				// Between steps, off the step's clock: the per-step medians
				// leave out what the runtime allocates now and then.
				runtime.ReadMemStats(&m)
				mallocs[i] = float64(m.Mallocs - prev.Mallocs)
				bytes[i] = float64(m.TotalAlloc - prev.TotalAlloc)
				prev = m
			}
			perf := perfcount.Read().Sub(p0)
			if err := sim.Solver.CheckFinite(); err != nil {
				fail(n, "serial steps: %v", err)
			}
			sim.Close()
			out["core.step_ms_p50"] = median(ms)
			out["core.step_ms_p95"] = percentile(ms, 0.95)
			rep.Samples["core.step_ms_p95"] = n
			out["core.alloc_bytes_per_step"] = median(bytes)
			out["core.mallocs_per_step"] = median(mallocs)
			out["core.gc_cycles_per_kstep"] = 1000 * float64(m.NumGC-m0.NumGC) / float64(n)
			out["mhd.flops_per_step"] = float64(perf.Flops) / float64(n)
			out["mhd.avg_vector_len"] = perf.AverageVectorLength()
		}
	}

	if sv, err := b.kernelProbes(false, out); err != nil {
		fail(0, "kernel probes: %v", err)
	} else if err := b.persistProbes(sv, out); err != nil {
		fail(0, "snapshot and store probes: %v", err)
	}
	if _, err := b.kernelProbes(true, out); err != nil {
		fail(0, "kernel probes: %v", err)
	}
	b.haloProbes(out)
	if err := b.mpiProbes(out); err != nil {
		fail(0, "mpi probes: %v", err)
	}
	smallProbes(out)
	phase("probes", tp)

	tp = time.Now()
	if err := b.ratioProbes(b.sc.RatioLeg, out, rep.RatioBases); err != nil {
		fail(0, "ratio probes: %v", err)
	}
	phase("ratios", tp)

	if runtime.NumCPU() < 2 {
		for name := range needsTwoCPUs {
			delete(out, name)
			rep.Refused[name] = fmt.Sprintf("host has %d cpu: a ratio against one core would price the missing core, not the code", runtime.NumCPU())
		}
	}
	rep.WallS = time.Since(t0).Seconds()
	return rep
}

// printBudgets renders the per-layer self-time table of each traced
// run: where the driver's wall went, and where the ranks' time went.
func printBudgets(w io.Writer, budgets []budget) {
	for _, bd := range budgets {
		fmt.Fprintf(w, "\ntraced %s: %d steps, wall %.1f ms, ranks cover %.1f ms of it, coverage %.1f%%\n",
			bd.Workload, bd.Steps, bd.WallMS, bd.RankCoveredMS, bd.CoveragePct)
		fmt.Fprintf(w, "  %-12s %14s %16s\n", "layer", "driver self ms", "ranks self ms")
		layers := map[string]bool{}
		for l := range bd.DriverSelfMS {
			layers[l] = true
		}
		for l := range bd.RankSelfMS {
			layers[l] = true
		}
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Strings(names)
		for _, l := range names {
			fmt.Fprintf(w, "  %-12s %14.2f %16.2f\n", l, bd.DriverSelfMS[l], bd.RankSelfMS[l])
		}
	}
}
