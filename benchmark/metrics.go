package main

// The benchmark's vocabulary: four workloads, four end-to-end metrics
// and the per-layer metrics. BENCHMARK.json at the repository root
// lists the same names; bench_test.go keeps the two in step. Later
// issues refer to these names, so renaming one is a benchmark change
// of its own.

// workload is one fixed input to the whole stack.
type workload struct {
	Name string
	// Why is the one-line rationale BENCHMARK.json carries.
	Why string
	// Small selects the 17x17 grid; otherwise the 33x33 one.
	Small bool
	// Ranks is the world size; 1 is the serial solver with no runtime.
	Ranks int
	// Campaign runs the ranks under resilience.RunCampaign with a
	// store-backed checkpoint every ckptEvery steps.
	Campaign bool
}

const ckptEvery = 2

var workloads = []workload{
	{
		Name:  "serial_l2out",
		Why:   "single-threaded 33x33x97 solver, fields ~10x the L2: kernels and memory traffic do over 90% of the work, comm and persistence none",
		Ranks: 1,
	},
	{
		Name:  "world2_l2out",
		Why:   "same grid on 2 ranks, one per panel: only overset exchange and collectives cross ranks, no halo traffic, two ranks share one memory system",
		Ranks: 2,
	},
	{
		Name:  "world4_small",
		Why:   "17x17x49 grid on 4 ranks, L2-resident blocks: halo pack/wait/unpack, mailbox latency and the overlapped schedule dominate",
		Small: true,
		Ranks: 4,
	},
	{
		Name:     "campaign_ckpt",
		Why:      "33x33 grid, 2 ranks, store-backed campaign with a checkpoint every 2 steps, a resume and a pure restore: persistence in both directions",
		Ranks:    2,
		Campaign: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks counts that must repeat exactly between runs of the
	// same code and seed.
	Exact bool
	// Moves names the end-to-end metric and workload this layer metric
	// should move (README glossary; written down before measuring).
	Moves string
}

const (
	mStepsPerS  = "steps_per_s"
	mCPUPerStep = "cpu_ms_per_step"
	mSetupS     = "setup_s"
	mPeakRSS    = "peak_rss_mb"
)

// endToEnd are what a user of the solver sees; every workload reports
// all four. A bound is the share of the parent's median by which the
// metric may get worse before a change counts as a regression, and it
// has to be one the reference host can hold against itself: the harness
// refuses a benchmark whose ten-run interquartile spread exceeds it. The
// host is a shared 2-cpu VM whose speed drifts by 10-15% within a
// quarter hour (two whole ledgers of one commit, run back to back,
// differed by 10.8% on serial_l2out), and neither longer runs (15 to
// 40 s) nor another statistic of the repetitions narrows that, so the
// three timing metrics sit at the harness's maximum; on a quiet machine
// -compare resolves far less and prints the spread beside every
// verdict. Peak memory of a fresh child repeats to 1-4% and keeps 10%.
// README.md "Steadiness" has the measurements.
var endToEnd = []metricDef{
	{Name: mStepsPerS, Unit: "1/s", Better: hi, Bound: 0.25},
	{Name: mCPUPerStep, Unit: "ms", Better: lo, Bound: 0.25},
	{Name: mSetupS, Unit: "s", Better: lo, Bound: 0.25},
	{Name: mPeakRSS, Unit: "MiB", Better: lo, Bound: 0.10},
}

const (
	hi = "higher"
	lo = "lower"
)

// perLayer are the single-layer numbers of the traced run and the
// direct probes. Suffix _l2out = 33x33 grid, _small = 17x17.
var perLayer = []metricDef{
	// core
	{Name: "core.new_ms", Unit: "ms", Better: lo, Moves: "setup_s@all"},
	{Name: "core.setup_cold_ms", Unit: "ms", Better: lo, Moves: "setup_s@all"},
	{Name: "core.step_ms_p50", Unit: "ms", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "core.step_ms_p95", Unit: "ms", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "core.alloc_bytes_per_step", Unit: "B/step", Better: lo, Moves: "cpu_ms_per_step,peak_rss_mb@all"},
	{Name: "core.mallocs_per_step", Unit: "count", Better: lo, Exact: true, Moves: "cpu_ms_per_step,peak_rss_mb@all"},
	{Name: "core.gc_cycles_per_kstep", Unit: "1/kstep", Better: lo, Moves: "cpu_ms_per_step@all"},

	// mhd
	{Name: "mhd.finish_rhs_ns_pt_l2out", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.finish_rhs_ns_pt_small", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "mhd.rhs_curlj_ns_pt_l2out", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.rhs_divv_ns_pt_l2out", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.rhs_update_ns_pt_l2out", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.rhs_update_ns_pt_small", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "mhd.apply_constraints_ms_l2out", Unit: "ms", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.diagnostics_ms_l2out", Unit: "ms", Better: lo, Moves: "steps_per_s@world2_l2out"},
	{Name: "mhd.rhs_update_bytes_pt_computed", Unit: "B/pt", Better: lo, Exact: true, Moves: "steps_per_s@world2_l2out"},
	{Name: "mhd.rhs_update_gbs_computed", Unit: "GB/s", Better: hi, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.finish_rhs_ref_ratio", Unit: "x", Better: hi, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.flops_per_step", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@serial_l2out"},
	{Name: "mhd.avg_vector_len", Unit: "count", Better: hi, Exact: true, Moves: "steps_per_s@serial_l2out"},

	// fd / sphops
	{Name: "fd.deriv1r_ns_pt", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "fd.deriv1t_ns_pt", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "fd.deriv1p_ns_pt", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "sphops.div_ns_pt", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "sphops.curl_ns_pt", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "sphops.lap_vector_ns_pt", Unit: "ns/pt", Better: lo, Moves: "steps_per_s@serial_l2out"},

	// overset
	{Name: "overset.plan_build_ms_l2out", Unit: "ms", Better: lo, Moves: "setup_s@all"},
	{Name: "overset.table_build_ms_l2out", Unit: "ms", Better: lo, Moves: "setup_s@all"},
	{Name: "overset.exchange_scalar_us_l2out", Unit: "us", Better: lo, Moves: "steps_per_s@world2_l2out,serial_l2out"},

	// decomp (traced-driver spans, per rank)
	{Name: "decomp.new_rank_ms", Unit: "ms", Better: lo, Moves: "setup_s@worlds"},
	{Name: "decomp.advance_ms_p50_small", Unit: "ms", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.advance_ms_p95_small", Unit: "ms", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.advance_ms_p50_l2out", Unit: "ms", Better: lo, Moves: "steps_per_s@world2_l2out"},
	{Name: "decomp.advance_skew_pct", Unit: "%", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.estimate_dt_ms", Unit: "ms", Better: lo, Moves: "setup_s@worlds"},
	{Name: "decomp.diagnose_ms", Unit: "ms", Better: lo, Moves: "steps_per_s@worlds"},
	{Name: "decomp.gather_ms_l2out", Unit: "ms", Better: lo, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "decomp.scatter_ms_l2out", Unit: "ms", Better: lo, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "decomp.halo_phi_us_small", Unit: "us", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.halo_theta_us_small", Unit: "us", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.halo_allocs_per_op", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.overlap_on_ratio", Unit: "x", Better: hi, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.compute_pct_small", Unit: "%", Better: hi, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.comm_pct_small", Unit: "%", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.wait_pct_small", Unit: "%", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "decomp.wait_pct_l2out", Unit: "%", Better: lo, Moves: "steps_per_s@world2_l2out"},
	{Name: "decomp.speedup_vs_serial", Unit: "x", Better: hi, Moves: "informational"},

	// mpi
	{Name: "mpi.msgs_per_step_small", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.bytes_per_step_small", Unit: "B/step", Better: lo, Exact: true, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.msgs_per_step_l2out", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@world2_l2out"},
	{Name: "mpi.bytes_per_step_l2out", Unit: "B/step", Better: lo, Exact: true, Moves: "steps_per_s@world2_l2out"},
	{Name: "mpi.pingpong_us_8B", Unit: "us", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.pingpong_us_64KiB", Unit: "us", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.pingpong_gbs_1MiB", Unit: "GB/s", Better: hi, Moves: "steps_per_s@world2_l2out"},
	{Name: "mpi.allreduce_us_4ranks", Unit: "us", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.barrier_us_4ranks", Unit: "us", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.launch_us_4ranks", Unit: "us", Better: lo, Moves: "setup_s@worlds,steps_per_s@campaign_ckpt"},
	{Name: "mpi.reliability_on_ratio", Unit: "x", Better: hi, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.heartbeat_on_ratio", Unit: "x", Better: hi, Moves: "steps_per_s@world4_small"},
	{Name: "mpi.retransmits_faultfree", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@world4_small"},

	// par
	{Name: "par.for_overhead_us", Unit: "us", Better: lo, Moves: "steps_per_s@serial_l2out"},
	{Name: "par.workers2_ratio_l2out", Unit: "x", Better: hi, Moves: "steps_per_s@serial_l2out"},
	{Name: "par.pool_utilization", Unit: "ratio", Better: hi, Moves: "steps_per_s@serial_l2out"},

	// snapshot
	{Name: "snapshot.encode_mbs_l2out", Unit: "MB/s", Better: hi, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "snapshot.decode_mbs_l2out", Unit: "MB/s", Better: hi, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "snapshot.read_interior_mbs_l2out", Unit: "MB/s", Better: hi, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "snapshot.ckpt_bytes_l2out", Unit: "B", Better: lo, Exact: true, Moves: "steps_per_s@campaign_ckpt"},

	// store
	{Name: "store.put_fresh_mbs", Unit: "MB/s", Better: hi, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "store.put_dedup_mbs", Unit: "MB/s", Better: hi, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "store.get_mbs", Unit: "MB/s", Better: hi, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "store.append_ms", Unit: "ms", Better: lo, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "store.verify_ms_24entries", Unit: "ms", Better: lo, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "store.put_dedup_allocs", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@campaign_ckpt"},

	// resilience
	{Name: "resilience.segment_overhead_ms", Unit: "ms", Better: lo, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "resilience.resume_ms", Unit: "ms", Better: lo, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "resilience.retries", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "resilience.commit_bytes_per_ckpt", Unit: "B", Better: lo, Exact: true, Moves: "steps_per_s@campaign_ckpt"},
	{Name: "resilience.store_vs_dir_ratio", Unit: "x", Better: hi, Moves: "steps_per_s@campaign_ckpt"},

	// obs / telemetry
	{Name: "obs.recorder_on_ratio", Unit: "x", Better: hi, Moves: "steps_per_s@world4_small"},
	{Name: "obs.span_ns", Unit: "ns", Better: lo, Moves: "steps_per_s@world4_small"},
	{Name: "obs.spans_dropped", Unit: "count", Better: lo, Exact: true, Moves: "steps_per_s@world4_small"},
	{Name: "telemetry.plane_on_ratio", Unit: "x", Better: hi, Moves: "steps_per_s@world4_small"},
	{Name: "telemetry.publish_ns", Unit: "ns", Better: lo, Moves: "steps_per_s@world4_small"},

	// bench: the traced driver against the production entry point
	{Name: "bench.trace_overhead_pct_serial_l2out", Unit: "%", Better: lo},
	{Name: "bench.trace_overhead_pct_world2_l2out", Unit: "%", Better: lo},
	{Name: "bench.trace_overhead_pct_world4_small", Unit: "%", Better: lo},
	{Name: "bench.trace_overhead_pct_campaign_ckpt", Unit: "%", Better: lo},
	{Name: "bench.span_coverage_pct_serial_l2out", Unit: "%", Better: hi},
	{Name: "bench.span_coverage_pct_world2_l2out", Unit: "%", Better: hi},
	{Name: "bench.span_coverage_pct_world4_small", Unit: "%", Better: hi},
	{Name: "bench.span_coverage_pct_campaign_ckpt", Unit: "%", Better: hi},
}

// needsTwoCPUs lists the ratios that are refused (written as null with
// a reason) on a host with fewer than two cpus, where they would read
// as a slowdown that is only the missing core.
var needsTwoCPUs = map[string]bool{
	"decomp.speedup_vs_serial": true,
	"par.workers2_ratio_l2out": true,
	"par.pool_utilization":     true,
}
