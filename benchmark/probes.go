package main

// Direct probes: each layer's public functions timed from outside, on
// the grids of the workloads. Kernel probes are serial, min-of-N on one
// Yin panel; anything that touches the disk or the scheduler reports a
// median. Every ratio comes from interleaved on/off legs and is kept
// with its base.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fd"
	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/overset"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/sphops"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// values collects per-layer numbers by metric name.
type values map[string]float64

// pingTag is the probes' own message tag, clear of decomp.ExchangeTags.
const pingTag = 7001

// kernelProbes times the mhd, fd, sphops and overset kernels on the Yin
// panel of one grid; the small grid reports only the two RHS kernels
// that world4_small leans on. It returns the solver it probed.
func (b *bench) kernelProbes(small bool, out values) (*mhd.Solver, error) {
	suffix := "_l2out"
	if small {
		suffix = "_small"
	}
	cfg := b.config(small).WithDefaults()
	sv, err := mhd.NewSolver(cfg.Spec(), *cfg.Params, *cfg.IC)
	if err != nil {
		return nil, err
	}
	n := b.sc.ProbeReps
	prm := *cfg.Params
	pl := sv.Panels[grid.Yin]
	p := pl.Patch
	pts := float64(p.Nr * p.Nt * p.Np)
	rhs := mhd.NewState(pl.U.P.Shape)
	reg := p.OwnedRegion()
	// RHSUpdate consumes J and div v; materialize them once so each
	// phase is measured in isolation.
	mhd.ComputeVTB(pl, &pl.U)
	mhd.RHSCurlJ(pl, reg)
	mhd.RHSDivV(pl, reg)

	finish := minOf(n, func() { mhd.FinishRHS(pl, prm, &pl.U, &rhs, nil) })
	update := minOf(n, func() { mhd.RHSUpdate(pl, prm, &pl.U, &rhs, reg) })
	out["mhd.finish_rhs_ns_pt"+suffix] = finish / pts
	out["mhd.rhs_update_ns_pt"+suffix] = update / pts
	if small {
		return sv, nil
	}
	ref := minOf((n+1)/2, func() { mhd.FinishRHSReference(pl, prm, &pl.U, &rhs, nil) })
	out["mhd.finish_rhs_ref_ratio"] = ref / finish
	out["mhd.rhs_curlj_ns_pt"+suffix] = minOf(n, func() { mhd.RHSCurlJ(pl, reg) }) / pts
	out["mhd.rhs_divv_ns_pt"+suffix] = minOf(n, func() { mhd.RHSDivV(pl, reg) }) / pts
	out["mhd.apply_constraints_ms"+suffix] = minOf(n, sv.ApplyConstraints) * 1e-6
	out["mhd.diagnostics_ms"+suffix] = minOf(n, func() { sv.Diagnose() }) * 1e-6

	// Compulsory traffic of RHSUpdate from the sizes of the arrays it
	// touches: 16 read (rho, p, f, v, B, j, T, div v) and 8 written,
	// padding included. Stencil re-reads, cache misses and
	// write-allocate are not in it, hence "computed".
	arrays := []*field.Scalar{
		pl.U.Rho, pl.U.P, pl.U.F.R, pl.U.F.T, pl.U.F.P,
		pl.V.R, pl.V.T, pl.V.P, pl.B.R, pl.B.T, pl.B.P, pl.J.R, pl.J.T, pl.J.P,
		pl.T, pl.DivV,
	}
	for _, s := range rhs.Scalars() {
		arrays = append(arrays, s)
	}
	bytesMoved := 0.0
	for _, a := range arrays {
		bytesMoved += 8 * float64(len(a.Data))
	}
	out["mhd.rhs_update_bytes_pt_computed"] = float64(int64(bytesMoved / pts))
	out["mhd.rhs_update_gbs_computed"] = bytesMoved / update

	in, sc := pl.U.P, field.NewScalar(pl.U.P.Shape)
	vec := field.NewVector(pl.U.P.Shape)
	out["fd.deriv1r_ns_pt"] = minOf(n, func() { fd.Deriv1R(p, in, sc) }) / pts
	out["fd.deriv1t_ns_pt"] = minOf(n, func() { fd.Deriv1T(p, in, sc) }) / pts
	out["fd.deriv1p_ns_pt"] = minOf(n, func() { fd.Deriv1P(p, in, sc) }) / pts
	out["sphops.div_ns_pt"] = minOf(n, func() { sphops.Div(p, pl.V, sc, pl.W) }) / pts
	out["sphops.curl_ns_pt"] = minOf(n, func() { sphops.Curl(p, pl.B, vec, pl.W) }) / pts
	out["sphops.lap_vector_ns_pt"] = minOf(n, func() { sphops.LapVector(p, pl.V, vec, pl.W) }) / pts

	// overset: the uncached builders behind PlanFor/OverlapTableFor, and
	// one scalar exchange between the two full panels.
	spec := cfg.Spec()
	var plan *overset.Plan
	var perr error
	out["overset.plan_build_ms"+suffix] = minOf(3, func() { plan, perr = overset.NewPlan(spec) }) * 1e-6
	if perr != nil {
		return nil, perr
	}
	out["overset.table_build_ms"+suffix] = minOf(3, func() { overset.NewOverlapTable(spec) }) * 1e-6
	ex := overset.NewExchanger(plan, p.H)
	yin, yang := sv.Panels[grid.Yin].U.P, sv.Panels[grid.Yang].U.P
	out["overset.exchange_scalar_us"+suffix] = minOf(4*n, func() { ex.ExchangeScalar(yin, yang) }) * 1e-3
	return sv, nil
}

// persistProbes times the checkpoint codec and the store on the
// checkpoint of the given large-grid state.
func (b *bench) persistProbes(sv *mhd.Solver, out values) error {
	const suffix = "_l2out"
	var buf bytes.Buffer
	var err error
	mbs := func(ns float64) float64 { return float64(buf.Len()) / 1e6 / (ns * 1e-9) }
	enc := minOf(3, func() {
		buf.Reset()
		err = snapshot.WriteCheckpoint(&buf, sv)
	})
	if err != nil {
		return err
	}
	ckpt := buf.Bytes()
	out["snapshot.encode_mbs"+suffix] = mbs(enc)
	out["snapshot.ckpt_bytes"+suffix] = float64(len(ckpt))
	out["snapshot.decode_mbs"+suffix] = mbs(minOf(3, func() { _, err = snapshot.ReadCheckpoint(bytes.NewReader(ckpt)) }))
	if err != nil {
		return err
	}
	out["snapshot.read_interior_mbs"+suffix] = mbs(minOf(3, func() { _, err = snapshot.ReadInterior(bytes.NewReader(ckpt)) }))
	if err != nil {
		return err
	}

	dir := b.freshDir()
	defer os.RemoveAll(dir)
	st, err := openStore(dir)
	if err != nil {
		return err
	}
	// A fresh put needs a blob the store has not seen: stamp a counter
	// into a copy of the checkpoint.
	fresh := append([]byte(nil), ckpt...)
	var stamp uint64
	var hashes []store.Hash
	putFresh := medianOf(3, func() {
		stamp++
		binary.LittleEndian.PutUint64(fresh, stamp)
		var h store.Hash
		if h, err = st.Put(fresh); err == nil {
			hashes = append(hashes, h)
		}
	})
	if err != nil {
		return err
	}
	out["store.put_fresh_mbs"] = mbs(putFresh)
	out["store.put_dedup_mbs"] = mbs(minOf(5, func() { _, err = st.Put(fresh) }))
	out["store.put_dedup_allocs"] = testing.AllocsPerRun(5, func() { _, err = st.Put(fresh) })
	out["store.get_mbs"] = mbs(minOf(3, func() { _, err = st.Get(hashes[0]) }))
	if err != nil {
		return err
	}
	const entries = 24
	i := 0
	out["store.append_ms"] = medianOf(entries, func() {
		h := hashes[i%len(hashes)]
		i++
		if _, aerr := st.Append(store.Manifest{
			Run: "probe", Step: i,
			Artifacts: []store.Artifact{{Name: "ckpt", Role: "checkpoint", Hash: h, Size: int64(len(fresh))}},
		}); aerr != nil {
			err = aerr
		}
	}) * 1e-6
	if err != nil {
		return err
	}
	var rep *store.VerifyReport
	out["store.verify_ms_24entries"] = medianOf(3, func() { rep, err = st.Verify() }) * 1e-6
	if err != nil {
		return err
	}
	for _, f := range rep.Findings {
		if f.Severe {
			return fmt.Errorf("store probe: verify found %s", f)
		}
	}
	return nil
}

// haloProbes times pack+unpack of a full 8-field exchange phase through
// the preallocated staging buffers of a small-grid panel.
func (b *bench) haloProbes(out values) {
	p := grid.NewPatch(b.config(true).Spec(), grid.Yin, 1)
	fields := make([]*field.Scalar, 8)
	for i := range fields {
		fields[i] = field.NewScalar(field.Shape{Nr: p.Nr, Nt: p.Nt, Np: p.Np, H: p.H})
	}
	hb := decomp.NewHaloBufs(p, len(fields))
	h := p.H
	phi := func() { hb.UnpackPhi(fields, h+p.Np-1, hb.PackPhi(fields, h, 0)) }
	theta := func() { hb.UnpackTheta(fields, h+p.Nt-1, hb.PackTheta(fields, h, 1)) }
	out["decomp.halo_phi_us_small"] = perCall(b.sc.ProbeReps, 50, phi) * 1e-3
	out["decomp.halo_theta_us_small"] = perCall(b.sc.ProbeReps, 50, theta) * 1e-3
	out["decomp.halo_allocs_per_op"] = testing.AllocsPerRun(20, phi) + testing.AllocsPerRun(20, theta)
}

// mpiProbes times the runtime's point-to-point and collective calls
// with nothing else on the ranks.
func (b *bench) mpiProbes(out values) error {
	pingpong := func(floats, rounds int) (float64, error) {
		rtt := make([]float64, 0, rounds)
		err := mpi.Run(2, func(c *mpi.Comm) {
			buf := make([]float64, floats)
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					t0 := time.Now()
					c.Send(1, pingTag, buf)
					c.Recv(1, pingTag, buf)
					rtt = append(rtt, float64(time.Since(t0).Nanoseconds()))
				} else {
					c.Recv(0, pingTag, buf)
					c.Send(0, pingTag, buf)
				}
			}
		})
		return median(rtt), err
	}
	ns, err := pingpong(1, 2000)
	if err != nil {
		return err
	}
	out["mpi.pingpong_us_8B"] = ns * 1e-3
	if ns, err = pingpong(64<<10/8, 2000); err != nil {
		return err
	}
	out["mpi.pingpong_us_64KiB"] = ns * 1e-3
	if ns, err = pingpong(1<<20/8, 200); err != nil {
		return err
	}
	out["mpi.pingpong_gbs_1MiB"] = 2 * (1 << 20) / ns

	collective := func(call func(c *mpi.Comm)) (float64, error) {
		const rounds = 2000
		ts := make([]float64, 0, rounds)
		err := mpi.Run(4, func(c *mpi.Comm) {
			for i := 0; i < rounds; i++ {
				t0 := time.Now()
				call(c)
				if c.Rank() == 0 {
					ts = append(ts, float64(time.Since(t0).Nanoseconds()))
				}
			}
		})
		return median(ts), err
	}
	if ns, err = collective(func(c *mpi.Comm) { c.Allreduce([]float64{1}, mpi.OpSum) }); err != nil {
		return err
	}
	out["mpi.allreduce_us_4ranks"] = ns * 1e-3
	if ns, err = collective(func(c *mpi.Comm) { c.Barrier() }); err != nil {
		return err
	}
	out["mpi.barrier_us_4ranks"] = ns * 1e-3
	out["mpi.launch_us_4ranks"] = medianOf(200, func() { err = mpi.Run(4, func(*mpi.Comm) {}) }) * 1e-3
	return err
}

// smallProbes are the sub-microsecond calls that ride inside a step.
func smallProbes(out values) {
	pool := par.NewPool(2)
	defer pool.Close()
	out["par.for_overhead_us"] = perCall(8, 2000, func() { pool.For(1<<16, func(lo, hi int) {}) }) * 1e-3
	rr := obs.New(obs.Config{}).RankFor(0)
	out["obs.span_ns"] = perCall(8, 20000, func() { rr.Begin(obs.SpanRHS).End() })
	pub := &telemetry.RankPub{}
	snap := telemetry.Snapshot{Step: 1, DT: 1e-3}
	out["telemetry.publish_ns"] = perCall(8, 20000, func() { snap.Step++; pub.Publish(snap) })
}

// leg is one variant of an on/off comparison: it runs once and reports
// the steps it advanced and the time that took.
type leg func() (steps int, ns int64, err error)

// interleave runs the variants round-robin for the given number of
// cycles, each leg repeating its variant until legDur of measured time
// has passed, and returns each variant's steps/s per cycle. Interleaving
// puts a noisy moment of a shared host on one leg of every variant
// rather than on every leg of one.
func interleave(cycles int, legDur time.Duration, variants []leg) ([][]float64, error) {
	rates := make([][]float64, len(variants))
	for c := 0; c < cycles; c++ {
		for i, v := range variants {
			var steps int
			var ns int64
			for ns < legDur.Nanoseconds() || steps == 0 {
				s, t, err := v()
				if err != nil {
					return nil, err
				}
				steps += s
				ns += t
			}
			rates[i] = append(rates[i], float64(steps)/(float64(ns)*1e-9))
		}
	}
	return rates, nil
}

// ratio is the median over cycles of on/off, paired within a cycle.
func ratio(on, off []float64) float64 {
	r := make([]float64, len(on))
	for i := range on {
		r[i] = on[i] / off[i]
	}
	return median(r)
}

const ratioCycles = 3

// ratioProbes prices the optional machinery around the solver: each
// ratio is steps/s with the feature on over steps/s with it off.
func (b *bench) ratioProbes(legDur time.Duration, out, bases values) error {
	w4, _ := workloadByName("world4_small")
	// The sink comparison runs the campaign's shape on the small grid,
	// where a call is short enough for three pairs; both sinks pay per
	// byte, so the grid scales both sides alike.
	wc := workload{Name: "campaign_small", Small: true, Ranks: 2, Campaign: true}
	dtSmall, err := b.fixedDT(true)
	if err != nil {
		return err
	}
	dtBig, err := b.fixedDT(false)
	if err != nil {
		return err
	}
	steps4 := b.sc.Steps[w4.Name] / 4
	if steps4 < 2 {
		steps4 = 2
	}

	// Decorators of the runtime, all through the production entry point
	// that accepts them, against one shared base.
	events := mpi.NewEventLog()
	plane := telemetry.New(telemetry.Config{NoProfile: true})
	defer plane.Close()
	world := func(mod func(cfg *core.Config, rc *mpi.RunConfig)) leg {
		return func() (int, int64, error) {
			cfg := b.config(true)
			var rc mpi.RunConfig
			if mod != nil {
				mod(&cfg, &rc)
			}
			t0 := time.Now()
			_, err := core.RunParallelCheckpointWith(cfg, rc, w4.Ranks, steps4, dtSmall, nil)
			return steps4, time.Since(t0).Nanoseconds(), err
		}
	}
	rates, err := interleave(ratioCycles, legDur, []leg{
		world(nil),
		world(func(_ *core.Config, rc *mpi.RunConfig) {
			rc.Reliability, rc.Events = &mpi.Reliability{}, events
		}),
		world(func(_ *core.Config, rc *mpi.RunConfig) { rc.Heartbeat = &mpi.Heartbeat{} }),
		world(func(cfg *core.Config, _ *mpi.RunConfig) { cfg.Obs = obs.New(obs.Config{}) }),
		world(func(cfg *core.Config, _ *mpi.RunConfig) { cfg.Telemetry = plane }),
	})
	if err != nil {
		return err
	}
	for i, name := range []string{"mpi.reliability_on_ratio", "mpi.heartbeat_on_ratio", "obs.recorder_on_ratio", "telemetry.plane_on_ratio"} {
		out[name] = ratio(rates[i+1], rates[0])
		bases[name] = median(rates[0])
	}
	retransmits := 0
	for _, e := range events.Events() {
		if e.Kind == "xport.retransmit" {
			retransmits++
		}
	}
	out["mpi.retransmits_faultfree"] = float64(retransmits)

	// The overlapped schedule against the sequential one: only the
	// benchmark's own driver can reach Rank.SetOverlap.
	overlap := func(off bool) leg {
		return func() (int, int64, error) {
			r, err := b.drive(w4, steps4, nil, driveOpts{noOverlap: off, noCkpt: true})
			return r.Steps, r.WallNS, err
		}
	}
	if rates, err = interleave(ratioCycles, legDur, []leg{overlap(true), overlap(false)}); err != nil {
		return err
	}
	out["decomp.overlap_on_ratio"] = ratio(rates[1], rates[0])
	bases["decomp.overlap_on_ratio"] = median(rates[0])

	// A 2-worker pool inside the serial solver against none. Both legs
	// carry a recorder, so the ratio prices the pool alone; the pooled
	// legs' recorder also holds the pool's utilization gauge.
	if runtime.NumCPU() >= 2 {
		recs := map[int]*obs.Recorder{1: obs.New(obs.Config{}), 2: obs.New(obs.Config{})}
		pooled := func(workers int) leg {
			return func() (int, int64, error) {
				cfg := b.config(false)
				cfg.Workers = workers
				cfg.Obs = recs[workers]
				sim, err := core.New(cfg)
				if err != nil {
					return 0, 0, err
				}
				defer sim.Close()
				const steps = 2
				t0 := time.Now()
				for i := 0; i < steps; i++ {
					sim.Solver.Advance(dtBig)
				}
				return steps, time.Since(t0).Nanoseconds(), nil
			}
		}
		if rates, err = interleave(ratioCycles, legDur, []leg{pooled(1), pooled(2)}); err != nil {
			return err
		}
		out["par.workers2_ratio_l2out"] = ratio(rates[1], rates[0])
		bases["par.workers2_ratio_l2out"] = median(rates[0])
		out["par.pool_utilization"] = recs[2].Pool().Utilization()
	}

	// The store sink against the plain directory sink, one segment and
	// two commits a call.
	sink := func(dirSink bool) leg {
		return func() (int, int64, error) {
			dir := b.freshDir()
			defer os.RemoveAll(dir)
			t0 := time.Now()
			_, err := b.campaignCall(wc, dir, dirSink, ckptEvery)
			return ckptEvery, time.Since(t0).Nanoseconds(), err
		}
	}
	if rates, err = interleave(ratioCycles, legDur, []leg{sink(true), sink(false)}); err != nil {
		return err
	}
	out["resilience.store_vs_dir_ratio"] = ratio(rates[1], rates[0])
	bases["resilience.store_vs_dir_ratio"] = median(rates[0])
	return nil
}
