package main

// The traced driver. For each workload it re-composes the run from the
// public calls of the layers — the same calls, in the same order, as
// core.New/Advance, core.RunParallelWithCheckpoint and the happy path
// of resilience.RunCampaign — and records a span around each call.
// Spans live in memory and are written out when the run has ended. The
// driver's final checkpoint must have the sha256 of the production
// entry point's, which is what licenses reading its spans as an account
// of the production run. Tracing inside the program is a later issue.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// driverRank is the track of the driver goroutine itself.
const driverRank = -1

// span is one traced call into a layer. Name is "<layer>.<call>"; the
// layer "bench" is the driver's own glue, which coverage counts as
// unattributed time.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Rank   int    `json:"rank"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer collects the spans of one run. A nil tracer records nothing,
// so the same driver code runs untraced.
type tracer struct {
	run   int
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(run int) *tracer { return &tracer{run: run, epoch: time.Now()} }

// track is the span stack of one goroutine: the driver or one rank.
// Top-level spans of the track hang under parent, which is how a rank's
// spans are caused by the driver's mpi.run span.
type track struct {
	tr     *tracer
	rank   int
	parent int
	spans  []span
	open   []int
}

func (tr *tracer) track(rank, parent int) *track {
	if tr == nil {
		return nil
	}
	return &track{tr: tr, rank: rank, parent: parent}
}

func (k *track) begin(name string) {
	if k == nil {
		return
	}
	parent := k.parent
	if n := len(k.open); n > 0 {
		parent = k.spans[k.open[n-1]].ID
	}
	k.open = append(k.open, len(k.spans))
	k.spans = append(k.spans, span{
		Run: k.tr.run, ID: int(k.tr.next.Add(1)), Parent: parent, Rank: k.rank,
		Name: name, Start: time.Since(k.tr.epoch).Nanoseconds(),
	})
}

func (k *track) end() {
	if k == nil {
		return
	}
	n := len(k.open) - 1
	k.spans[k.open[n]].End = time.Since(k.tr.epoch).Nanoseconds()
	k.open = k.open[:n]
}

// current is the id of the innermost open span.
func (k *track) current() int {
	if k == nil || len(k.open) == 0 {
		return 0
	}
	return k.spans[k.open[len(k.open)-1]].ID
}

// done closes anything an unwinding rank left open and hands the
// track's spans to the tracer.
func (k *track) done() {
	if k == nil {
		return
	}
	for len(k.open) > 0 {
		k.end()
	}
	k.tr.mu.Lock()
	k.tr.spans = append(k.tr.spans, k.spans...)
	k.tr.mu.Unlock()
}

func (tr *tracer) finished() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := append([]span(nil), tr.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// driveOpts are the knobs only the benchmark's own driver can reach.
type driveOpts struct {
	// noOverlap selects the sequential exchange-then-compute schedule.
	noOverlap bool
	// noCkpt ends the run at Diagnose, for legs that time stepping only.
	noCkpt bool
	// rec, when non-nil, is attached to the runtime and to every rank,
	// to read the program's own compute/comm/wait split.
	rec *obs.Recorder
}

// drive runs one repetition of the workload through the benchmark's
// own composition of the layer calls. Its timed region is the one
// bench.run has for the same workload with wantSHA set.
func (b *bench) drive(w workload, steps int, tr *tracer, opt driveOpts) (runResult, error) {
	k := tr.track(driverRank, 0)
	defer k.done()
	k.begin("bench.run")
	defer k.end()
	switch {
	case w.Campaign:
		return b.driveCampaign(w, steps, tr, k, opt)
	case w.Ranks == 1:
		return b.driveSerial(w, steps, k, opt)
	}
	return b.driveWorld(w, steps, tr, k, opt)
}

func (b *bench) driveSerial(w workload, steps int, k *track, opt driveOpts) (runResult, error) {
	dt, err := b.fixedDT(w.Small)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{Steps: steps}
	k.begin("core.new")
	sim, err := core.New(b.config(w.Small))
	k.end()
	if err != nil {
		return res, err
	}
	defer sim.Close()
	sw := startWatch()
	for i := 0; i < steps; i++ {
		k.begin("mhd.advance")
		sim.Solver.Advance(dt)
		k.end()
	}
	sw.stop(&res)
	k.begin("mhd.check_finite")
	err = sim.Solver.CheckFinite()
	k.end()
	if err != nil {
		return res, err
	}
	k.begin("mhd.diagnose")
	res.Diag = sim.Solver.Diagnose()
	k.end()
	if !opt.noCkpt {
		if err := traceCheckpoint(k, sim.Solver, &res); err != nil {
			return res, err
		}
	}
	return res, finite(res.Diag)
}

// traceCheckpoint encodes the state and hashes it, the hash being the
// benchmark's own work.
func traceCheckpoint(k *track, sv *mhd.Solver, res *runResult) error {
	var buf bytes.Buffer
	k.begin("snapshot.write_checkpoint")
	err := snapshot.WriteCheckpoint(&buf, sv)
	k.end()
	if err != nil {
		return err
	}
	k.begin("bench.sha256")
	res.SHA, res.CkptBytes = shaHex(buf.Bytes()), buf.Len()
	k.end()
	return nil
}

// rankOut is what rank 0 hands back from a world.
type rankOut struct {
	mu    sync.Mutex
	diag  mhd.Diagnostics
	state *mhd.Solver
	ckpt  []byte
}

// driveRanks launches the world and runs fn on every rank between the
// traced NewRankWorkers and Close.
func (b *bench) driveRanks(w workload, layout *decomp.Layout, tr *tracer, k *track, opt driveOpts, fn func(c *mpi.Comm, r *decomp.Rank, rk *track)) error {
	cfg := b.config(w.Small).WithDefaults()
	k.begin("mpi.run")
	defer k.end()
	parent := k.current()
	return mpi.RunWith(w.Ranks, mpi.RunConfig{Obs: opt.rec}, func(c *mpi.Comm) {
		rk := tr.track(c.Rank(), parent)
		defer rk.done()
		rk.begin("bench.rank")
		rr := opt.rec.RankFor(c.Rank())
		rr.Open()
		defer rr.Close()
		rk.begin("decomp.new_rank")
		r, err := decomp.NewRankWorkers(c, layout, *cfg.Params, *cfg.IC, cfg.Workers)
		rk.end()
		if err != nil {
			c.Abort(err)
		}
		defer r.Close()
		r.SetObs(rr)
		if opt.noOverlap {
			r.SetOverlap(false)
		}
		fn(c, r, rk)
		rk.end()
	})
}

// advance is the stepping part every decomposed run shares.
func advance(r *decomp.Rank, rk *track, steps int, dt float64) mhd.Diagnostics {
	for i := 0; i < steps; i++ {
		rk.begin("decomp.advance")
		r.Advance(dt)
		rk.end()
	}
	rk.begin("decomp.diagnose")
	d := r.Diagnose()
	rk.end()
	return d
}

func gather(c *mpi.Comm, r *decomp.Rank, rk *track) *mhd.Solver {
	rk.begin("decomp.gather")
	sv, err := r.GatherState()
	rk.end()
	if err != nil {
		c.Abort(err)
	}
	return sv
}

func (b *bench) driveWorld(w workload, steps int, tr *tracer, k *track, opt driveOpts) (runResult, error) {
	dt, err := b.fixedDT(w.Small)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{Steps: steps}
	sw := startWatch()
	k.begin("decomp.new_layout")
	layout, err := decomp.NewLayout(b.config(w.Small).Spec(), w.Ranks)
	k.end()
	if err != nil {
		return res, err
	}
	var out rankOut
	err = b.driveRanks(w, layout, tr, k, opt, func(c *mpi.Comm, r *decomp.Rank, rk *track) {
		// Production skips the estimate when handed a dt; the driver
		// takes it once so the collective has a span. It reads state
		// only, so the trajectory is unchanged.
		rk.begin("decomp.estimate_dt")
		r.EstimateDT(safety)
		rk.end()
		d := advance(r, rk, steps, dt)
		var ckpt []byte
		if !opt.noCkpt {
			sv := gather(c, r, rk)
			if c.Rank() == 0 {
				var buf bytes.Buffer
				rk.begin("snapshot.write_checkpoint")
				werr := snapshot.WriteCheckpoint(&buf, sv)
				rk.end()
				if werr != nil {
					c.Abort(werr)
				}
				ckpt = buf.Bytes()
			}
		}
		if c.Rank() == 0 {
			out.mu.Lock()
			out.diag, out.ckpt = d, ckpt
			out.mu.Unlock()
		}
	})
	sw.stop(&res)
	if err != nil {
		return res, err
	}
	res.Diag = out.diag
	if !opt.noCkpt {
		k.begin("bench.sha256")
		res.SHA, res.CkptBytes = shaHex(out.ckpt), len(out.ckpt)
		k.end()
	}
	return res, finite(res.Diag)
}

// The campaign driver keeps what RunCampaign's store sink keeps: two
// checkpoint refs under the run's namespace, one ledger entry a commit.
const (
	driveRun  = "bench"
	driveKeep = 2
)

func ckptRef(step int) string { return fmt.Sprintf("runs/%s/ckpt-%09d", driveRun, step) }

func (b *bench) driveCampaign(w workload, steps int, tr *tracer, k *track, opt driveOpts) (runResult, error) {
	cfg := b.config(w.Small).WithDefaults()
	dt, err := b.fixedDT(w.Small)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{Steps: steps}
	dir := b.freshDir()
	defer os.RemoveAll(dir)
	k.begin("decomp.new_layout")
	layout, err := decomp.NewLayout(cfg.Spec(), w.Ranks)
	k.end()
	if err != nil {
		return res, err
	}

	commit := func(st *store.Store, sv *mhd.Solver, note string) error {
		var buf bytes.Buffer
		k.begin("snapshot.write_checkpoint")
		err := snapshot.WriteCheckpoint(&buf, sv)
		k.end()
		if err != nil {
			return err
		}
		k.begin("store.put")
		h, err := st.Put(buf.Bytes())
		k.end()
		if err != nil {
			return err
		}
		k.begin("store.set_ref")
		err = st.SetRef(ckptRef(sv.Step), h)
		k.end()
		if err != nil {
			return err
		}
		k.begin("store.append")
		_, err = st.Append(store.Manifest{
			Run: driveRun, Step: sv.Step, Note: note,
			Artifacts: []store.Artifact{{
				Name: fmt.Sprintf("ckpt-%09d", sv.Step), Role: "checkpoint", Hash: h, Size: int64(buf.Len()),
			}},
		})
		k.end()
		return err
	}
	prune := func(st *store.Store) error {
		k.begin("store.prune")
		defer k.end()
		refs, err := st.Refs("runs/" + driveRun + "/")
		if err != nil {
			return err
		}
		for ; len(refs) > driveKeep; refs = refs[1:] {
			if err := st.DelRef(refs[0].Name); err != nil {
				return err
			}
		}
		return nil
	}
	segment := func(src *mhd.Solver, n int) (*mhd.Solver, mhd.Diagnostics, error) {
		var out rankOut
		err := b.driveRanks(w, layout, tr, k, opt, func(c *mpi.Comm, r *decomp.Rank, rk *track) {
			var in *snapshot.Interior
			if c.Rank() == 0 {
				rk.begin("snapshot.interior_of")
				in = snapshot.InteriorOf(src)
				rk.end()
			}
			rk.begin("decomp.scatter")
			err := r.ScatterInterior(in)
			rk.end()
			if err != nil {
				c.Abort(err)
			}
			d := advance(r, rk, n, dt)
			sv := gather(c, r, rk)
			if c.Rank() == 0 {
				out.mu.Lock()
				out.diag, out.state = d, sv
				out.mu.Unlock()
			}
		})
		return out.state, out.diag, err
	}
	// call is one RunCampaign call: reopen the store as a restarted
	// process would, restore the newest checkpoint or commit the
	// origin, then run segments up to upTo.
	call := func(upTo int) (*mhd.Solver, error) {
		k.begin("store.open")
		st, err := openStore(dir)
		k.end()
		if err != nil {
			return nil, err
		}
		k.begin("store.sweep")
		_, err = st.Sweep()
		k.end()
		if err != nil {
			return nil, err
		}
		k.begin("store.refs")
		refs, err := st.Refs("runs/" + driveRun + "/")
		k.end()
		if err != nil {
			return nil, err
		}
		var state *mhd.Solver
		if len(refs) > 0 {
			// Zero-padded step numbers sort by name.
			k.begin("store.get")
			data, err := st.Get(refs[len(refs)-1].Hash)
			k.end()
			if err != nil {
				return nil, err
			}
			k.begin("snapshot.read_checkpoint")
			state, err = snapshot.ReadCheckpoint(bytes.NewReader(data))
			k.end()
			if err != nil {
				return nil, err
			}
		} else {
			k.begin("mhd.new_solver")
			state, err = mhd.NewSolver(cfg.Spec(), *cfg.Params, *cfg.IC)
			k.end()
			if err != nil {
				return nil, err
			}
			if err := commit(st, state, "origin"); err != nil {
				return nil, err
			}
		}
		for state.Step < upTo {
			n := ckptEvery - state.Step%ckptEvery
			if state.Step+n > upTo {
				n = upTo - state.Step
			}
			next, diag, err := segment(state, n)
			if err != nil {
				return nil, err
			}
			k.begin("mhd.check_finite")
			err = next.CheckFinite()
			k.end()
			if err != nil {
				return nil, err
			}
			state, res.Diag = next, diag
			if err := commit(st, state, "segment"); err != nil {
				return nil, err
			}
			if err := prune(st); err != nil {
				return nil, err
			}
		}
		return state, nil
	}

	half := steps / 2 / ckptEvery * ckptEvery
	sw := startWatch()
	if _, err := call(half); err != nil {
		return res, err
	}
	_, err = call(steps)
	sw.stop(&res)
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	final, err := call(steps)
	res.ResumeNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return res, err
	}
	if final.Step != steps {
		return res, fmt.Errorf("%s: traced campaign ended at step %d, want %d", w.Name, final.Step, steps)
	}
	if err := traceCheckpoint(k, final, &res); err != nil {
		return res, err
	}
	return res, finite(res.Diag)
}

// selfTimes gives each span's duration minus the part of it its child
// spans cover (overlapping children, as ranks under mpi.run are, cover
// their union once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, c := range kids {
		lo, hi := c.Start, c.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// budget is the per-layer account of one traced run.
type budget struct {
	Workload string `json:"workload"`
	Steps    int    `json:"steps"`
	// WallMS is the root span: the traced wall.
	WallMS float64 `json:"wall_ms"`
	// DriverSelfMS is self time by layer on the driver track; it sums
	// with the time the ranks cover to WallMS. RankSelfMS is self time
	// by layer summed over the rank tracks (rank-milliseconds).
	DriverSelfMS map[string]float64 `json:"driver_self_ms"`
	RankSelfMS   map[string]float64 `json:"rank_self_ms"`
	// RankCoveredMS is the part of the wall during which at least one
	// rank was running under the driver's mpi.run spans.
	RankCoveredMS float64 `json:"rank_covered_ms"`
	// CoveragePct is the share of all self time that sits in a layer's
	// call rather than in the benchmark's own glue.
	CoveragePct float64 `json:"coverage_pct"`
}

func newBudget(w workload, steps int, spans []span) budget {
	self := selfTimes(spans)
	bd := budget{
		Workload: w.Name, Steps: steps,
		DriverSelfMS: map[string]float64{}, RankSelfMS: map[string]float64{},
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var all, glue float64
	for _, s := range spans {
		ms := float64(self[s.ID]) * 1e-6
		all += ms
		if s.layer() == "bench" {
			glue += ms
		}
		if s.Rank == driverRank {
			bd.DriverSelfMS[s.layer()] += ms
			if s.Parent == 0 {
				bd.WallMS = float64(s.dur()) * 1e-6
			}
		} else {
			bd.RankSelfMS[s.layer()] += ms
		}
	}
	// A rank's root span hangs under a driver span: what the ranks
	// cover of that span is wall the driver spent waiting on them.
	rankRoots := map[int][]span{}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && p.Rank == driverRank && s.Rank != driverRank {
			rankRoots[p.ID] = append(rankRoots[p.ID], s)
		}
	}
	for id, roots := range rankRoots {
		bd.RankCoveredMS += float64(covered(byID[id], roots)) * 1e-6
	}
	if all > 0 {
		bd.CoveragePct = 100 * (1 - glue/all)
	}
	return bd
}

// driverSelfSum is the invariant the test checks: self times on the
// driver track plus the wall its ranks cover equal the traced wall.
func (bd budget) driverSelfSum() float64 {
	sum := bd.RankCoveredMS
	for _, ms := range bd.DriverSelfMS {
		sum += ms
	}
	return sum
}

// allRanks selects every track in spanMS.
const allRanks = driverRank - 1

// spanMS returns the durations in milliseconds of every span with the
// given name on the given rank's track, or on all of them.
func spanMS(spans []span, name string, rank int) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (rank == allRanks || s.Rank == rank) {
			out = append(out, float64(s.dur())*1e-6)
		}
	}
	return out
}

// perRankTotalMS sums the named span per rank and returns the totals.
func perRankTotalMS(spans []span, name string) []float64 {
	byRank := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			byRank[s.Rank] += float64(s.dur()) * 1e-6
		}
	}
	out := make([]float64, 0, len(byRank))
	for _, ms := range byRank {
		out = append(out, ms)
	}
	return out
}

// writeTrace stores the spans as Chrome trace-event JSON (complete
// events, one process per run, one thread per track), which Perfetto
// and chrome://tracing open directly; id and parent ride in args.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			TS: float64(s.Start) * 1e-3, Dur: float64(s.dur()) * 1e-3,
			PID: s.Run, TID: s.Rank + 1, // the driver track is thread 0
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "rank": s.Rank},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(path, data, 0o644)
}
