package decomp

import (
	"fmt"
	"runtime"

	"repro/internal/field"
	"repro/internal/grid"
	"repro/internal/mhd"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/overset"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// Tag spaces for the three communication phases of a stage.
const (
	tagHaloBase    = 0   // +0..3 by direction
	tagHaloBBase   = 8   // +0..3, magnetic-field halo refresh
	tagHaloAuxBase = 16  // +0..3, differentiated-intermediate halo refresh
	tagRimBase     = 24  // +0..3, post-overset rim-crossing cell refresh
	tagOversetBase = 100 // + receiver-specific is unnecessary: one msg per peer
)

// ExchangeTags lists every message tag the decomposed solver uses for
// its cross-rank exchanges — the halo refreshes (all three field
// groups), the rim refresh, and the overset exchange. Fault-space
// fuzzers draw from this list so a generated FaultPlan always targets a
// tag the solver actually sends.
func ExchangeTags() []int {
	tags := make([]int, 0, 17)
	for _, base := range []int{tagHaloBase, tagHaloBBase, tagHaloAuxBase, tagRimBase} {
		for d := 0; d < 4; d++ {
			tags = append(tags, base+d)
		}
	}
	return append(tags, tagOversetBase)
}

// Rank is one process of the parallel yycore run: a block of one panel,
// with its neighbour links, halo buffers, and its share of the overset
// exchange plan.
type Rank struct {
	World  *mpi.Comm
	Cart   *mpi.Cart
	Layout *Layout
	Panel  grid.Panel
	PL     *mhd.Panel
	Prm    mhd.Params

	Time  float64
	StepN int

	// Overset plan, grouped by peer world rank; target order follows the
	// global plan order on both sides, so messages pack and unpack
	// identically without coordination.
	oversetSend map[int][]overset.Target
	oversetRecv map[int][]overset.Target
	peersSend   []int // sorted peer lists for deterministic iteration
	peersRecv   []int

	// Preallocated exchange state: the halo/rim staging arena, one
	// message buffer per overset peer, and the posted-receive request
	// list — sized once so the steady-state exchange path allocates
	// nothing.
	halo      *HaloBufs
	ovSendBuf map[int][]float64
	ovRecvBuf map[int][]float64
	ovReqs    []*mpi.Request
	staging   []float64 // gather/scatter staging, reusable as Send copies

	// pool is the rank's intra-process worker pool (nil means serial
	// kernels); it is wired into the patch so the stencil kernels of
	// internal/fd, internal/sphops and internal/mhd route through it.
	pool *par.Pool

	// obs is the rank's span recorder (nil when the run is untraced;
	// every span call degrades to a nil check). lastDT remembers the
	// most recent step size for the CFL gauge.
	obs    *obs.RankRec
	lastDT float64

	// tele is the rank's live-telemetry publish slot (nil when the run
	// is untelemetrized). snap is the writer-owned staging snapshot:
	// the step path updates its fields and republishes it, so a
	// scraper between Diagnose calls still sees the last diagnostics.
	tele *telemetry.RankPub
	snap telemetry.Snapshot

	// Overlapped-RHS schedule state: the owned columns split once into
	// the seam-independent interior and the width-1 rim (the stencil
	// radius), plus the toggle that falls back to the fully sequential
	// exchange-then-compute schedule. Both schedules are bit-identical;
	// the toggle exists so correctness suites can pin that and so a
	// regression can be bisected at runtime.
	overlap  bool
	interior grid.Region
	rim      grid.Region
	fullReg  grid.Region

	nrP int // padded radial extent (column length)
}

// SetObs attaches the rank's span recorder and wires the worker pool's
// utilization gauge. Call right after NewRank, before the first
// Advance; a nil recorder (or nil method receiver sub-recorder) keeps
// the rank untraced.
func (r *Rank) SetObs(rr *obs.RankRec) {
	r.obs = rr
	r.pool.SetGauge(rr.PoolGauge())
}

// SetTelemetry attaches the rank's live-telemetry publish slot. Like
// SetObs it is wired at segment setup; a nil slot keeps the rank
// silent and costs one nil check per step. Publishing is a fixed
// number of atomic stores into rank-owned memory — no clock reads, no
// allocation, no communication — so a telemetrized run stays
// bit-identical to a silent one.
func (r *Rank) SetTelemetry(pub *telemetry.RankPub) {
	r.tele = pub
}

// NewRank builds the rank-local solver for world rank w of the layout,
// splits the world into panels, creates the panel's Cartesian process
// grid, initializes the local state, and applies all constraints. The
// rank's worker pool is auto-sized to its share of GOMAXPROCS; use
// NewRankWorkers to pick the width explicitly. Close the rank after
// the run to release the pool.
func NewRank(world *mpi.Comm, l *Layout, prm mhd.Params, ic mhd.InitialConditions) (*Rank, error) {
	return NewRankWorkers(world, l, prm, ic, 0)
}

// NewRankWorkers is NewRank with an explicit intra-rank worker count:
// each rank owns a pool of that many workers, reused across steps, and
// routes its stencil/overset kernels through it. workers <= 0 selects
// the automatic per-world share max(1, GOMAXPROCS/worldSize) — the
// paper's layout of vector pipelines per AP divided among the processes
// placed on it. workers == 1 keeps the kernels serial. Parallel kernels
// are bit-identical to serial ones, so the choice never changes
// results. It is the fresh-start constructor: the block starts from the
// initial condition with all constraints applied.
func NewRankWorkers(world *mpi.Comm, l *Layout, prm mhd.Params, ic mhd.InitialConditions, workers int) (*Rank, error) {
	r, err := newStatelessRank(world, l, prm, workers)
	if err != nil {
		return nil, err
	}
	mhd.InitPanel(r.PL, prm, ic)
	r.applyConstraints()
	return r, nil
}

// NewBlankRank is the restore-bound constructor: the block in the
// unperturbed conduction state (mhd.FillConductionState), no initial
// condition evaluated and no constraint exchange run. A rank about to
// be scattered into is built this way, since ScatterInterior overwrites
// the whole block and applies the constraints itself; it must be
// scattered into before it steps. workers is as for NewRankWorkers.
func NewBlankRank(world *mpi.Comm, l *Layout, prm mhd.Params, workers int) (*Rank, error) {
	r, err := newStatelessRank(world, l, prm, workers)
	if err != nil {
		return nil, err
	}
	mhd.FillConductionState(r.PL, prm)
	return r, nil
}

// newStatelessRank builds everything of a rank that does not depend on
// the state — patch, worker pool, halo buffers, overset plan — and
// leaves the block's state arrays zeroed.
func newStatelessRank(world *mpi.Comm, l *Layout, prm mhd.Params, workers int) (*Rank, error) {
	if world.Size() != l.NProcs {
		return nil, fmt.Errorf("decomp: layout wants %d processes, world has %d", l.NProcs, world.Size())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / world.Size()
		if workers < 1 {
			workers = 1
		}
	}
	panel := l.PanelOf(world.Rank())
	// MPI_COMM_SPLIT into the Yin and Yang panels.
	pcomm := world.Split(int(panel), world.Rank())
	// MPI_CART_CREATE within the panel.
	cart, err := pcomm.CartCreate2D(l.PT, l.PP)
	if err != nil {
		return nil, err
	}
	patch := l.SubPatch(world.Rank(), 1)
	patch.Par = par.NewPool(workers)

	r := &Rank{
		World:   world,
		Cart:    cart,
		Layout:  l,
		Panel:   panel,
		PL:      mhd.NewPanel(patch, prm.Omega),
		Prm:     prm,
		pool:    patch.Par,
		overlap: true,
		nrP:     l.Spec.Nr + 2*patch.H,
	}
	in, rim := patch.SplitInteriorRim(1)
	r.interior = grid.Region{in}
	r.rim = rim
	r.fullReg = patch.OwnedRegion()
	// The rank's largest halo exchange moves the 8 state scalars.
	r.halo = NewHaloBufs(patch, len(r.stateFields()))
	if err := r.buildOversetPlan(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Close releases the rank's worker pool; the rank must not advance
// afterwards. Safe on a serial rank and when called twice.
func (r *Rank) Close() {
	r.pool.Close()
}

// buildOversetPlan computes the global rim-interpolation plan (identical
// on every rank) and keeps the entries where this rank is the donor or
// the receiver, grouped by the peer's world rank.
func (r *Rank) buildOversetPlan() error {
	// The plan is a pure function of the spec; the memoized PlanFor
	// computes the rim weights once per process instead of once per rank.
	plan, err := overset.PlanFor(r.Layout.Spec)
	if err != nil {
		return err
	}
	r.oversetSend = map[int][]overset.Target{}
	r.oversetRecv = map[int][]overset.Target{}
	me := r.World.Rank()
	for _, t := range plan.Targets {
		for _, p := range []grid.Panel{grid.Yin, grid.Yang} {
			recvRank := r.Layout.OwnerOf(p, t.Recv.J, t.Recv.K)
			donorRank := r.Layout.OwnerOf(p.Other(), t.DJ, t.DK)
			if me == donorRank {
				r.oversetSend[recvRank] = append(r.oversetSend[recvRank], t)
			}
			if me == recvRank {
				r.oversetRecv[donorRank] = append(r.oversetRecv[donorRank], t)
			}
		}
	}
	r.peersSend = sortedKeys(r.oversetSend)
	r.peersRecv = sortedKeys(r.oversetRecv)
	// Pre-size one message buffer per peer (8 columns per target) and
	// the posted-receive request list, so oversetExchange reuses them
	// every stage instead of allocating.
	r.ovSendBuf = map[int][]float64{}
	for _, peer := range r.peersSend {
		r.ovSendBuf[peer] = make([]float64, len(r.oversetSend[peer])*8*r.nrP)
	}
	r.ovRecvBuf = map[int][]float64{}
	for _, peer := range r.peersRecv {
		r.ovRecvBuf[peer] = make([]float64, len(r.oversetRecv[peer])*8*r.nrP)
	}
	r.ovReqs = make([]*mpi.Request, len(r.peersRecv))
	return nil
}

func sortedKeys(m map[int][]overset.Target) []int {
	keys := make([]int, 0, len(m))
	//yyvet:ignore det-purity the keys are insertion-sorted immediately below, so the collection order never escapes
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// exchangeHalos swaps one halo layer of every field with the four
// nearest neighbours inside the panel (MPI_SEND / MPI_IRECV between
// MPI_CART_SHIFT neighbours in the paper). Theta-direction messages span
// the interior phi range and vice versa; corner halos are not needed by
// the axis-aligned stencils.
func (r *Rank) exchangeHalos(fields []*field.Scalar, tagBase int) {
	north, south, west, east := r.Cart.Neighbours()
	p := r.PL.Patch
	h := p.H
	hb := r.halo
	nf := len(fields)

	// Theta-direction messages span the FULL padded phi range: the phi
	// exchange runs first, so the theta messages carry the freshly filled
	// phi-halo values into the diagonal (corner) halo cells. Corner halos
	// are not needed by the axis-aligned stencils, but the overset donors
	// interpolate from 2x2 node cells that can straddle a block corner.
	//
	// Each phase follows the paper's non-blocking pattern: post
	// MPI_IRECV for both neighbours first, send, then complete each
	// receive with Wait before unpacking (drop a Wait and the
	// serial-equivalence goldens, TestParallelMatchesSerial and
	// TestOverlapByteIdentity among them, fail). The phases cannot
	// overlap each other: theta packing must see the freshly unpacked
	// phi halos.
	// All staging buffers come from the rank's preallocated HaloBufs
	// arena: Send copies synchronously, and every receive buffer is
	// consumed within its phase, so reuse is race-free and the
	// steady-state path allocates nothing.

	// Phase 1: phi direction.
	sp := r.obs.Begin(obs.SpanHaloPack)
	var reqEast, reqWest *mpi.Request
	var bufEast, bufWest []float64
	if east >= 0 {
		bufEast = hb.RecvPhi(nf, dirEast)
		reqEast = r.Cart.Irecv(east, tagBase+2, bufEast)
	}
	if west >= 0 {
		bufWest = hb.RecvPhi(nf, dirWest)
		reqWest = r.Cart.Irecv(west, tagBase+3, bufWest)
	}
	if west >= 0 {
		r.Cart.Send(west, tagBase+2, hb.PackPhi(fields, h, dirWest))
	}
	if east >= 0 {
		r.Cart.Send(east, tagBase+3, hb.PackPhi(fields, h+p.Np-1, dirEast))
	}
	sp.End()
	if reqEast != nil {
		w := r.obs.Begin(obs.SpanHaloWait)
		reqEast.Wait()
		w.End()
		u := r.obs.Begin(obs.SpanHaloUnpack)
		hb.UnpackPhi(fields, h+p.Np, bufEast)
		u.End()
	}
	if reqWest != nil {
		w := r.obs.Begin(obs.SpanHaloWait)
		reqWest.Wait()
		w.End()
		u := r.obs.Begin(obs.SpanHaloUnpack)
		hb.UnpackPhi(fields, h-1, bufWest)
		u.End()
	}

	// Phase 2: theta direction, now carrying phi halos.
	sp = r.obs.Begin(obs.SpanHaloPack)
	var reqNorth, reqSouth *mpi.Request
	var bufNorth, bufSouth []float64
	if south >= 0 {
		bufSouth = hb.RecvTheta(nf, dirSouth)
		reqSouth = r.Cart.Irecv(south, tagBase+0, bufSouth)
	}
	if north >= 0 {
		bufNorth = hb.RecvTheta(nf, dirNorth)
		reqNorth = r.Cart.Irecv(north, tagBase+1, bufNorth)
	}
	if north >= 0 {
		r.Cart.Send(north, tagBase+0, hb.PackTheta(fields, h, dirNorth))
	}
	if south >= 0 {
		r.Cart.Send(south, tagBase+1, hb.PackTheta(fields, h+p.Nt-1, dirSouth))
	}
	sp.End()
	if reqSouth != nil {
		w := r.obs.Begin(obs.SpanHaloWait)
		reqSouth.Wait()
		w.End()
		u := r.obs.Begin(obs.SpanHaloUnpack)
		hb.UnpackTheta(fields, h+p.Nt, bufSouth)
		u.End()
	}
	if reqNorth != nil {
		w := r.obs.Begin(obs.SpanHaloWait)
		reqNorth.Wait()
		w.End()
		u := r.obs.Begin(obs.SpanHaloUnpack)
		hb.UnpackTheta(fields, h-1, bufNorth)
		u.End()
	}
}

// SetOverlap selects between the overlapped RHS schedule (halo receives
// posted, interior computed while messages fly, rim finished after the
// waits) and the sequential exchange-then-compute fallback. Both produce
// bitwise-identical states; the default is overlapped.
func (r *Rank) SetOverlap(on bool) { r.overlap = on }

// haloOverlap is one in-flight corner-free halo exchange: the four
// posted receives and their buffers, between haloStart and haloFinish.
type haloOverlap struct {
	fields             []*field.Scalar
	reqEast, reqWest   *mpi.Request
	reqSouth, reqNorth *mpi.Request
	bufEast, bufWest   []float64
	bufSouth, bufNorth []float64
}

// haloStart begins the corner-free halo exchange of the overlapped
// schedule: it posts all four receives, then sends all four messages,
// and returns with the exchange in flight so the caller can compute
// under it. Unlike exchangeHalos, both directions move concurrently and
// each message carries only the owned range of its layer (theta
// messages span owned phi and vice versa), so no corner halo cells are
// written — which is exactly why the two directions need no ordering.
// Only exchanges whose consumers are axis-aligned stencils (the B and
// div-v refreshes) may use it; the state exchange keeps the sequential
// corner-carrying phases for the overset donors. Tags follow the
// exchangeHalos convention (theta +0/+1, phi +2/+3), so fault plans
// target both schedules identically.
//
// slot is the index of the exchange's first field in the HaloBufs
// receive staging: two exchanges in flight together take disjoint
// field slots, since their receives are consumed only at haloFinish.
func (r *Rank) haloStart(fields []*field.Scalar, tagBase, slot int) haloOverlap {
	north, south, west, east := r.Cart.Neighbours()
	p := r.PL.Patch
	h := p.H
	hb := r.halo
	nf := len(fields)
	ov := haloOverlap{fields: fields}

	sp := r.obs.Begin(obs.SpanHaloPack)
	if east >= 0 {
		ov.bufEast = hb.RecvSlot(slot, nf, p.Nt, dirEast)
		ov.reqEast = r.Cart.Irecv(east, tagBase+2, ov.bufEast)
	}
	if west >= 0 {
		ov.bufWest = hb.RecvSlot(slot, nf, p.Nt, dirWest)
		ov.reqWest = r.Cart.Irecv(west, tagBase+3, ov.bufWest)
	}
	if south >= 0 {
		ov.bufSouth = hb.RecvSlot(slot, nf, p.Np, dirSouth)
		ov.reqSouth = r.Cart.Irecv(south, tagBase+0, ov.bufSouth)
	}
	if north >= 0 {
		ov.bufNorth = hb.RecvSlot(slot, nf, p.Np, dirNorth)
		ov.reqNorth = r.Cart.Irecv(north, tagBase+1, ov.bufNorth)
	}
	if west >= 0 {
		r.Cart.Send(west, tagBase+2, hb.PackPhiRange(fields, h, h, h+p.Nt, dirWest))
	}
	if east >= 0 {
		r.Cart.Send(east, tagBase+3, hb.PackPhiRange(fields, h+p.Np-1, h, h+p.Nt, dirEast))
	}
	if north >= 0 {
		r.Cart.Send(north, tagBase+0, hb.PackThetaRange(fields, h, h, h+p.Np, dirNorth))
	}
	if south >= 0 {
		r.Cart.Send(south, tagBase+1, hb.PackThetaRange(fields, h+p.Nt-1, h, h+p.Np, dirSouth))
	}
	sp.End()
	return ov
}

// haloFinish completes a haloStart exchange: waits on each posted
// receive and unpacks it into the matching halo layer. After it returns
// the rim stencils may read the exchanged halos.
func (r *Rank) haloFinish(ov *haloOverlap) {
	p := r.PL.Patch
	h := p.H
	hb := r.halo
	done := func(req *mpi.Request, unpack func()) {
		if req == nil {
			return
		}
		w := r.obs.Begin(obs.SpanHaloWait)
		req.Wait()
		w.End()
		u := r.obs.Begin(obs.SpanHaloUnpack)
		unpack()
		u.End()
	}
	done(ov.reqEast, func() { hb.UnpackPhiRange(ov.fields, h+p.Np, h, h+p.Nt, ov.bufEast) })
	done(ov.reqWest, func() { hb.UnpackPhiRange(ov.fields, h-1, h, h+p.Nt, ov.bufWest) })
	done(ov.reqSouth, func() { hb.UnpackThetaRange(ov.fields, h+p.Nt, h, h+p.Np, ov.bufSouth) })
	done(ov.reqNorth, func() { hb.UnpackThetaRange(ov.fields, h-1, h, h+p.Np, ov.bufNorth) })
}

// oversetExchange performs the distributed Yin<->Yang rim interpolation
// for the whole state (rho, p, F, A). Donors interpolate columns from
// their interior-plus-halo data and send one message per receiving peer
// under the world communicator; receivers scatter into their rim nodes.
// Eight columns flow per target: two scalars and two rotated vectors.
func (r *Rank) oversetExchange() {
	p := r.PL.Patch
	h := p.H
	nrP := r.nrP
	u := &r.PL.U

	// Post one non-blocking receive per donating peer before any work,
	// so every incoming rim message has a matching MPI_IRECV in flight
	// while this rank interpolates its own donations. The per-peer
	// message buffers and the request list were pre-sized by
	// buildOversetPlan and are reused every stage.
	sp := r.obs.Begin(obs.SpanOversetDonate)
	for pi, peer := range r.peersRecv {
		r.ovReqs[pi] = r.World.Irecv(peer, tagOversetBase, r.ovRecvBuf[peer])
	}

	// Donate: each target interpolates its 8 columns (2 scalars + 2
	// rotated vectors) directly into its own disjoint segment of the
	// peer's send buffer, range-split over the rank's worker pool —
	// bit-identical to a serial target loop. The interpolation runs
	// with every rim receive already posted, so it counts as overlap:
	// wait time the posted receives would otherwise accumulate is spent
	// computing instead.
	for _, peer := range r.peersSend {
		targets := r.oversetSend[peer]
		buf := r.ovSendBuf[peer]
		ho := r.obs.Begin(obs.SpanHaloOverlap)
		p.Par.For(len(targets), func(lo, hi int) {
			for ti := lo; ti < hi; ti++ {
				t := targets[ti]
				seg := buf[ti*8*nrP : (ti+1)*8*nrP]
				ldj := t.DJ - p.JOff + h
				ldk := t.DK - p.KOff + h
				gather := func(f *field.Scalar, dst []float64) {
					r0 := f.Row(ldj, ldk)
					r1 := f.Row(ldj+1, ldk)
					r2 := f.Row(ldj, ldk+1)
					r3 := f.Row(ldj+1, ldk+1)
					for i := range dst {
						dst[i] = t.W[0]*r0[i] + t.W[1]*r1[i] + t.W[2]*r2[i] + t.W[3]*r3[i]
					}
				}
				rotate := func(ct, cp []float64) {
					for i := range ct {
						ct[i], cp[i] = t.Rot.Apply(ct[i], cp[i])
					}
				}
				gather(u.Rho, seg[0:nrP])
				gather(u.P, seg[nrP:2*nrP])
				gather(u.F.R, seg[2*nrP:3*nrP])
				gather(u.F.T, seg[3*nrP:4*nrP])
				gather(u.F.P, seg[4*nrP:5*nrP])
				rotate(seg[3*nrP:4*nrP], seg[4*nrP:5*nrP])
				gather(u.A.R, seg[5*nrP:6*nrP])
				gather(u.A.T, seg[6*nrP:7*nrP])
				gather(u.A.P, seg[7*nrP:8*nrP])
				rotate(seg[6*nrP:7*nrP], seg[7*nrP:8*nrP])
			}
		})
		ho.End()
		r.World.Send(peer, tagOversetBase, buf)
	}
	sp.End()

	// Receive: complete each posted request, then scatter.
	for pi, peer := range r.peersRecv {
		targets := r.oversetRecv[peer]
		w := r.obs.Begin(obs.SpanOversetWait)
		r.ovReqs[pi].Wait()
		w.End()
		rv := r.obs.Begin(obs.SpanOversetRecv)
		buf := r.ovRecvBuf[peer]
		pos := 0
		take := func(dst []float64) {
			copy(dst, buf[pos:pos+nrP])
			pos += nrP
		}
		for _, t := range targets {
			lj := t.Recv.J - p.JOff + h
			lk := t.Recv.K - p.KOff + h
			take(u.Rho.Row(lj, lk))
			take(u.P.Row(lj, lk))
			for _, v := range []*field.Vector{u.F, u.A} {
				take(v.R.Row(lj, lk))
				take(v.T.Row(lj, lk))
				take(v.P.Row(lj, lk))
			}
		}
		rv.End()
	}
}

// stateFields lists the eight state scalars for halo exchange.
func (r *Rank) stateFields() []*field.Scalar {
	s := r.PL.U.Scalars()
	return s[:]
}

// applyConstraints mirrors the serial solver's constraint application:
// refresh halos (the overset donors interpolate from interior-plus-halo
// data), impose walls, run the overset exchange, re-impose the walls
// (ApplyWallBC sweeps every column, not only the overset-rewritten rim
// ones), and refresh halos once more so that halo copies of the
// partner blocks' rim columns carry their post-overset values — without
// the second refresh, stencils at block seams adjacent to the panel rim
// would consume stale rim data that the serial solver never sees.
func (r *Rank) applyConstraints() {
	r.exchangeHalos(r.stateFields(), tagHaloBase)
	mhd.ApplyWallBC(r.PL, r.Prm)
	r.oversetExchange()
	mhd.ApplyWallBC(r.PL, r.Prm)
	// The overset exchange rewrote the panel-rim rows and columns, so
	// neighbouring blocks' halo copies of rim-crossing cells are stale.
	// Those cells feed kept results through one chain only: A at a rim
	// cell -> B = curl A at a rim-column node -> J = curl B at an
	// adjacent interior node. A thin refresh of just the rim-crossing
	// cells (at most two radial columns per direction) restores
	// serial-equivalence at a tiny fraction of a full halo exchange.
	// The pseudo-vacuum magnetic wall additionally couples wall values
	// across several columns, so it falls back to the full exchange.
	if r.Prm.MagBC == mhd.BCConfined {
		r.rimRefresh()
		return
	}
	// Pseudo-vacuum: the wall recomputation reads angular neighbours of
	// the wall rows, so it must see post-overset rim data; re-impose the
	// walls on fresh halos and share the result.
	r.exchangeHalos(r.stateFields(), tagHaloBase)
	mhd.ApplyWallBC(r.PL, r.Prm)
	r.exchangeHalos(r.stateFields(), tagHaloBase)
}

// rimRefresh re-sends only the halo cells that sit on the panel's global
// rim rows/columns after the overset exchange rewrote them.
func (r *Rank) rimRefresh() {
	defer r.obs.Begin(obs.SpanRim).End()
	north, south, west, east := r.Cart.Neighbours()
	p := r.PL.Patch
	h := p.H
	hb := r.halo
	fields := r.stateFields()
	nf := len(fields)
	spec := r.Layout.Spec

	// Local padded indices of the global rim columns/rows this block
	// owns. At most two per direction, so a fixed backing array keeps
	// this allocation-free.
	var rimColsA, rimRowsA [2]int
	rimCols, rimRows := rimColsA[:0], rimRowsA[:0]
	if p.KOff == 0 {
		rimCols = append(rimCols, h)
	}
	if p.KOff+p.Np == spec.Np {
		rimCols = append(rimCols, h+p.Np-1)
	}
	if p.JOff == 0 {
		rimRows = append(rimRows, h)
	}
	if p.JOff+p.Nt == spec.Nt {
		rimRows = append(rimRows, h+p.Nt-1)
	}

	// Theta neighbours share this block's column range, so the same
	// rimCols predicate holds on both sides; likewise for rows in phi.
	// Posted-receive pattern as in exchangeHalos (Irecv, send, Wait,
	// unpack), with all staging drawn from the HaloBufs arena.
	if len(rimCols) > 0 {
		var reqSouth, reqNorth *mpi.Request
		var bufSouth, bufNorth []float64
		if south >= 0 {
			bufSouth = hb.RecvCells(nf, len(rimCols), dirSouth)
			reqSouth = r.Cart.Irecv(south, tagRimBase+0, bufSouth)
		}
		if north >= 0 {
			bufNorth = hb.RecvCells(nf, len(rimCols), dirNorth)
			reqNorth = r.Cart.Irecv(north, tagRimBase+1, bufNorth)
		}
		if north >= 0 {
			r.Cart.Send(north, tagRimBase+0, hb.PackRowCells(fields, h, rimCols, dirNorth))
		}
		if south >= 0 {
			r.Cart.Send(south, tagRimBase+1, hb.PackRowCells(fields, h+p.Nt-1, rimCols, dirSouth))
		}
		if reqSouth != nil {
			w := r.obs.Begin(obs.SpanHaloWait)
			reqSouth.Wait()
			w.End()
			hb.UnpackRowCells(fields, h+p.Nt, rimCols, bufSouth)
		}
		if reqNorth != nil {
			w := r.obs.Begin(obs.SpanHaloWait)
			reqNorth.Wait()
			w.End()
			hb.UnpackRowCells(fields, h-1, rimCols, bufNorth)
		}
	}
	if len(rimRows) > 0 {
		var reqEast, reqWest *mpi.Request
		var bufEast, bufWest []float64
		if east >= 0 {
			bufEast = hb.RecvCells(nf, len(rimRows), dirEast)
			reqEast = r.Cart.Irecv(east, tagRimBase+2, bufEast)
		}
		if west >= 0 {
			bufWest = hb.RecvCells(nf, len(rimRows), dirWest)
			reqWest = r.Cart.Irecv(west, tagRimBase+3, bufWest)
		}
		if west >= 0 {
			r.Cart.Send(west, tagRimBase+2, hb.PackColCells(fields, h, rimRows, dirWest))
		}
		if east >= 0 {
			r.Cart.Send(east, tagRimBase+3, hb.PackColCells(fields, h+p.Np-1, rimRows, dirEast))
		}
		if reqEast != nil {
			w := r.obs.Begin(obs.SpanHaloWait)
			reqEast.Wait()
			w.End()
			hb.UnpackColCells(fields, h+p.Np, rimRows, bufEast)
		}
		if reqWest != nil {
			w := r.obs.Begin(obs.SpanHaloWait)
			reqWest.Wait()
			w.End()
			hb.UnpackColCells(fields, h-1, rimRows, bufWest)
		}
	}
}

// rhs evaluates the stage's right-hand side and folds it into the
// state: compute the subsidiary fields, refresh the magnetic-field and
// div-v halos (both are differentiated), then sweep once over the owned
// columns with mhd.RHSStage.
//
// With overlap enabled the two halo refreshes hide under compute. Both
// exchanged families (B, div v) are consumed only by axis-aligned
// stencils, so the corner-free haloStart exchange suffices, and the
// interior — every owned point at least the stencil radius from a
// neighbour boundary — depends on no incoming halo at all. The schedule
// therefore posts the B exchange, evaluates div v everywhere under it
// (div v reads no B), posts the div-v exchange, evaluates the
// current-density curl on the interior while both fly, finishes B and
// the curl on the rim, finishes div v, and ends in the one full-cover
// stage sweep. Every point is still computed exactly once by the same
// arithmetic, so the result is bitwise identical to the sequential
// fallback below.
func (r *Rank) rhs(st mhd.Stage) {
	defer r.obs.Begin(obs.SpanRHS).End()
	pl := r.PL
	mhd.ComputeVTB(pl, &pl.U)
	b := []*field.Scalar{pl.B.R, pl.B.T, pl.B.P}
	if !r.overlap {
		r.exchangeHalos(b, tagHaloBBase)
		mhd.FinishStage(pl, r.Prm, st, func(fs ...*field.Scalar) {
			r.exchangeHalos(fs, tagHaloAuxBase)
		})
		return
	}
	ovB := r.haloStart(b, tagHaloBBase, 0)
	o := r.obs.Begin(obs.SpanHaloOverlap)
	mhd.RHSDivV(pl, r.fullReg)
	o.End()
	ovA := r.haloStart([]*field.Scalar{pl.DivV}, tagHaloAuxBase, len(b))
	o = r.obs.Begin(obs.SpanHaloOverlap)
	in := r.obs.Begin(obs.SpanRHSInterior)
	mhd.RHSCurlJ(pl, r.interior)
	in.End()
	o.End()
	r.haloFinish(&ovB)
	rim := r.obs.Begin(obs.SpanRHSRim)
	mhd.RHSCurlJ(pl, r.rim)
	rim.End()
	r.haloFinish(&ovA)
	mhd.RHSStage(pl, r.Prm, st)
}

// Advance performs one RK4 step through the serial solver's stage loop
// (mhd.AdvanceRK4), identical to it in arithmetic. The leading Tick is
// the fault-injection checkpoint: a scripted FaultPlan.Kill for this
// world rank fires here, before the step's first exchange.
func (r *Rank) Advance(dt float64) {
	r.World.Tick(r.StepN)
	r.obs.SetStep(r.StepN)
	defer r.obs.Begin(obs.SpanStep).End()
	r.obs.SetGauge("dt", dt)
	r.lastDT = dt
	mhd.AdvanceRK4(dt, []*mhd.Panel{r.PL}, func(_ *mhd.Panel, st mhd.Stage) {
		r.rhs(st)
	}, r.applyConstraints)
	r.Time += dt
	r.StepN++
	if r.tele != nil {
		r.snap.Step = int64(r.StepN)
		r.snap.DT = dt
		r.snap.Spans = int64(r.obs.Len())
		r.snap.SpanDropped = r.obs.Dropped()
		r.tele.Publish(r.snap)
	}
}

// EstimateDT returns the globally reduced stable time step.
func (r *Rank) EstimateDT(safety float64) float64 {
	mhd.ComputeVTB(r.PL, &r.PL.U)
	v := []float64{mhd.PanelMaxSpeed(r.PL, r.Prm)}
	c := r.obs.Begin(obs.SpanCollective)
	r.World.Allreduce(v, mpi.OpMax)
	c.End()
	return mhd.StableDT(r.Prm, mhd.MinGridSpacing(r.Layout.Spec), v[0], safety)
}

// Diagnose returns globally reduced diagnostics (identical on every
// rank).
func (r *Rank) Diagnose() mhd.Diagnostics {
	defer r.obs.Begin(obs.SpanDiagnose).End()
	mhd.ComputeVTB(r.PL, &r.PL.U)
	d := mhd.PanelDiagnostics(r.PL, r.Prm)
	sums := []float64{d.Mass, d.KineticE, d.MagneticE, d.InternalE}
	c := r.obs.Begin(obs.SpanCollective)
	r.World.Allreduce(sums, mpi.OpSum)
	c.End()
	maxs := []float64{d.MaxV, d.MaxB}
	c = r.obs.Begin(obs.SpanCollective)
	r.World.Allreduce(maxs, mpi.OpMax)
	c.End()
	if r.obs != nil || r.tele != nil {
		// Per-step physics gauges, computed from already-reduced values
		// and rank-local fields only — tracing must add no collectives,
		// so it can never change the run's communication pattern.
		if dx := mhd.MinGridSpacing(r.Layout.Spec); dx > 0 && r.lastDT > 0 {
			cfl := r.lastDT * maxs[0] / dx
			r.obs.SetGauge("cfl", cfl)
			r.snap.CFL = cfl
		}
		divb := mhd.DivBMax(r.PL)
		r.obs.SetGauge("divb", divb)
		if r.tele != nil {
			r.snap.DivB = divb
			r.snap.Mass, r.snap.KineticE, r.snap.MagneticE, r.snap.InternalE = sums[0], sums[1], sums[2], sums[3]
			r.snap.MaxV, r.snap.MaxB = maxs[0], maxs[1]
			r.snap.Step = int64(r.StepN)
			r.tele.Publish(r.snap)
		}
	}
	return mhd.Diagnostics{
		Time: r.Time, Step: r.StepN,
		Mass: sums[0], KineticE: sums[1], MagneticE: sums[2], InternalE: sums[3],
		MaxV: maxs[0], MaxB: maxs[1],
	}
}
