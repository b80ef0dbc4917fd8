// Package par provides the intra-rank worker pool that plays the role
// of the vector pipelines inside one Earth Simulator AP: each rank (a
// goroutine in our runtime) owns a small pool of workers, sized by its
// share of GOMAXPROCS, and routes the hot stencil/overset loops through
// a tiled parallel-for. The pool is created once per rank and reused
// across every step, so the steady state spawns no goroutines and
// performs no allocations on the kernel path.
//
// Determinism contract: For splits the index range [0,n) into tiles
// whose bounds are a pure function of (n, tiles) alone, and every tile
// writes a disjoint slice of the output, so parallel execution is
// bit-identical to serial execution by construction. Reductions
// (ReduceMax) compute one partial per tile and combine the partials in
// ascending tile order on the caller, fixing the reduction order
// regardless of worker scheduling.
package par

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Pool is a reusable fixed-size worker pool. A nil *Pool is valid and
// means "serial": every method degrades to an inline loop, so kernels
// can be written once against the pool API and run unchanged without
// one.
type Pool struct {
	workers int
	jobs    chan struct{} // one token enlists one worker into the current For
	closed  atomic.Bool
	wg      sync.WaitGroup // tracks worker goroutines for Close
	gauge   *obs.PoolGauge

	// The one For in progress, kept in the pool and reused by every
	// call so that For allocates nothing: a pool has one caller at a
	// time and For is never re-entered on its own pool, so no two calls
	// share it. fn, n and tiles are written before the tokens are sent
	// and read by the lanes after they are received; next hands out the
	// tiles and lanes counts the enlisted workers out.
	fn       func(lo, hi int)
	n, tiles int
	next     atomic.Int64
	lanes    sync.WaitGroup
}

// SetGauge attaches a utilization gauge: every subsequent parallel
// region adds its wall time and per-lane busy time to it. Nil detaches;
// a nil pool ignores the call (serial loops have no pool utilization to
// speak of). Call before handing the pool to its rank — the field is
// read concurrently by For.
func (p *Pool) SetGauge(g *obs.PoolGauge) {
	if p == nil {
		return
	}
	p.gauge = g
	if g != nil {
		for {
			cur := g.Workers.Load()
			if int64(p.workers) <= cur || g.Workers.CompareAndSwap(cur, int64(p.workers)) {
				break
			}
		}
	}
}

// NewPool starts a pool with the given number of workers. workers <= 1
// returns nil (the serial pool), so callers can size pools with integer
// division without special-casing the degenerate share.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	p := &Pool{workers: workers, jobs: make(chan struct{}, workers)}
	// The caller participates in For, so only workers-1 goroutines are
	// needed to reach the requested width.
	p.wg.Add(workers - 1)
	for i := 0; i < workers-1; i++ {
		go func() {
			defer p.wg.Done()
			for range p.jobs {
				p.run()
				p.lanes.Done()
			}
		}()
	}
	return p
}

// Close stops the worker goroutines. The pool must not be used after
// Close; calling Close on a nil or already-closed pool is a no-op.
func (p *Pool) Close() {
	if p == nil || !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}

// tileBounds returns the half-open bounds of tile t when [0,n) is split
// into `tiles` near-equal tiles: the first n%tiles tiles get one extra
// element. Pure function of (n, tiles, t) — this is what makes the
// decomposition deterministic.
func tileBounds(n, tiles, t int) (lo, hi int) {
	q, r := n/tiles, n%tiles
	lo = t*q + min(t, r)
	hi = lo + q
	if t < r {
		hi++
	}
	return lo, hi
}

// numTiles picks the tile count for a range of n elements: enough tiles
// to feed every worker with a little slack for load imbalance, but
// never more tiles than elements.
func (p *Pool) numTiles(n int) int {
	t := 4 * p.workers
	if t > n {
		t = n
	}
	return t
}

// For executes fn over a partition of [0,n): each call fn(lo,hi) owns
// the half-open index range [lo,hi), and distinct calls receive
// disjoint ranges covering [0,n) exactly. On a nil pool (or n too small
// to split) this is fn(0,n) inline. One goroutine calls For on a pool
// at a time (the rank that owns it), and fn must not call For on the
// same pool (the hot loops it serves are leaves): the call's state lives
// in the pool, so For allocates nothing.
func (p *Pool) For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p == nil || n < 2 {
		fn(0, n)
		return
	}
	tiles := p.numTiles(n) // >= 2: n >= 2 and a pool has >= 2 workers
	g := p.gauge
	var t0 time.Time
	if g != nil {
		t0 = time.Now()
	}
	p.fn, p.n, p.tiles = fn, n, tiles
	p.next.Store(0)
	// Enlist up to workers-1 pool workers; the caller is the last lane.
	// Send never blocks meaningfully: jobs has capacity >= workers-1 and
	// each enlisted worker returns promptly once the tile counter drains.
	for i := 0; i < p.workers-1; i++ {
		p.lanes.Add(1)
		select {
		case p.jobs <- struct{}{}:
		default:
			// All workers busy (should not happen for leaf loops, but
			// degrade gracefully rather than deadlock).
			p.lanes.Done()
		}
	}
	p.run()
	p.lanes.Wait()
	p.fn = nil
	if g != nil {
		g.WallNS.Add(time.Since(t0).Nanoseconds())
		g.Calls.Add(1)
	}
}

// run is one lane of the current For: it takes tiles until none is
// left.
func (p *Pool) run() {
	g := p.gauge
	var l0 time.Time
	if g != nil {
		l0 = time.Now()
	}
	for {
		t := int(p.next.Add(1)) - 1
		if t >= p.tiles {
			break
		}
		lo, hi := tileBounds(p.n, p.tiles, t)
		p.fn(lo, hi)
	}
	if g != nil {
		g.BusyNS.Add(time.Since(l0).Nanoseconds())
	}
}

// ReduceMax returns the maximum over tiles of fn(lo,hi), where fn
// computes a per-tile partial maximum. The partials are combined in
// ascending tile order, so the result is bit-identical to the serial
// left-to-right reduction for max (max is associative and commutative
// over floats apart from NaN ordering; fixing the combine order makes
// the result reproducible even so). n must be > 0.
func (p *Pool) ReduceMax(n int, fn func(lo, hi int) float64) float64 {
	if p == nil || n < 2 {
		return fn(0, n)
	}
	tiles := p.numTiles(n)
	partials := make([]float64, tiles)
	p.For(tiles, func(tlo, thi int) {
		for t := tlo; t < thi; t++ {
			lo, hi := tileBounds(n, tiles, t)
			partials[t] = fn(lo, hi)
		}
	})
	m := partials[0]
	for _, v := range partials[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
