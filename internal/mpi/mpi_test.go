package mpi

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestRunRejectsZeroRanks(t *testing.T) {
	if err := Run(0, func(c *Comm) {}); err == nil {
		t.Error("expected error")
	}
}

func TestRankAndSize(t *testing.T) {
	var seen [5]int32
	err := Run(5, func(c *Comm) {
		if c.Size() != 5 {
			t.Errorf("size = %d", c.Size())
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range seen {
		if n != 1 {
			t.Errorf("rank %d ran %d times", r, n)
		}
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
			buf := make([]float64, 3)
			n := c.Recv(1, 8, buf)
			if n != 3 || buf[0] != 2 || buf[2] != 6 {
				t.Errorf("echo mismatch: %v", buf[:n])
			}
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
			for i := range buf {
				buf[i] *= 2
			}
			c.Send(0, 8, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendCopiesPayload: mutating the sender's slice after Send must not
// affect the delivered message.
func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			data := []float64{42}
			c.Send(1, 0, data)
			data[0] = -1
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 0, buf)
			if buf[0] != 42 {
				t.Errorf("payload corrupted: %v", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFIFOPerEnvelope: messages with the same (src, tag) arrive in order.
func TestFIFOPerEnvelope(t *testing.T) {
	const n = 50
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				c.Recv(0, 3, buf)
				if buf[0] != float64(i) {
					t.Errorf("out of order: got %v want %d", buf[0], i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagSelectivity: a receive for tag B is satisfied even when a tag-A
// message arrived first.
func TestTagSelectivity(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 2, buf)
			if buf[0] != 2 {
				t.Errorf("tag 2 got %v", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag 1 got %v", buf[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvWait(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := make([]float64, 4)
			req := c.Irecv(1, 9, buf)
			c.Send(1, 5, []float64{0})
			if n := req.Wait(); n != 2 || buf[0] != 10 {
				t.Errorf("irecv got %d elems %v", n, buf[:n])
			}
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 5, buf)
			c.Send(0, 9, []float64{10, 20})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentIrecvStress is the race-detector regression for the
// mailbox and condition-variable paths: every rank keeps several
// receives outstanding while sending, splitting and reducing, so
// mailbox.take, put's broadcast, Split's rendezvous and the barrier
// generation counter all run concurrently across rank goroutines. Run
// with -race (scripts/check.sh does).
func TestConcurrentIrecvStress(t *testing.T) {
	const ranks = 16
	err := Run(ranks, func(c *Comm) {
		for iter := 0; iter < 20; iter++ {
			next := (c.Rank() + 1) % ranks
			prev := (c.Rank() + ranks - 1) % ranks
			// Two receives in flight at once from the same peer plus
			// one from the other side.
			bufA := make([]float64, 8)
			bufB := make([]float64, 8)
			bufC := make([]float64, 8)
			reqA := c.Irecv(prev, iter*3+0, bufA)
			reqB := c.Irecv(prev, iter*3+1, bufB)
			reqC := c.Irecv(next, iter*3+2, bufC)
			payload := make([]float64, 8)
			for i := range payload {
				payload[i] = float64(c.Rank()*100 + iter)
			}
			c.Send(next, iter*3+0, payload)
			c.Send(next, iter*3+1, payload)
			c.Send(prev, iter*3+2, payload)
			for _, r := range []*Request{reqA, reqB, reqC} {
				r.Wait()
			}
			if bufA[0] != float64(prev*100+iter) || bufB[0] != bufA[0] {
				t.Errorf("iter %d: prev payload %v %v", iter, bufA[0], bufB[0])
			}
			if bufC[0] != float64(next*100+iter) {
				t.Errorf("iter %d: next payload %v", iter, bufC[0])
			}
			// Interleave the collective paths.
			sum := []float64{1}
			c.Allreduce(sum, OpSum)
			if sum[0] != ranks {
				t.Errorf("iter %d: allreduce %v", iter, sum[0])
			}
			if iter%5 == 0 {
				sub := c.Split(c.Rank()%2, c.Rank())
				v := []float64{1}
				sub.Allreduce(v, OpSum)
				if v[0] != ranks/2 {
					t.Errorf("iter %d: split allreduce %v", iter, v[0])
				}
			}
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	var phase int32
	err := Run(8, func(c *Comm) {
		atomic.AddInt32(&phase, 1)
		c.Barrier()
		if atomic.LoadInt32(&phase) != 8 {
			t.Errorf("barrier released early at %d", atomic.LoadInt32(&phase))
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	err := Run(6, func(c *Comm) {
		vals := []float64{float64(c.Rank()), 1, -float64(c.Rank())}
		c.Allreduce(vals, OpSum)
		if vals[0] != 15 || vals[1] != 6 || vals[2] != -15 {
			t.Errorf("sum = %v", vals)
		}
		mx := []float64{float64(c.Rank())}
		c.Allreduce(mx, OpMax)
		if mx[0] != 5 {
			t.Errorf("max = %v", mx)
		}
		mn := []float64{float64(c.Rank())}
		c.Allreduce(mn, OpMin)
		if mn[0] != 0 {
			t.Errorf("min = %v", mn)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(4, func(c *Comm) {
		v := []float64{0}
		if c.Rank() == 2 {
			v[0] = 3.5
		}
		c.Bcast(2, v)
		if v[0] != 3.5 {
			t.Errorf("bcast got %v", v[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitPanels mirrors the paper's use: even/odd split into two
// panels, then communication within each panel.
func TestSplitPanels(t *testing.T) {
	err := Run(8, func(c *Comm) {
		color := c.Rank() % 2
		panel := c.Split(color, c.Rank())
		if panel.Size() != 4 {
			t.Errorf("panel size = %d", panel.Size())
		}
		// Ranks are ordered by key = world rank.
		want := c.Rank() / 2
		if panel.Rank() != want {
			t.Errorf("panel rank = %d, want %d", panel.Rank(), want)
		}
		// Reduce within the panel only.
		v := []float64{float64(c.Rank())}
		panel.Allreduce(v, OpSum)
		wantSum := 0.0
		for r := color; r < 8; r += 2 {
			wantSum += float64(r)
		}
		if v[0] != wantSum {
			t.Errorf("panel sum = %v, want %v", v[0], wantSum)
		}
		// World communication still works after the split.
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdering(t *testing.T) {
	err := Run(4, func(c *Comm) {
		// Reverse ordering by key.
		sub := c.Split(0, -c.Rank())
		if sub.Rank() != 3-c.Rank() {
			t.Errorf("rank %d got sub rank %d", c.Rank(), sub.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCreate(t *testing.T) {
	err := Run(6, func(c *Comm) {
		ct, err := c.CartCreate2D(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Coords[0] != c.Rank()/3 || ct.Coords[1] != c.Rank()%3 {
			t.Errorf("coords %v for rank %d", ct.Coords, c.Rank())
		}
		if _, err := c.CartCreate2D(4, 2); err == nil {
			t.Error("bad dims accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartShiftAndNeighbours(t *testing.T) {
	err := Run(6, func(c *Comm) {
		ct, _ := c.CartCreate2D(2, 3)
		n, s, w, e := ct.Neighbours()
		c0, c1 := ct.Coords[0], ct.Coords[1]
		wantN, wantS, wantW, wantE := -1, -1, -1, -1
		if c0 > 0 {
			wantN = (c0-1)*3 + c1
		}
		if c0 < 1 {
			wantS = (c0+1)*3 + c1
		}
		if c1 > 0 {
			wantW = c0*3 + c1 - 1
		}
		if c1 < 2 {
			wantE = c0*3 + c1 + 1
		}
		if n != wantN || s != wantS || w != wantW || e != wantE {
			t.Errorf("rank %d neighbours (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				c.Rank(), n, s, w, e, wantN, wantS, wantW, wantE)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCartHaloExchangePattern: every rank exchanges a value with each
// existing neighbour, as the solver's halo exchange does.
func TestCartHaloExchangePattern(t *testing.T) {
	err := Run(12, func(c *Comm) {
		ct, _ := c.CartCreate2D(3, 4)
		n, s, w, e := ct.Neighbours()
		neigh := []int{n, s, w, e}
		for _, dst := range neigh {
			if dst >= 0 {
				ct.Send(dst, 1, []float64{float64(ct.Rank())})
			}
		}
		for _, src := range neigh {
			if src >= 0 {
				buf := make([]float64, 1)
				ct.Recv(src, 1, buf)
				if buf[0] != float64(src) {
					t.Errorf("halo from %d carried %v", src, buf[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	err := Run(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic("deliberate")
		}
	})
	if err == nil {
		t.Error("panic not reported")
	}
}

// TestDeterministicReduction: sum order at the root is rank order, so
// repeated runs give bitwise-identical results.
func TestDeterministicReduction(t *testing.T) {
	run := func() float64 {
		var out float64
		err := Run(7, func(c *Comm) {
			v := []float64{math.Sqrt(float64(c.Rank()) + 0.1)}
			c.Allreduce(v, OpSum)
			if c.Rank() == 0 {
				out = v[0]
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := run()
	for i := 0; i < 5; i++ {
		if b := run(); b != a {
			t.Fatalf("nondeterministic reduction: %v vs %v", a, b)
		}
	}
}

// TestManyRanksStress: a 64-rank all-to-neighbour workload completes.
func TestManyRanksStress(t *testing.T) {
	err := Run(64, func(c *Comm) {
		ct, err := c.CartCreate2D(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 10; iter++ {
			n, s, w, e := ct.Neighbours()
			for _, dst := range []int{n, s, w, e} {
				if dst >= 0 {
					ct.Send(dst, iter, []float64{1})
				}
			}
			sum := 0.0
			for _, src := range []int{n, s, w, e} {
				if src >= 0 {
					buf := make([]float64, 1)
					ct.Recv(src, iter, buf)
					sum += buf[0]
				}
			}
			v := []float64{sum}
			ct.Allreduce(v, OpSum)
			// Interior ranks have 4 neighbours; 2*edges = total degree.
			if v[0] != 2*(2*8*7) {
				t.Errorf("iter %d: total degree %v", iter, v[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomTrafficQuick: random message schedules (sizes, tags, pairs)
// always deliver matching payloads, via a deterministic pseudo-random
// pattern derived from the seed.
func TestRandomTrafficQuick(t *testing.T) {
	f := func(seed uint64) bool {
		const ranks = 6
		ok := true
		err := Run(ranks, func(c *Comm) {
			rng := seed ^ uint64(c.Rank())*0x9e3779b97f4a7c15
			next := func(n uint64) uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return (rng >> 33) % n
			}
			// Each rank sends 8 messages to deterministic destinations.
			type sent struct {
				dst, tag, n int
			}
			var mine []sent
			for i := 0; i < 8; i++ {
				// Peers only: the runtime rejects self-sends up front.
				dst := (c.Rank() + 1 + int(next(ranks-1))) % ranks
				tag := int(next(4))
				n := 1 + int(next(64))
				payload := make([]float64, n)
				for j := range payload {
					payload[j] = float64(c.Rank()*1000 + i)
				}
				c.Send(dst, 100+tag*10+c.Rank(), payload)
				mine = append(mine, sent{dst, tag, n})
			}
			// Globally replay the same pseudo-random schedule to know what
			// to receive: every rank recomputes every sender's schedule.
			for src := 0; src < ranks; src++ {
				r2 := seed ^ uint64(src)*0x9e3779b97f4a7c15
				n2 := func(n uint64) uint64 {
					r2 = r2*6364136223846793005 + 1442695040888963407
					return (r2 >> 33) % n
				}
				for i := 0; i < 8; i++ {
					dst := (src + 1 + int(n2(ranks-1))) % ranks
					tag := int(n2(4))
					n := 1 + int(n2(64))
					if dst != c.Rank() {
						continue
					}
					buf := make([]float64, n)
					got := c.Recv(src, 100+tag*10+src, buf)
					if got != n || buf[0] != float64(src*1000+i) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	for _, seed := range []uint64{1, 7, 42, 12345, 999999} {
		if !f(seed) {
			t.Errorf("seed %d failed", seed)
		}
	}
}
