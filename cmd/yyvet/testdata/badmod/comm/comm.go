// Package comm is the known-bad smoke fixture for the cond-wait-loop
// analyzer, beside a dropped-receive mimic that no analyzer flags.
package comm

import "sync"

// Comm mimics the mpi surface.
type Comm struct{}

// Request mimics mpi.Request.
type Request struct{ done chan int }

// Wait completes the receive.
func (r *Request) Wait() int { return <-r.done }

// Irecv mimics the non-blocking receive.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	return &Request{done: make(chan int, 1)}
}

func droppedRequest(c *Comm, halo []float64) float64 {
	c.Irecv(0, 1, halo) // unflagged: in decomp the goldens catch a dropped receive
	return halo[0]
}

type box struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready bool
}

func (b *box) bareWait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.ready {
		b.cond.Wait() // cond-wait-loop should fire here
	}
}

// The seeds are live: reach roots initialized package vars.
var _ = []any{droppedRequest, (*box).bareWait, (*Request).Wait}
