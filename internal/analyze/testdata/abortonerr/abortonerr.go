// Package abortonerr is an abort-on-err fixture: a self-contained
// miniature of the internal/mpi surface (Run/RunWith taking a rank
// function over a *Comm with an Abort method) plus rank functions that
// do and do not terminate after capturing an error into a variable
// shared with the driver.
package abortonerr

import "sync"

// Comm mimics mpi.Comm.
type Comm struct{}

// Rank mimics the rank accessor.
func (c *Comm) Rank() int { return 0 }

// Abort mimics mpi.Comm.Abort.
func (c *Comm) Abort(err error) {}

// Barrier stands in for any collective the wedged peers would block in.
func (c *Comm) Barrier() {}

// Run mimics mpi.Run.
func Run(n int, fn func(*Comm)) error { fn(&Comm{}); return nil }

// RunWith mimics mpi.RunWith.
func RunWith(n int, cfg int, fn func(*Comm)) error { fn(&Comm{}); return nil }

// RunRanks mimics core.RunRanks: the rank function also receives what
// the helper built for it.
func RunRanks(n int, fn func(*Comm, int)) error { fn(&Comm{}, 0); return nil }

func setup() (int, error) { return 0, nil }

// capturesAndKeepsRunning is the bug class: the error is recorded, the
// rank carries on into a collective.
func capturesAndKeepsRunning() error {
	var mu sync.Mutex
	var rankErr error
	Run(4, func(c *Comm) {
		_, err := setup()
		if err != nil {
			mu.Lock()
			rankErr = err // want "error captured into shared variable rankErr"
			mu.Unlock()
		}
		c.Barrier()
	})
	return rankErr
}

// capturesInsideLoop: the capture is followed by nothing before the
// loop re-enters — the rank keeps exchanging with a recorded failure.
func capturesInsideLoop() error {
	var rankErr error
	RunWith(4, 0, func(c *Comm) {
		for i := 0; i < 8; i++ {
			if _, err := setup(); err != nil {
				rankErr = err // want "error captured into shared variable rankErr"
				continue
			}
			c.Barrier()
		}
	})
	return rankErr
}

// capturesUnderRunRanks: the same bug class in a body handed to the
// rank-building helper.
func capturesUnderRunRanks() error {
	var rankErr error
	RunRanks(4, func(c *Comm, r int) {
		if _, err := setup(); err != nil {
			rankErr = err // want "error captured into shared variable rankErr"
		}
		c.Barrier()
	})
	return rankErr
}

// captureThenReturn: the classic guarded early exit is fine.
func captureThenReturn() error {
	var mu sync.Mutex
	var rankErr error
	Run(4, func(c *Comm) {
		if _, err := setup(); err != nil {
			mu.Lock()
			rankErr = err
			mu.Unlock()
			return
		}
		c.Barrier()
	})
	return rankErr
}

// captureThenAbort: recording the error for the driver and aborting the
// world is the preferred pattern.
func captureThenAbort() error {
	var rankErr error
	Run(4, func(c *Comm) {
		if _, err := setup(); err != nil {
			rankErr = err
			c.Abort(err)
		}
		c.Barrier()
	})
	return rankErr
}

// captureInTailPosition: nothing runs after the capture — the implicit
// return ends the rank, no peer is left waiting on further traffic from
// a rank that thinks it is still participating.
func captureInTailPosition() error {
	var rankErr error
	Run(2, func(c *Comm) {
		c.Barrier()
		if _, err := setup(); err != nil {
			rankErr = err
		}
	})
	return rankErr
}

// captureThenBreak: break leaves the loop; treated as terminating the
// faulty path.
func captureThenBreak() error {
	var rankErr error
	Run(2, func(c *Comm) {
		for i := 0; i < 8; i++ {
			if _, err := setup(); err != nil {
				rankErr = err
				break
			}
			c.Barrier()
		}
	})
	return rankErr
}

// localErrOnly: assignments to rank-local error variables are not
// captures and stay exempt.
func localErrOnly() {
	Run(2, func(c *Comm) {
		var err error
		_, err = setup()
		if err != nil {
			return
		}
		c.Barrier()
	})
}

// notARankFn: Run with a different callback shape is not the runtime's
// entry point.
func notARankFn() error {
	var rankErr error
	run := func(fn func(int)) { fn(0) }
	run(func(x int) {
		if _, err := setup(); err != nil {
			rankErr = err
		}
	})
	return rankErr
}

// suppressed: an explicit justification keeps the finding quiet.
func suppressed() error {
	var rankErr error
	Run(2, func(c *Comm) {
		if _, err := setup(); err != nil {
			//yyvet:ignore abort-on-err the follow-up collective is this rank's own failure broadcast
			rankErr = err
		}
		c.Barrier()
	})
	return rankErr
}
