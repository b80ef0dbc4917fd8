// Package relay is the known-bad smoke fixture for tag-space's
// cross-subsystem and negative-tag checks: it reuses decomp's tag 0
// from a different package, and propagates a negative tag through a
// helper parameter.
package relay

import "badmod/mpi"

// Push sends on a tag decomp also uses (collision) and on a negative
// tag (reserved space), both through the send helper.
func Push(c *mpi.Comm) {
	send(c, 0)
	send(c, -2)
}

func send(c *mpi.Comm, tag int) {
	c.Send(1, tag, nil)
}

// The seeds are live: reach roots initialized package vars.
var _ = []any{Push}
