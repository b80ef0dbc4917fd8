// Package mpi is the known-bad smoke fixture for the buf-lifetime
// analyzer: it mirrors the real runtime's free-list surface (getBuf /
// putBuf) and misuses it in the three diagnosable ways.
package mpi

// Comm mimics the point-to-point surface the tag-space analyzer keys
// on (a Send/Recv method set declared in a package named mpi).
type Comm struct{}

// Send mimics the tagged send.
func (c *Comm) Send(dst, tag int, data []float64) {}

// Recv mimics the tagged receive.
func (c *Comm) Recv(src, tag int, buf []float64) int { return 0 }

type context struct{ pool [][]float64 }

func (ctx *context) getBuf(n int) []float64 { return make([]float64, n) }

func (ctx *context) putBuf(b []float64) { ctx.pool = append(ctx.pool, b) }

func useAfterPut(ctx *context) float64 {
	b := ctx.getBuf(8)
	ctx.putBuf(b)
	return b[0] // buf-lifetime: read after release
}

func doublePut(ctx *context) {
	b := ctx.getBuf(8)
	ctx.putBuf(b)
	ctx.putBuf(b) // buf-lifetime: released twice
}

func leakOnEarlyReturn(ctx *context, short bool) int {
	b := ctx.getBuf(8)
	if short {
		return 0 // buf-lifetime: b leaks on this path
	}
	ctx.putBuf(b)
	return 0
}

func cleanRoundTrip(ctx *context) {
	b := ctx.getBuf(8)
	b[0] = 1
	ctx.putBuf(b)
}

// The seeds are live: reach roots initialized package vars.
var _ = []any{useAfterPut, doublePut, leakOnEarlyReturn, cleanRoundTrip, (*Comm).Recv}
