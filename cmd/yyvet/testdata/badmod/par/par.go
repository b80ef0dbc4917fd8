// Package par is the known-bad smoke fixture for the pool-disjoint
// analyzer: a Pool.For mimic plus the two closure shapes that break the
// tile-disjointness contract.
package par

// Pool mimics the worker pool.
type Pool struct{}

// For mimics the tiled parallel-for.
func (p *Pool) For(n int, fn func(lo, hi int)) { fn(0, n) }

// SumBad accumulates into a captured scalar from inside the tile
// closure.
func SumBad(p *Pool, xs []float64) float64 {
	var sum float64
	p.For(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // pool-disjoint: captured-scalar accumulation
		}
	})
	return sum
}

// FillBad writes a fixed element of a captured slice from every tile.
func FillBad(p *Pool, out []float64) {
	p.For(len(out), func(lo, hi int) {
		out[0] = 1 // pool-disjoint: not indexed by the tile range
	})
}

// FillGood writes only tile-owned elements.
func FillGood(p *Pool, out []float64) {
	p.For(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = 1
		}
	})
}

// Options is the knob seed: main sets Workers, nothing sets Grain.
// The pool seeds are live through the package var below.
type Options struct {
	Workers int
	Grain   int // knob: set by no program
}

// Stats is the read-rule seed: cmd/tool sets Tiles, nothing reads it.
type Stats struct {
	Tiles int // knob: read by no program
}

var _ = []any{SumBad, FillBad, FillGood}
