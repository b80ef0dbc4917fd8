// Package par fixture: tile closures passed to Pool.For must write
// only through tile-derived indices; captured-scalar accumulation and
// fixed-index writes race between tiles.
package par

type Pool struct{}

func (p *Pool) For(n int, fn func(lo, hi int)) { fn(0, n) }

func badAccumulate(p *Pool, xs []float64) float64 {
	var sum float64
	p.For(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want "accumulation into captured sum"
		}
	})
	return sum
}

func badFixedIndex(p *Pool, out []float64) {
	p.For(len(out), func(lo, hi int) {
		out[0] = 1 // want "not indexed by the tile range"
	})
}

func badCount(p *Pool, n int) int {
	var count int
	p.For(n, func(lo, hi int) {
		count++ // want "accumulation into captured count"
	})
	return count
}

func goodTileIndexed(p *Pool, out []float64) {
	p.For(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i)
		}
	})
}

func goodDerivedLocal(p *Pool, out []float64) {
	p.For(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			j := i + 1
			if j < len(out) {
				out[j-1] = 2
			}
		}
	})
}

func goodLocalScalar(p *Pool, out []float64) {
	p.For(len(out), func(lo, hi int) {
		var acc float64
		for i := lo; i < hi; i++ {
			acc += 1
			out[i] = acc
		}
	})
}

// sweep hands its tile methods to the pool as method values, directly
// or bound once to a field, the way a hot path avoids a closure per
// call. The receiver is captured memory.
type sweep struct {
	swept  int
	out    []float64
	fn     func(klo, khi int)
	unused func(klo, khi int)
}

func newSweep(n int) *sweep {
	s := &sweep{out: make([]float64, n)}
	s.fn = s.tile
	s.unused = s.neverPooled
	return s
}

func (s *sweep) run(p *Pool) {
	p.For(len(s.out), s.fn)
	p.For(len(s.out), s.fixed)
	p.For(len(s.out), s.good)
}

// tile is reached through the field s.fn.
func (s *sweep) tile(klo, khi int) {
	s.swept += khi - klo // want "accumulation into captured s.swept"
}

// fixed is passed to For as a method value.
func (s *sweep) fixed(klo, khi int) {
	s.out[0] = 1 // want "not indexed by the tile range"
}

func (s *sweep) good(klo, khi int) {
	var local int
	for i := klo; i < khi; i++ {
		s.out[i] = float64(i)
		local++
	}
	_ = local
}

// neverPooled is bound to a field the pool never runs, so its counter
// is not a tile's.
func (s *sweep) neverPooled(klo, khi int) {
	s.swept += khi - klo
}

// tiles binds a literal to a local before handing it over.
func tiles(p *Pool, out []float64) {
	var n int
	fn := func(lo, hi int) {
		n += hi - lo // want "accumulation into captured n"
	}
	p.For(len(out), fn)
}
