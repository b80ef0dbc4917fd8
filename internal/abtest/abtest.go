// Package abtest compares the speed of two implementations of one job
// inside a single process. Cross-process timings on a shared host
// spread by tens of percent; alternating the two sides call by call
// exposes both to the same machine state, so their per-round ratio
// resolves differences of a few percent. Its users are the Test…Ratio
// tests that keep a replaced implementation as their oracle.
package abtest

import (
	"sort"
	"time"
)

// Ratio summarizes the per-round ratios time(a)/time(b) of an
// Interleave: above 1 means b is the faster side.
//
//yyvet:ignore reach helper of the Test…Ratio tests, which no program runs
type Ratio struct {
	//yyvet:ignore knob read by the Test…Ratio tests that print it
	Median, Q1, Q3 float64
}

// Interleave times a and b once each per round for rounds rounds, after
// one untimed call of each, and returns the quartiles of the per-round
// ratio time(a)/time(b), interpolated between order statistics. Even
// rounds run a first and odd rounds b first, so a slow drift of the
// machine weighs on both sides alike.
//
//yyvet:ignore reach helper of the Test…Ratio tests, which no program runs
func Interleave(a, b func(), rounds int) Ratio {
	timed := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0))
	}
	a()
	b()
	ratios := make([]float64, rounds)
	for r := range ratios {
		var ta, tb float64
		if r%2 == 0 {
			ta, tb = timed(a), timed(b)
		} else {
			tb, ta = timed(b), timed(a)
		}
		ratios[r] = ta / tb
	}
	sort.Float64s(ratios)
	quantile := func(q float64) float64 {
		pos := q * float64(len(ratios)-1)
		i := int(pos)
		if i+1 >= len(ratios) {
			return ratios[len(ratios)-1]
		}
		return ratios[i] + (pos-float64(i))*(ratios[i+1]-ratios[i])
	}
	return Ratio{Median: quantile(0.5), Q1: quantile(0.25), Q3: quantile(0.75)}
}
