package main

import (
	"sort"
	"time"
)

// summary is how every repeated measurement is reported: the median
// with its spread and the sample count.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between order statistics of a sorted
// sample (the "inclusive" method: q=0 is the min, q=1 the max).
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func summarize(v []float64) summary {
	s := sorted(v)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N: len(s), Min: s[0], Q1: quantile(s, 0.25), Median: quantile(s, 0.5),
		Q3: quantile(s, 0.75), Max: s[len(s)-1],
	}
}

// percentile is the nearest-rank percentile, the form used for p95:
// with n samples it keeps n-ceil(0.95n) of them beyond the value, so
// the sample count printed beside it says how far it can be trusted.
func percentile(v []float64, p float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	rank := int(p*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// minOf returns the fastest of n timings of fn in nanoseconds. The
// minimum is the right statistic for a deterministic kernel on a shared
// host: every disturbance only ever adds time.
func minOf(n int, fn func()) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		ns := float64(time.Since(t0).Nanoseconds())
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// medianOf returns the median of n timings of fn in nanoseconds, for
// operations (fsync, goroutine launch) whose cost is not a pure
// function of the code.
func medianOf(n int, fn func()) float64 {
	v := make([]float64, n)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(v)
}

// perCall times batch calls of a sub-microsecond fn together, min over
// n batches, and returns nanoseconds per call.
func perCall(n, batch int, fn func()) float64 {
	return minOf(n, func() {
		for i := 0; i < batch; i++ {
			fn()
		}
	}) / float64(batch)
}
