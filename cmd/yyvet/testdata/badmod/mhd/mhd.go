// Package mhd is the known-bad smoke fixture for the det-purity
// analyzer: wall-clock reads and map-order-dependent iteration inside a
// deterministic package.
package mhd

import "time"

// Stamp reads the wall clock from numerics code.
func Stamp() int64 {
	return time.Now().UnixNano() // det-purity: wall clock
}

// Sum folds map values in iteration order.
func Sum(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // det-purity: map order reaches the sum
		s += v
	}
	return s
}

// The seeds are live: reach roots initialized package vars.
var _ = []any{Stamp, Sum}
