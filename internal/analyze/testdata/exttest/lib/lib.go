// Package lib is tested from the external package lib_test.
package lib

// Double returns 2x.
func Double(x int) int { return 2 * x }
