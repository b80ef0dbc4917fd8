//go:build !amd64 || purego

package simd

// AVX2 selects the 4-lane AVX2 bodies of the numeric kernels: never on
// other architectures or in a purego build, which run the Go loops.
// Tests must not set it.
var AVX2 = false
