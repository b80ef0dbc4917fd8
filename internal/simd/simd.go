// Package simd reports which vector instruction sets the kernels' lane
// bodies may use on this machine. It is the one place the numeric
// packages ask; each keeps its own dispatch flag set from it.
package simd
