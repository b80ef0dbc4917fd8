//go:build !amd64 || purego

package sphops

// Without lane bodies simd.AVX2 is always false and these are never
// called.

func diffLanes(*diffArgs)               { panic("sphops: no lane bodies in this build") }
func diff2Lanes(*diff2Args)             { panic("sphops: no lane bodies in this build") }
func divCombineLanes(*divCombineArgs)   { panic("sphops: no lane bodies in this build") }
func curlCombineLanes(*curlCombineArgs) { panic("sphops: no lane bodies in this build") }
