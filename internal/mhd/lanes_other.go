//go:build !amd64 || purego

package mhd

// Without lane bodies simd.AVX2 is always false and these are never
// called.

func derivRLanes(*derivRArgs) { panic("mhd: no lane bodies in this build") }
func derivTLanes(*derivTArgs) { panic("mhd: no lane bodies in this build") }
func derivPLanes(*derivPArgs) { panic("mhd: no lane bodies in this build") }
func updateLanes(*updateArgs) { panic("mhd: no lane bodies in this build") }
func quotLanes(*quotArgs)     { panic("mhd: no lane bodies in this build") }
