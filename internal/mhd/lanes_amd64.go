//go:build amd64 && !purego

package mhd

// The AVX2 lane bodies (lanes_amd64.s); see lanes.go.

//go:noescape
func derivRLanes(a *derivRArgs)

//go:noescape
func derivTLanes(a *derivTArgs)

//go:noescape
func derivPLanes(a *derivPArgs)

//go:noescape
func updateLanes(a *updateArgs)

//go:noescape
func quotLanes(a *quotArgs)
