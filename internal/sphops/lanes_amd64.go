//go:build amd64 && !purego

package sphops

// The AVX2 lane bodies (lanes_amd64.s); see lanes.go.

//go:noescape
func diffLanes(a *diffArgs)

//go:noescape
func diff2Lanes(a *diff2Args)

//go:noescape
func divCombineLanes(a *divCombineArgs)

//go:noescape
func curlCombineLanes(a *curlCombineArgs)
