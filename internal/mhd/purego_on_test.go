//go:build purego

package mhd

// puregoBuild skips the timing reports: a purego build times only Go
// loops that a default amd64 build hands to the lane bodies, so the
// ratios describe no configuration that runs.
const puregoBuild = true
