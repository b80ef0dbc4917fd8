//go:build !race

package mhd

const raceEnabled = false
