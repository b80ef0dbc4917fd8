//go:build race

package mhd

// raceEnabled skips the timing report: race instrumentation slows the
// Go loops and leaves the assembly bodies alone, so the ratio means
// nothing there.
const raceEnabled = true
