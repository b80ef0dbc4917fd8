//go:build race

package telemetry

// raceEnabled switches the timing tripwire off: race instrumentation
// slows the seqlock atomics 5-20x, so an absolute ns bound
// means nothing there.
const raceEnabled = true
