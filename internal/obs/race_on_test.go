//go:build race

package obs

// raceEnabled switches the timing tripwire off: race instrumentation
// slows the atomics on the hot path 5-20x, so an absolute ns bound
// means nothing there.
const raceEnabled = true
