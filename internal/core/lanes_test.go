package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/simd"
)

// TestLanesCheckpoints steps whole solvers 10 times with the lane
// bodies on and off and requires byte-identical checkpoints: serial at
// 9x13, 17x17 and 33x33, and decomposed worlds of 2 and 4 ranks. Under
// the purego tag or on a CPU without AVX2 there is only one path, and
// the goldens pin it instead.
func TestLanesCheckpoints(t *testing.T) {
	if !simd.AVX2 {
		t.Skip("no lane bodies in this build or on this CPU")
	}
	const steps, dt = 10, 2e-3
	type run struct {
		name string
		sum  func() [32]byte
	}
	serial := func(nr, nt int) run {
		cfg := Config{Nr: nr, Nt: nt}
		return run{fmt.Sprintf("serial %dx%d", nr, nt), func() [32]byte { return checkpointSum(t, cfg, steps, dt) }}
	}
	world := func(nr, nt, nProcs int) run {
		cfg := Config{Nr: nr, Nt: nt}
		return run{fmt.Sprintf("world %d at %dx%d", nProcs, nr, nt), func() [32]byte {
			var buf bytes.Buffer
			if _, err := RunParallelWithCheckpoint(cfg, nProcs, steps, dt, &buf); err != nil {
				t.Fatal(err)
			}
			return sha256.Sum256(buf.Bytes())
		}}
	}
	runs := []run{serial(9, 13), serial(17, 17), world(17, 17, 2), world(17, 17, 4)}
	if !testing.Short() {
		runs = append(runs, serial(33, 33))
	}
	for _, r := range runs {
		var off, on [32]byte
		prev := simd.AVX2
		simd.AVX2 = false
		off = r.sum()
		simd.AVX2 = prev
		on = r.sum()
		if off != on {
			t.Errorf("%s: checkpoint sha256 %x with lanes, %x without", r.name, on, off)
		}
	}
}
