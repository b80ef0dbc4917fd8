package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

func checkpointSum(t *testing.T, cfg Config, steps int, dt float64) [32]byte {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for n := 0; n < steps; n++ {
		sim.Solver.Advance(dt)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestCheckpointDeterminism is the determinism regression gate: two runs
// of the same campaign configuration produce byte-identical snapshot
// checksums, and a run with pooled (3-worker) kernels matches the serial
// run exactly — parallel kernels are bit-identical by construction.
func TestCheckpointDeterminism(t *testing.T) {
	cfg := Config{Nr: 9, Nt: 13}
	const steps = 5
	const dt = 2e-3

	a := checkpointSum(t, cfg, steps, dt)
	b := checkpointSum(t, cfg, steps, dt)
	if a != b {
		t.Fatalf("repeat run diverged: %x vs %x", a, b)
	}

	pooled := cfg
	pooled.Workers = 3
	c := checkpointSum(t, pooled, steps, dt)
	if a != c {
		t.Fatalf("pooled kernels diverged from serial: %x vs %x", a, c)
	}
}

// TestAbsoluteGolden pins the serial 9x13 checkpoint after 10 steps at
// dt = 2e-3 to a fixed hash. Every other golden compares one run against
// another in the same process, so an arithmetic change shared by the
// serial and decomposed paths (the Runge-Kutta combine, a stencil) passes
// them all; this one does not. The hash is the amd64 result: arm64 fuses
// x*y + z into FMAs and rounds differently.
func TestAbsoluteGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hash is the amd64 result; %s fuses multiply-adds", runtime.GOARCH)
	}
	const want = "c971ea5ebb92af381c5aec794e0e792d4b8f767675a6f9f1c26bb75c64e14fea"
	sum := checkpointSum(t, Config{Nr: 9, Nt: 13}, 10, 2e-3)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("checkpoint sha256 %s, want %s", got, want)
	}
}

// TestGoldenParallelWorlds pins serial-vs-decomposed bit-identity after
// 10 steps at world sizes 2 and 8 (the world-size-1 case is the pooled
// serial run of TestCheckpointDeterminism): the checkpoint gathered from
// the decomposed run hashes identically to the serial solver's.
func TestGoldenParallelWorlds(t *testing.T) {
	cfg := Config{Nr: 9, Nt: 13}
	const steps = 10
	const dt = 2e-3

	want := checkpointSum(t, cfg, steps, dt)
	for _, nProcs := range []int{2, 8} {
		var buf bytes.Buffer
		if _, err := RunParallelWithCheckpoint(cfg, nProcs, steps, dt, &buf); err != nil {
			t.Fatalf("world %d: %v", nProcs, err)
		}
		got := sha256.Sum256(buf.Bytes())
		if got != want {
			// Restore for a more useful diff before failing.
			sim, err := Restore(&buf)
			if err != nil {
				t.Fatalf("world %d: checkpoint differs and does not restore: %v", nProcs, err)
			}
			d := sim.Diagnostics()
			t.Fatalf("world %d: checkpoint hash %x, serial %x (gathered diag %+v)",
				nProcs, got, want, d)
		}
	}
}

// TestGoldenParallelWorldsPooled repeats the world-size-2 golden
// comparison with 2-worker pools inside each rank: intra-rank and
// inter-rank parallelism compose without changing a single bit.
func TestGoldenParallelWorldsPooled(t *testing.T) {
	cfg := Config{Nr: 9, Nt: 13}
	const steps = 10
	const dt = 2e-3

	want := checkpointSum(t, cfg, steps, dt)
	pooled := cfg
	pooled.Workers = 2
	var buf bytes.Buffer
	if _, err := RunParallelWithCheckpoint(pooled, 2, steps, dt, &buf); err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(buf.Bytes()); got != want {
		t.Fatalf("pooled world 2: checkpoint hash %x, serial %x", got, want)
	}
}
