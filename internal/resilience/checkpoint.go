package resilience

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/snapshot"
)

const (
	ckptPrefix     = "ckpt-"
	ckptSuffix     = ".yyck"
	postmortemName = "postmortem.txt"
)

// ckptName is the on-disk name of the checkpoint committed at step.
func ckptName(step int) string {
	return fmt.Sprintf("%s%09d%s", ckptPrefix, step, ckptSuffix)
}

// ckptStep parses the step out of a checkpoint file name.
func ckptStep(name string) (int, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	step, err := strconv.Atoi(digits)
	if err != nil || step < 0 {
		return 0, false
	}
	return step, true
}

// newestValid restores the newest of a sink's checkpoints (steps
// ascending, named by label, read by load) that reads back valid.
// Corrupt, truncated or missing ones are skipped (collected in skipped)
// and the scan falls back to the next-newest — a half-written or
// bit-rotted newest checkpoint must not strand a resumable campaign. A
// checkpoint that reads back fine but holds a different grid resolution
// is a hard error, not a skip: the campaign was pointed at the wrong
// place (a directory, a run id) or reconfigured, and silently resuming
// an older same-resolution checkpoint would fork the trajectory.
// Returns (nil, skipped, nil) when no valid checkpoint exists.
func newestValid(steps []int, label func(step int) string, load func(step int) (*snapshot.Interior, error), spec grid.Spec, place string) (*snapshot.Interior, []string, error) {
	var skipped []string
	for i := len(steps) - 1; i >= 0; i-- {
		name := label(steps[i])
		in, err := load(steps[i])
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if in.Spec != spec {
			return nil, skipped, fmt.Errorf("resilience: checkpoint %s holds grid %dx%dx%d, campaign wants %dx%dx%d — wrong %s or reconfigured resolution",
				name, in.Spec.Nr, in.Spec.Nt, in.Spec.Np, spec.Nr, spec.Nt, spec.Np, place)
		}
		return in, skipped, nil
	}
	return nil, skipped, nil
}

// pruneOldest retires, through remove, all but the newest keep of a
// sink's checkpoint steps (ascending).
func pruneOldest(steps []int, keep int, remove func(step int) error) error {
	for ; len(steps) > keep; steps = steps[1:] {
		if err := remove(steps[0]); err != nil {
			return err
		}
	}
	return nil
}

// postmortemText renders a human-readable account of an exhausted
// segment — the sink persists it (atomically beside the checkpoints,
// or as a ledger-pinned store blob). The account ends with the
// campaign's fault/heartbeat event timeline — what dropped, who was
// suspected or confirmed dead, and when — so a failed campaign is
// diagnosable from this one artifact.
func postmortemText(segStart, attempts int, cause error, res *Result, events *mpi.EventLog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign post-mortem\n")
	fmt.Fprintf(&b, "failed segment start step: %d\n", segStart)
	fmt.Fprintf(&b, "attempts: %d\n", attempts)
	fmt.Fprintf(&b, "last error: %v\n", cause)
	fmt.Fprintf(&b, "committed segments: %d\n", len(res.Diags))
	fmt.Fprintf(&b, "committed dts: %v\n", res.DTs)
	if len(res.Recoveries) > 0 {
		fmt.Fprintf(&b, "recovery decisions (%d):\n", len(res.Recoveries))
		for _, d := range res.Recoveries {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	} else {
		fmt.Fprintf(&b, "recovery decisions: none\n")
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(&b, "last committed diagnostics: %+v\n", res.Diags[len(res.Diags)-1])
	}
	if n := events.Len(); n > 0 {
		fmt.Fprintf(&b, "event timeline (%d events):\n", n)
		for _, e := range events.Events() {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	} else {
		fmt.Fprintf(&b, "event timeline: empty\n")
	}
	return b.String()
}
