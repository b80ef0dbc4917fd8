package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrace(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadEmptyTrace: a trace with no events is valid input, not an
// error — a run can legitimately record nothing.
func TestLoadEmptyTrace(t *testing.T) {
	for name, body := range map[string]string{
		"object":     `{"traceEvents":[]}`,
		"bare array": `[]`,
	} {
		tf, err := load(writeTrace(t, "empty.json", body))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(tf.TraceEvents) != 0 {
			t.Errorf("%s: %d events from an empty trace", name, len(tf.TraceEvents))
		}
	}
	var sb strings.Builder
	summarize(&sb, nil)
	if sb.Len() != 0 {
		t.Errorf("empty summary rendered output: %q", sb.String())
	}
}

// TestLoadTruncatedJSON: a trace cut off mid-write (the crash case the
// tool exists to diagnose) must fail loudly, not silently drop events.
func TestLoadTruncatedJSON(t *testing.T) {
	for name, body := range map[string]string{
		"mid object": `{"traceEvents":[{"name":"step","ph":"X","ts":1,`,
		"mid array":  `[{"name":"step","ph":"X"`,
		"not json":   `hello`,
	} {
		if _, err := load(writeTrace(t, "trunc.json", body)); err == nil {
			t.Errorf("%s: truncated trace loaded without error", name)
		}
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded without error")
	}
}

// TestMergeSingleRank: a one-input merge is the identity apart from the
// pid rewrite to row 0.
func TestMergeSingleRank(t *testing.T) {
	in := writeTrace(t, "one.json",
		`{"traceEvents":[{"name":"step","ph":"X","ts":10,"dur":5,"pid":7,"tid":2}]}`)
	evs, err := merge([]string{in})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].PID != 0 || evs[0].TID != 2 || evs[0].Name != "step" {
		t.Fatalf("merged = %+v", evs)
	}
}

// TestRunMerge: -o writes the merged inputs as one trace file that
// loads back with every input on its own row; -summary adds the
// per-track summary.
func TestRunMerge(t *testing.T) {
	in := writeTrace(t, "one.json",
		`{"traceEvents":[{"name":"step","ph":"X","ts":10,"dur":5,"pid":7,"tid":2}]}`)
	path := filepath.Join(t.TempDir(), "merged.json")
	var out, errOut strings.Builder
	if code := run([]string{"-o", path, "-summary", in, in}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "2 events from 2 files") || !strings.Contains(out.String(), "[pid 1] tid 2") {
		t.Errorf("output %q lacks the write line or the summary", out.String())
	}
	tf, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 2 || tf.TraceEvents[0].PID != 0 || tf.TraceEvents[1].PID != 1 {
		t.Fatalf("merged file = %+v", tf.TraceEvents)
	}
	if code := run([]string{"-o", path}, &out, &errOut); code != 2 {
		t.Errorf("no inputs: exit %d, want 2", code)
	}
}

// TestMergeDuplicatePID: two runs recorded as the same pid must land on
// distinct process rows instead of colliding into one track.
func TestMergeDuplicatePID(t *testing.T) {
	body := `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"rank 0"}},` +
		`{"name":"step","ph":"X","ts":0,"dur":10,"pid":0,"tid":1}]}`
	a := writeTrace(t, "a.json", body)
	b := writeTrace(t, "b.json", body)
	evs, err := merge([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	pids := map[int]int{}
	for _, ev := range evs {
		pids[ev.PID]++
	}
	if len(pids) != 2 || pids[0] != 2 || pids[1] != 2 {
		t.Fatalf("pid distribution = %v, want both files on their own row", pids)
	}
	var sb strings.Builder
	summarize(&sb, evs)
	out := sb.String()
	if !strings.Contains(out, "[pid 0] rank 0") || !strings.Contains(out, "[pid 1] rank 0") {
		t.Fatalf("summary lost a track:\n%s", out)
	}
}

// TestSummarizeTracksAndInstants: span totals, percentages and instant
// counts all surface in the text summary.
func TestSummarizeTracksAndInstants(t *testing.T) {
	evs := []event{
		{Name: "thread_name", Phase: "M", PID: 0, TID: 1, Args: map[string]any{"name": "rank 0"}},
		{Name: "step", Phase: "X", TS: 0, Dur: 8000, PID: 0, TID: 1},
		{Name: "halo", Phase: "X", TS: 8000, Dur: 2000, PID: 0, TID: 1},
		{Name: "ckpt.commit", Phase: "i", TS: 9000, PID: 0, TID: 1},
		{Name: "ckpt.commit", Phase: "i", TS: 9500, PID: 0, TID: 1},
	}
	var sb strings.Builder
	summarize(&sb, evs)
	out := sb.String()
	for _, want := range []string{"rank 0", "step", "halo", "Instants:", "ckpt.commit"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "80.00") {
		t.Errorf("step should be 80%% of wall:\n%s", out)
	}
}
