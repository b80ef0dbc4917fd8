package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// servePlane stands up a real telemetry plane for the client to watch:
// two ranks, a latched span-drops alert, a finished run.
func servePlane(t *testing.T) string {
	t.Helper()
	p := telemetry.New(telemetry.Config{Interval: 50 * time.Millisecond})
	events := mpi.NewEventLog()
	events.Notef("watchtest.start", "ranks=2")
	p.Attach(telemetry.Campaign{Run: "watchtest", TotalSteps: 40, Events: events})
	p.Rank(0).Publish(telemetry.Snapshot{Step: 40, DT: 0.5, SpanDropped: 3})
	p.Rank(1).Publish(telemetry.Snapshot{Step: 40, DT: 0.5})
	p.Finish(40)
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return addr
}

func runWatch(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestWatchOnce: one progress line, exit 0.
func TestWatchOnce(t *testing.T) {
	addr := servePlane(t)
	code, out, errOut := runWatch(t, "-addr", addr, "-once")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"watchtest", "step 40/40", "done"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress line %q lacks %q", out, want)
		}
	}
}

// TestWatchFollowUntilDone: the default mode returns once /progress
// reports done.
func TestWatchFollowUntilDone(t *testing.T) {
	addr := servePlane(t)
	code, out, errOut := runWatch(t, "-addr", addr, "-interval", "10ms", "-timeout", "5s")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "done") {
		t.Fatalf("follow never reported done: %q", out)
	}
}

// TestWatchMetricsDump: -metrics relays the raw exposition.
func TestWatchMetricsDump(t *testing.T) {
	addr := servePlane(t)
	code, out, _ := runWatch(t, "-addr", addr, "-metrics")
	if code != 0 || !strings.Contains(out, "yy_progress_total_steps 40") {
		t.Fatalf("exit %d out %q", code, out)
	}
}

// TestWatchCheckAndExpectAlert: -check validates both endpoints;
// -expect-alert is satisfied by the latched span-drops alert and
// fails on a rule that never fired.
func TestWatchCheckAndExpectAlert(t *testing.T) {
	addr := servePlane(t)
	code, out, errOut := runWatch(t, "-addr", addr, "-check")
	if code != 0 {
		t.Fatalf("check: exit %d, stderr %s", code, errOut)
	}
	if !strings.Contains(out, "metric families") {
		t.Fatalf("check summary: %q", out)
	}
	code, out, _ = runWatch(t, "-addr", addr, "-expect-alert", "span-drops")
	if code != 0 || !strings.Contains(out, "alert fired: span-drops") {
		t.Fatalf("expected alert: exit %d out %q", code, out)
	}
	code, _, errOut = runWatch(t, "-addr", addr, "-expect-alert", "rank-dead")
	if code != 1 || !strings.Contains(errOut, "rank-dead") {
		t.Fatalf("missing alert: exit %d stderr %q", code, errOut)
	}
}

// TestWatchEvents: -events tails the /events stream, one line per
// event, until the -timeout deadline ends it normally.
func TestWatchEvents(t *testing.T) {
	addr := servePlane(t)
	code, out, errOut := runWatch(t, "-addr", addr, "-events", "-timeout", "500ms")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "watchtest.start") || !strings.Contains(out, "ranks=2") {
		t.Fatalf("event stream lacks the scripted event: %q", out)
	}
}

// TestWatchAddrFile: the address is read (with retries) from the file
// yycore -telemetry-addr-file writes.
func TestWatchAddrFile(t *testing.T) {
	addr := servePlane(t)
	file := filepath.Join(t.TempDir(), "addr")
	if err := os.WriteFile(file, []byte(addr+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runWatch(t, "-addr-file", file, "-once")
	if code != 0 || !strings.Contains(out, "watchtest") {
		t.Fatalf("exit %d out %q stderr %q", code, out, errOut)
	}
}

// TestWatchBadInvocations: missing address and unreachable server are
// harness errors (exit 2), not silent successes.
func TestWatchBadInvocations(t *testing.T) {
	if code, _, _ := runWatch(t, "-once"); code != 2 {
		t.Fatalf("no addr: exit %d", code)
	}
	if code, _, _ := runWatch(t, "-addr", "127.0.0.1:1", "-once", "-timeout", "1s"); code != 2 {
		t.Fatalf("unreachable: exit %d", code)
	}
}

// TestParseExposition: the validating parser accepts the plane's own
// output shape and rejects malformed documents.
func TestParseExposition(t *testing.T) {
	good := "# HELP yy_x helps\n# TYPE yy_x gauge\nyy_x 1\n" +
		"# HELP yy_alerts_total a\n# TYPE yy_alerts_total counter\n" +
		"yy_alerts_total{rule=\"span-drops\"} 3\n"
	families, samples, alerts, err := parseExposition(strings.NewReader(good))
	if err != nil || families != 2 || samples != 2 || alerts["span-drops"] != 3 {
		t.Fatalf("good doc: fam=%d samp=%d alerts=%v err=%v", families, samples, alerts, err)
	}
	for name, bad := range map[string]string{
		"empty":       "",
		"untyped":     "yy_x 1\n",
		"no value":    "# TYPE yy_x gauge\nyy_x\n",
		"bad value":   "# TYPE yy_x gauge\nyy_x pancake\n",
		"open labels": "# TYPE yy_x gauge\nyy_x{rule=\"a\" 1\n",
		"short TYPE":  "# TYPE yy_x\nyy_x 1\n",
	} {
		if _, _, _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// TestParseSampleLabels: escaped quotes and commas inside label values
// survive the split.
func TestParseSampleLabels(t *testing.T) {
	name, labels, v, err := parseSample(`yy_x{a="x,y",b="q\"z"} 2.5`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "yy_x" || labels["a"] != "x,y" || labels["b"] != `q"z` || v != 2.5 {
		t.Fatalf("parsed %s %v %v", name, labels, v)
	}
}
