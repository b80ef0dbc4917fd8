package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// badModuleWants is one pinned finding per seeded bug in the known-bad
// fixture module, covering every analyzer that has a seeded trigger.
var badModuleWants = []string{
	// v1 per-function analyzers.
	"comm/comm.go:22:2: irecv-wait: result of Irecv is discarded",
	"comm/comm.go:36:3: cond-wait-loop: sync.Cond.Wait is not guarded by a for loop",
	"fd/fd.go:6:25: pow2-stride: slice dimension 256 is a power of two",
	"fd/fd.go:10:11: float-eq: floating-point values compared with ==",
	// Stale-directive audit.
	"fd/fd.go:14:2: ignore-audit: //yyvet:ignore float-eq suppresses nothing",
	// Tag-space: unused allocation, step-path tag outside the
	// allocation, cross-package collision (reported at both uses), and a
	// negative tag that only a parameter summary can see.
	"decomp/decomp.go:12:1: tag-space: ExchangeTags() allocates tag 9",
	"decomp/decomp.go:23:12: tag-space: Send on the step path uses tag 3",
	"decomp/decomp.go:29:12: tag-space: tag 0 (from decomp.tagBase+0) collides across subsystems",
	// Overlap-order: a read of the in-flight halo array inside the
	// haloStart..haloFinish window.
	"decomp/decomp.go:55:7: overlap-order: r.b is read between haloStart and haloFinish",
	"relay/relay.go:17:12: tag-space: tag 0 (from 0) collides across subsystems",
	"relay/relay.go:17:12: tag-space: Send uses negative tag -2",
	// Buffer lifetime: the three diagnosable misuses.
	"mpi/mpi.go:25:9: buf-lifetime: b is used after being released with putBuf",
	"mpi/mpi.go:31:13: buf-lifetime: b was already released with putBuf",
	"mpi/mpi.go:37:3: buf-lifetime: b acquired from getBuf leaks on this return path",
	// Determinism purity.
	"mhd/mhd.go:10:9: det-purity: time.Now in deterministic package mhd",
	"mhd/mhd.go:16:2: det-purity: range over map in deterministic package mhd",
	// Pool tile disjointness.
	"par/par.go:18:4: pool-disjoint: accumulation into captured sum",
	"par/par.go:27:3: pool-disjoint: write into out inside a Pool.For tile closure",
	// Knob: the whole program (main.go) never sets Options.Grain.
	"par/par.go:44:2: knob: Options.Grain is set by no program",
}

// TestBadModuleFindings: the driver on the known-bad fixture module
// reports each analyzer's expected finding and exits 1.
func TestBadModuleFindings(t *testing.T) {
	t.Chdir("testdata/badmod")
	var out, errOut strings.Builder
	code := run([]string{"./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	for _, want := range badModuleWants {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\ngot:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "\n"); n != len(badModuleWants) {
		t.Errorf("expected exactly %d findings, got %d:\n%s", len(badModuleWants), n, got)
	}
}

// TestBadModuleSinglePackage: a narrower pattern only reports that
// package's findings.
func TestBadModuleSinglePackage(t *testing.T) {
	t.Chdir("testdata/badmod")
	var out, errOut strings.Builder
	code := run([]string{"./comm"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	got := out.String()
	if strings.Contains(got, "fd/fd.go") {
		t.Errorf("pattern ./comm leaked fd findings:\n%s", got)
	}
	if !strings.Contains(got, "irecv-wait") {
		t.Errorf("pattern ./comm missed its findings:\n%s", got)
	}
}

// TestGoodModuleClean: the clean fixture module exits 0 with no output.
// The module deliberately exercises the interprocedural machinery on
// the happy path: release-through-wrapper, tag bases flowing through
// helper parameters, and a justified live suppression.
func TestGoodModuleClean(t *testing.T) {
	t.Chdir("testdata/goodmod")
	var out, errOut strings.Builder
	code := run([]string{"./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean module produced output:\n%s", out.String())
	}
}

// TestJSONOutput: -json writes a machine-readable array carrying the
// same findings as the plain lines.
func TestJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	t.Chdir("testdata/badmod")
	var out, errOut strings.Builder
	code := run([]string{"-json", path, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var jfs []jsonFinding
	if err := json.Unmarshal(data, &jfs); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if len(jfs) != len(badModuleWants) {
		t.Fatalf("JSON carries %d findings, want %d", len(jfs), len(badModuleWants))
	}
	seen := false
	for _, f := range jfs {
		if f.File == "mpi/mpi.go" && f.Line == 37 && f.Analyzer == "buf-lifetime" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("JSON missing the mpi leak finding:\n%s", data)
	}
}

// TestJSONStdout: -json - makes the array the stdout payload and drops
// the plain lines so the stream stays parseable.
func TestJSONStdout(t *testing.T) {
	t.Chdir("testdata/badmod")
	var out, errOut strings.Builder
	code := run([]string{"-json", "-", "./mhd"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	var jfs []jsonFinding
	if err := json.Unmarshal([]byte(out.String()), &jfs); err != nil {
		t.Fatalf("stdout is not a bare JSON array: %v\n%s", err, out.String())
	}
	if len(jfs) != 2 {
		t.Errorf("got %d findings for ./mhd, want 2", len(jfs))
	}
}

// TestJSONEmptyArray: a clean run writes [], never null, so downstream
// jq/actions steps need no null guard.
func TestJSONEmptyArray(t *testing.T) {
	t.Chdir("testdata/goodmod")
	var out, errOut strings.Builder
	code := run([]string{"-json", "-", "./..."}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json - output = %q, want []", got)
	}
}

// TestGithubAnnotations: -github interleaves ::error workflow commands
// with the escaped position properties.
func TestGithubAnnotations(t *testing.T) {
	t.Chdir("testdata/badmod")
	var out, errOut strings.Builder
	code := run([]string{"-github", "./mhd"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "::error file=mhd/mhd.go,line=10,col=9,title=yyvet det-purity::") {
		t.Errorf("missing ::error annotation:\n%s", got)
	}
	// The plain line must still be there for humans reading the log.
	if !strings.Contains(got, "mhd/mhd.go:10:9: det-purity:") {
		t.Errorf("plain line dropped in -github mode:\n%s", got)
	}
}

// TestParallelMatchesSerial: -p 1 and -p 8 produce identical output;
// the package-parallel scheduler must not perturb finding order.
func TestParallelMatchesSerial(t *testing.T) {
	t.Chdir("testdata/badmod")
	var serial, parallel, errOut strings.Builder
	if code := run([]string{"-p", "1", "./..."}, &serial, &errOut); code != 1 {
		t.Fatalf("serial exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if code := run([]string{"-p", "8", "./..."}, &parallel, &errOut); code != 1 {
		t.Fatalf("parallel exit code = %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if serial.String() != parallel.String() {
		t.Errorf("-p 1 and -p 8 disagree:\nserial:\n%s\nparallel:\n%s", serial.String(), parallel.String())
	}
}

// TestListFlag: -list names the analyzers, old and new, and exits 0.
func TestListFlag(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-list"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{
		"irecv-wait", "pow2-stride", "float-eq", "cond-wait-loop",
		"tag-space", "buf-lifetime", "det-purity", "pool-disjoint", "ignore-audit",
		"overlap-order",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestNoMatchingPackages: a pattern that selects nothing is a usage
// error, not a silent pass.
func TestNoMatchingPackages(t *testing.T) {
	t.Chdir("testdata/badmod")
	var out, errOut strings.Builder
	code := run([]string{"./nonexistent"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "no packages match") {
		t.Errorf("stderr = %q", errOut.String())
	}
}
