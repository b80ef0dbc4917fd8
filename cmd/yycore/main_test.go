package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// runOut runs yycore with args and returns its stdout, failing the test
// on a non-zero exit.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("yycore %s: exit %d\n%s%s", strings.Join(args, " "), code, out.String(), errOut.String())
	}
	return out.String()
}

// TestRunModes pins stdout of the four ways to run: serial, a 2-rank
// world, and a 2-rank world committing to a directory or to a store.
// They are one computation, so only the header's world and sink differ.
func TestRunModes(t *testing.T) {
	const body = `step=     2 t=0.01065 mass=4.46386 Ek=2.53625e-06 Em=1.79952e-08 Ei=8.24029 maxV=0.003534 maxB=0.0001713 dt=0.005323
step=     4 t=0.02129 mass=4.46382 Ek=9.79166e-06 Em=1.79561e-08 Ei=8.24016 maxV=0.006921 maxB=0.000171 dt=0.005323
final dipole=8.903e-05
campaign complete at step 4
`
	const grid = "yycore: grid 9 x 13 x 37 x 2 = 8658 points, Ra~6.87e+04, Ekman~0.000237\n"
	for _, tc := range []struct {
		name  string
		flags []string
		where string
	}{
		{"serial", nil, "a world of 1, checkpoint every 2 steps in memory"},
		{"procs2", []string{"-procs", "2"}, "a world of 2, checkpoint every 2 steps in memory"},
		{"campaign", []string{"-campaign", "DIR", "-procs", "2"}, "a world of 2, checkpoint every 2 steps in DIR"},
		{"store", []string{"-store", "DIR", "-procs", "2"}, "a world of 2, checkpoint every 2 steps in store DIR"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			args := []string{"-nr", "9", "-nt", "13", "-steps", "4", "-every", "2"}
			for _, f := range tc.flags {
				args = append(args, strings.ReplaceAll(f, "DIR", dir))
			}
			got := strings.ReplaceAll(runOut(t, args...), dir, "DIR")
			want := grid + "campaign: 4 steps on " + tc.where + "\n" + body
			if got != want {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestRunResumes: a directory campaign stopped at step 2 resumes there
// on a different world size and prints only the segment it ran.
func TestRunResumes(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-nr", "9", "-nt", "13", "-every", "2", "-campaign", dir}
	runOut(t, append(args, "-steps", "2", "-procs", "2")...)
	got := runOut(t, append(args, "-steps", "4")...)
	want := "resumed from checkpoint at step 2\n" +
		"step=     4 t=0.02129 mass=4.46382 Ek=9.79166e-06 Em=1.79561e-08 Ei=8.24016 maxV=0.006921 maxB=0.000171 dt=0.005323\n"
	if !strings.Contains(got, want) {
		t.Errorf("stdout:\n%s\nwant it to contain:\n%s", got, want)
	}
}

// TestRunInputErrors: flags a serial run cannot honour, a malformed
// fault site, a negative world and an unknown flag (-ckpt-every folded
// into -every) are input errors (exit 2), reported before anything
// runs.
func TestRunInputErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-ckpt-every", "2"},
		{"-replace"},
		{"-procs", "1", "-inject-kill-silent", "1@2"},
		{"-procs", "2", "-inject-kill-silent", "rank1"},
		{"-procs", "2", "-inject-kill-silent", "1@2x"},
		{"-procs", "-1"},
	} {
		var out, errOut strings.Builder
		if code := run(append([]string{"-nr", "9", "-nt", "13", "-steps", "2"}, args...), &out, &errOut); code != 2 {
			t.Errorf("yycore %s: exit %d, want 2\n%s%s", strings.Join(args, " "), code, out.String(), errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("yycore %s printed %q before rejecting its input", strings.Join(args, " "), out.String())
		}
	}
}
