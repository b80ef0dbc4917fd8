package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReproGoldens runs the whole reproduction on a small grid with the
// baked reference profile and holds every deterministic file to its
// golden: the text files byte for byte against testdata/, the images by
// sha256. ablations.txt is left out: A8 prints wall-clock timings. The
// goldens are what `yyrepro -measure=false -nr 9 -nt 13 -steps 4`
// writes.
func TestReproGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full reproduction (~5 s)")
	}
	dir := t.TempDir()
	var out, errOut strings.Builder
	if code := run([]string{"-measure=false", "-nr", "9", "-nt", "13", "-steps", "4", "-out", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	for _, name := range []string{
		"table1.txt", "table2.txt", "table3.txt", "list1.txt", "io_volume.txt", "scaling.txt",
		"fig1-summary.txt", "fig2-summary.txt", "energy_series.csv",
	} {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/%s:\n%s", name, name, got)
		}
	}
	for name, want := range map[string]string{
		"fig1-coverage.ppm":    "0b569583d73f6c57f2eb6d6b46f22e9c231b6d11ed98b19363e87d01eff780eb",
		"fig2-temperature.ppm": "39c9edf69f7ed9486f83e3551829ca7e870828ffdc1030b2ac1553f7c5d19612",
		"fig2-vortz.ppm":       "c52aa1307dd7fec8c8108b87423e938fde9e4bafb999793b9483516b14a4645b",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s sha256 = %x, want %s", name, sum, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ablations.txt")); err != nil {
		t.Error(err)
	}
}
