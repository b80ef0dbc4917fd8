package analyze

import (
	"path/filepath"
	"testing"
)

// TestKnob: main sets lib's fields through every write form knob counts
// (keyed and positional literals, &x.F, element stores, copy, a
// pointer-method call, encoding/json decoding, a running max); the
// field nothing writes, the default-only ones, the test-only one are
// flagged, and a justified directive exempts its field.
func TestKnob(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "knob"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(pkgs, []*Analyzer{Knob, IgnoreAudit})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, findings, filepath.Join("testdata", "knob"), filepath.Join("testdata", "knob", "lib"))
}

// TestKnobPartialSelection: without its main package the selection is
// not judged, so neither knob nor the audit of its directives reports.
func TestKnobPartialSelection(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "knob"))
	if err != nil {
		t.Fatal(err)
	}
	var lib []*Package
	for _, p := range pkgs {
		if p.Types.Name() != "main" {
			lib = append(lib, p)
		}
	}
	findings, err := Run(lib, []*Analyzer{Knob, IgnoreAudit})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) != 1 || len(findings) != 0 {
		t.Errorf("partial selection of %d package(s) produced findings: %v", len(lib), findings)
	}
}
