package analyze

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadReachFixture loads the testdata/reach module: a main package and
// the lib package it reaches.
func loadReachFixture(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := LoadModule(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestReach: main reaches lib through a registry literal, fmt.Stringer,
// encoding.TextMarshaler via json.Marshal, a method value, a generic
// instantiation and a var initializer; the dead helper and the
// test-only export are flagged, and a justified directive suppresses.
func TestReach(t *testing.T) {
	findings, err := Run(loadReachFixture(t), []*Analyzer{Reach})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, findings, filepath.Join("testdata", "reach"), filepath.Join("testdata", "reach", "lib"))
}

// TestReachStaleDirective: a //yyvet:ignore reach on a declaration main
// does reach suppresses nothing, and ignore-audit says so.
func TestReachStaleDirective(t *testing.T) {
	findings, err := Run(loadReachFixture(t), []*Analyzer{Reach, IgnoreAudit})
	if err != nil {
		t.Fatal(err)
	}
	var audits []Finding
	for _, f := range findings {
		if f.Analyzer == IgnoreAudit.Name {
			audits = append(audits, f)
		}
	}
	if len(audits) != 1 || audits[0].Pos.Line != 52 || !strings.Contains(audits[0].Message, "reach suppresses nothing") {
		t.Errorf("want one stale-directive finding at lib.go:52, got %v", audits)
	}
}

// TestReachPartialSelection: without its main package the selection is
// not judged, so neither reach nor the audit of its directives reports.
func TestReachPartialSelection(t *testing.T) {
	var lib []*Package
	for _, p := range loadReachFixture(t) {
		if p.Types.Name() != "main" {
			lib = append(lib, p)
		}
	}
	findings, err := Run(lib, []*Analyzer{Reach, IgnoreAudit})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) != 1 || len(findings) != 0 {
		t.Errorf("partial selection of %d package(s) produced findings: %v", len(lib), findings)
	}
}
