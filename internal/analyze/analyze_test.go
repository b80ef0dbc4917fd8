package analyze

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted message substrings of a `// want "..."`
// expectation comment.
var wantRe = regexp.MustCompile(`"([^"]*)"`)

// expectation is one `// want` annotation in a fixture file.
type expectation struct {
	file string
	line int
	sub  string // message substring that must appear
}

// runFixture loads the fixture package in testdata/<dir>, runs the
// given analyzers and checks the findings against the fixture's
// `// want "substring"` comments (checkWants).
func runFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	path := filepath.Join("testdata", dir)
	pkg, err := LoadDir(path, "fixture/"+dir)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	findings, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", path, err)
	}
	checkWants(t, findings, path)
}

// checkWants matches findings against the `// want` comments of the
// fixture files in dirs: every annotated line must produce a finding
// containing the substring, and no unannotated finding may appear.
func checkWants(t *testing.T, findings []Finding, dirs ...string) {
	t.Helper()
	var wants []expectation
	for _, dir := range dirs {
		wants = append(wants, collectWants(t, dir)...)
	}
	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || filepath.Base(f.Pos.Filename) != w.file || f.Pos.Line != w.line {
				continue
			}
			if strings.Contains(f.Message, w.sub) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected finding containing %q, got none", w.file, w.line, w.sub)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// collectWants re-parses the fixture files for want annotations.
func collectWants(t *testing.T, dir string) []expectation {
	t.Helper()
	fset := token.NewFileSet()
	files, testFiles, err := parseDir(fset, dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, f := range append(files, testFiles...) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					wants = append(wants, expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						sub:  m[1],
					})
				}
			}
		}
	}
	return wants
}

// TestSuppression: a finding covered by //yyvet:ignore on the same or
// the preceding line is dropped; other findings in the file survive.
func TestSuppression(t *testing.T) {
	runFixture(t, "ignore", FloatEq)
}

// TestDirectiveScope verifies the line arithmetic of the directive
// registry directly: a directive covers its own line and the line
// below, for exactly the analyzers it names.
func TestDirectiveScope(t *testing.T) {
	d := &directive{
		pos:   token.Position{Filename: "f.go", Line: 10},
		names: []string{"float-eq", "pow2-stride"},
		used:  map[string]bool{},
	}
	ds := &directiveSet{
		byFile: map[string]map[int][]*directive{"f.go": {10: {d}}},
		all:    []*directive{d},
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{10, "float-eq", true},        // same line
		{11, "float-eq", true},        // directive on line above
		{12, "float-eq", false},       // out of range
		{9, "float-eq", false},        // directive below the finding
		{10, "cond-wait-loop", false}, // different analyzer
		{11, "pow2-stride", true},     // second name in the list
	}
	for _, c := range cases {
		pos := token.Position{Filename: "f.go", Line: c.line}
		if got := ds.suppress(pos, c.analyzer); got != c.want {
			t.Errorf("suppress(line %d, %s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
	// Suppressions were recorded: both names fired above.
	if !d.used["float-eq"] || !d.used["pow2-stride"] {
		t.Errorf("used-flags not recorded: %v", d.used)
	}
}

// TestLoadModuleSelf loads this repository's own module and checks a
// few known packages arrive type-checked.
func TestLoadModuleSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide type-check is slow")
	}
	pkgs, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.Path] = true
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s loaded without type information", p.Path)
		}
	}
	for _, want := range []string{"repro/internal/mpi", "repro/internal/fd", "repro/cmd/yyvet"} {
		if !seen[want] {
			t.Errorf("LoadModule missed %s (got %d packages)", want, len(pkgs))
		}
	}
}

// TestFindingString pins the file:line:col: analyzer: message format the
// driver prints.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:      token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Analyzer: "float-eq",
		Message:  "msg",
	}
	if got, want := f.String(), "a/b.go:3:7: float-eq: msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Run is RunN with the default parallelism.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	return RunN(pkgs, analyzers, 0)
}

// LoadDir parses and type-checks the single package in dir under the
// given import path; imports resolve against the standard library only.
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	files, testFiles, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 && len(testFiles) == 0 {
		return nil, fmt.Errorf("analyze: no Go files in %s", dir)
	}
	pkg, err := typeCheck(fset, importPath, files, testFiles, newModuleImporter(fset))
	if err != nil {
		return nil, err
	}
	pkg.Dir = dir
	return pkg, nil
}
