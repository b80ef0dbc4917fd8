package analyze

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

const ignoreDirective = "yyvet:ignore"

// A directive is one //yyvet:ignore comment. It suppresses findings of
// the named analyzers on its own line (trailing comment) and the line
// directly below (comment above the statement). The audit phase flags
// directives that name an unknown analyzer, carry no justification, or
// never suppressed anything during the run.
type directive struct {
	pos           token.Position
	names         []string
	justification string
	used          map[string]bool // analyzer name -> suppressed at least one finding
}

// directiveSet indexes every directive of the selected packages by
// filename and line. suppress is called concurrently from analyzer
// workers; the mutex guards the used-flags.
type directiveSet struct {
	mu     sync.Mutex
	byFile map[string]map[int][]*directive
	all    []*directive
}

// buildDirectiveSet scans the comments of every file (production and
// test) of the selected packages.
func buildDirectiveSet(pkgs []*Package) *directiveSet {
	ds := &directiveSet{byFile: map[string]map[int][]*directive{}}
	for _, pkg := range pkgs {
		files := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//"+ignoreDirective)
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					d := &directive{
						pos:           pkg.Fset.Position(c.Pos()),
						justification: strings.Join(fields[1:], " "),
						used:          map[string]bool{},
					}
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							d.names = append(d.names, name)
						}
					}
					byLine := ds.byFile[d.pos.Filename]
					if byLine == nil {
						byLine = map[int][]*directive{}
						ds.byFile[d.pos.Filename] = byLine
					}
					byLine[d.pos.Line] = append(byLine[d.pos.Line], d)
					ds.all = append(ds.all, d)
				}
			}
		}
	}
	sort.Slice(ds.all, func(i, j int) bool {
		a, b := ds.all[i].pos, ds.all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return ds
}

// suppress reports whether a directive covers a finding of the given
// analyzer at pos, marking the directive used when it does.
func (ds *directiveSet) suppress(pos token.Position, analyzer string) bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	byLine := ds.byFile[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			for _, name := range d.names {
				if name == analyzer {
					d.used[name] = true
					return true
				}
			}
		}
	}
	return false
}

// excuse marks every directive used for analyzer: it declined to judge
// this selection, so its directives are not stale here.
func (ds *directiveSet) excuse(analyzer string) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for _, d := range ds.all {
		d.used[analyzer] = true
	}
}

// audit reports one ignore-audit finding per defective directive:
// unknown analyzer names (not in the suite at all), missing
// justifications, and names that suppressed nothing even though the
// named analyzer ran. A directive naming an analyzer outside the
// current run set is not audited for staleness — that analyzer had no
// chance to fire.
func (ds *directiveSet) audit(m *Module, runSet, known map[string]bool) {
	type defect struct {
		pos token.Position
		msg string
	}
	var defects []defect
	ds.mu.Lock()
	for _, d := range ds.all {
		for _, name := range d.names {
			if !known[name] {
				defects = append(defects, defect{d.pos,
					"//yyvet:ignore names unknown analyzer " + name + "; see yyvet -list for the suite"})
				continue
			}
			if runSet[name] && !d.used[name] {
				defects = append(defects, defect{d.pos,
					"//yyvet:ignore " + name + " suppresses nothing on this line; delete the stale directive"})
			}
		}
		if d.justification == "" {
			defects = append(defects, defect{d.pos,
				"//yyvet:ignore lacks a justification; explain why the finding is safe to suppress"})
		}
	}
	ds.mu.Unlock()
	// Report outside the lock: report consults the directive set for
	// suppression, which re-locks it.
	for _, df := range defects {
		m.report(IgnoreAudit.Name, df.pos, df.msg)
	}
}
