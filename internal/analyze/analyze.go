// Package analyze is a static-analysis framework for this module, built
// only on the standard library's go/ast, go/parser, go/token and
// go/types. It exists because the solver's correctness and Earth
// Simulator performance rest on invariants the Go compiler cannot check:
// every posted mpi.Irecv must be completed with Wait before its halo
// buffer is read, hot-loop array dimensions must avoid the power-of-two
// strides that trigger memory-bank conflicts (modeled in internal/es),
// floating-point values must not be compared with == outside designated
// tolerance helpers, message tags must stay inside their allocated
// spaces, and recycled payload buffers must never be touched after
// release.
//
// Two analyzer shapes exist. Per-package analyzers (Run) see one
// type-checked package at a time and walk its ASTs. Interprocedural
// analyzers (RunModule) see the whole module through a ModulePass and
// build on the engine in callgraph.go (repo-wide call graph), cfg.go
// (per-function control-flow graphs), dataflow.go (a forward dataflow
// solver), and consts.go (interprocedural constant propagation with
// one-iteration call-site summaries). Engine artifacts are computed at
// most once per run and shared between analyzers through Module.Fact.
//
// Each invariant is an Analyzer; cmd/yyvet loads every package of the
// module and runs them all, package-parallel. A finding can be
// suppressed with a directive comment on the same line or the line
// directly above:
//
//	//yyvet:ignore analyzer-name[,analyzer-name...] justification
//
// The justification text is mandatory: the ignore-audit phase flags
// directives that omit it, name an unknown analyzer, or suppress
// nothing.
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// An Analyzer checks one invariant. Exactly one of Run and RunModule is
// set: Run analyzers see one package per call, RunModule analyzers see
// the whole module at once (call graph, cross-package summaries).
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives,
	// e.g. "irecv-wait".
	Name string
	// Doc is a one-paragraph description of the invariant and why it
	// matters for the reproduction.
	Doc string
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass) error
	// RunModule inspects every selected package at once; use it when
	// the invariant needs the call graph or cross-package dataflow.
	RunModule func(mp *ModulePass) error
}

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// TestFiles holds the package's in-package _test.go files. Most
	// analyzers target production invariants and range over Files only;
	// test-targeted analyzers (runwith-deadline) range over TestFiles.
	TestFiles []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	module *Module
}

// Reportf records a finding at pos unless an ignore directive for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.module.report(p.Analyzer.Name, p.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// A ModulePass carries one interprocedural analyzer's view of the whole
// selected module.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module
}

// Packages lists the selected packages in import-path order.
func (mp *ModulePass) Packages() []*Package { return mp.Module.Pkgs }

// Reportf records a finding at pos in pkg unless an ignore directive
// for this analyzer covers the position.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	mp.Module.report(mp.Analyzer.Name, pkg.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// Module is the shared state of one analysis run: the selected
// packages, the suppression-directive registry, the finding sink, and
// the memoized engine facts (call graph, constant propagation, ...).
type Module struct {
	Pkgs []*Package

	directives *directiveSet

	mu       sync.Mutex
	findings []Finding

	factMu sync.Mutex
	facts  map[string]*factEntry
}

type factEntry struct {
	once sync.Once
	val  any
	err  error
}

func newModule(pkgs []*Package) *Module {
	return &Module{
		Pkgs:       pkgs,
		directives: buildDirectiveSet(pkgs),
		facts:      map[string]*factEntry{},
	}
}

// Fact memoizes one engine artifact per run so independent analyzers
// share a single call graph, constant-propagation result, etc. The
// build function runs at most once per key; concurrent callers block on
// the first.
func (m *Module) Fact(key string, build func() (any, error)) (any, error) {
	m.factMu.Lock()
	e := m.facts[key]
	if e == nil {
		e = &factEntry{}
		m.facts[key] = e
	}
	m.factMu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// callGraph returns the module-wide call graph fact.
func (m *Module) callGraph() (*CallGraph, error) {
	v, err := m.Fact("callgraph", func() (any, error) {
		return buildCallGraph(m.Pkgs), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*CallGraph), nil
}

// constProp returns the interprocedural parameter-constant fact.
func (m *Module) constProp() (*ConstProp, error) {
	g, err := m.callGraph()
	if err != nil {
		return nil, err
	}
	v, err := m.Fact("constprop", func() (any, error) {
		return buildConstProp(g), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ConstProp), nil
}

// report appends one finding unless a directive suppresses it.
func (m *Module) report(analyzer string, pos token.Position, msg string) {
	if m.directives.suppress(pos, analyzer) {
		return
	}
	m.mu.Lock()
	m.findings = append(m.findings, Finding{Pos: pos, Analyzer: analyzer, Message: msg})
	m.mu.Unlock()
}

// RunN applies every analyzer to every package and returns the combined
// findings sorted by position then analyzer name; workers caps the
// analysis phase (workers <= 0 selects GOMAXPROCS). Per-package
// analyzers fan out over (analyzer, package) pairs; each module analyzer
// is one task. Findings are accumulated under a lock and sorted, so the
// output is deterministic regardless of schedule.
func RunN(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Finding, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := newModule(pkgs)

	audit := false
	runSet := map[string]bool{}
	var tasks []func() error
	for _, a := range analyzers {
		a := a
		runSet[a.Name] = true
		switch {
		case a == IgnoreAudit:
			audit = true
		case a.RunModule != nil:
			tasks = append(tasks, func() error {
				mp := &ModulePass{Analyzer: a, Module: m}
				if err := a.RunModule(mp); err != nil {
					return fmt.Errorf("analyze: %s: %w", a.Name, err)
				}
				return nil
			})
		case a.Run != nil:
			for _, pkg := range pkgs {
				pkg := pkg
				tasks = append(tasks, func() error {
					pass := &Pass{
						Analyzer:  a,
						Fset:      pkg.Fset,
						Files:     pkg.Files,
						TestFiles: pkg.TestFiles,
						Pkg:       pkg.Types,
						TypesInfo: pkg.Info,
						module:    m,
					}
					if err := a.Run(pass); err != nil {
						return fmt.Errorf("analyze: %s on %s: %w", a.Name, pkg.Path, err)
					}
					return nil
				})
			}
		}
	}

	if err := runTasks(tasks, workers); err != nil {
		return nil, err
	}

	// The audit phase runs strictly after every analyzer has finished,
	// so a directive's used-flag is final when inspected.
	if audit {
		m.directives.audit(m, runSet, knownAnalyzerNames())
	}

	findings := m.findings
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dataflow analyzers can reach one defect along several paths;
	// collapse exact duplicates.
	dedup := findings[:0]
	for i, f := range findings {
		if i > 0 && f == findings[i-1] {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup, nil
}

// runTasks executes the tasks over a bounded worker pool, returning the
// first error (all workers drain before return).
func runTasks(tasks []func() error, workers int) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			if err := t(); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	ch := make(chan func() error)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if err := t(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return firstErr
}

// inspectWithParents walks root in depth-first order calling fn with
// each node and the stack of its ancestors (outermost first, root
// excluded from its own stack). If fn returns false the node's children
// are skipped.
func inspectWithParents(root ast.Node, fn func(n ast.Node, parents []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// enclosingFuncName returns the name of the nearest enclosing FuncDecl
// in the parent stack, or "" when the node sits inside an anonymous
// function only (or at package level).
func enclosingFuncName(parents []ast.Node) string {
	for i := len(parents) - 1; i >= 0; i-- {
		if fd, ok := parents[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}
