// Package analysis is a self-contained reimplementation of the core
// golang.org/x/tools/go/analysis vocabulary — Analyzer, Pass,
// Diagnostic — built on the standard library only, so the repo's
// static checks need no module dependencies. The API is deliberately
// a subset of the upstream one: an analyzer written against this
// package ports to x/tools by changing one import path.
//
// Three analyzers live beneath this package and together form the
// horus-vet suite (run by cmd/horus-vet, gating in CI):
//
//   - stackcheck re-runs the §6 property algebra (Table 3
//     well-formedness) over every constant stack literal handed to
//     stackreg.Build, property.Derive and friends, so a malformed
//     stack in cmd/, examples/ or a test fails `go vet`-style instead
//     of at run time.
//   - detlint enforces the determinism contract of the sim-driven
//     packages: no wall-clock reads, no global math/rand, no bare
//     goroutines outside bridge packages, whose every non-test file is
//     annotated //horus:wallclock.
//   - hcpilint flags HCPI-discipline violations in handlers: invoking
//     an upcall or callback while a mutex is held (the
//     callback-while-locked deadlock shape), header push/pop traffic
//     flowing against the direction the event is forwarded, and an
//     event kept past its call without a Hold.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Unlike the x/tools original it
// carries no Requires graph or Facts — the horus-vet analyzers are
// independent per-package passes.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test output.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run applies the analyzer to one package unit. It reports
	// problems via pass.Report / pass.Reportf and returns an error
	// only for internal failures (not for findings).
	Run func(pass *Pass) error
}

// Pass is one application of an analyzer to one type-checked package
// unit (a package, its internal test variant, or an external _test
// package).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver and the test
	// harness install their own sinks.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Callee resolves the called function or method of a call expression,
// or nil when the callee is not a named function (e.g. a func-typed
// variable or a type conversion).
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// IsTestFile reports whether pos lies in a *_test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
