// Package stackcheck verifies, at analysis time, every stack literal
// the type checker can resolve to a constant. The §6 property algebra
// exists so that stack correctness is decidable before anything runs;
// this analyzer closes the gap between that promise and
// property.Derive only firing inside stackreg.Build at run time. It
// finds call sites of the stack-consuming entry points
// (stackreg.Build/MustBuild, property.Derive/WellFormed/ParseStack/
// StackCost), recovers the stack description when it is a compile-time
// constant — a literal, a named constant from any package, or a
// []string of constants — and re-runs the Table 3 well-formedness
// derivation, reporting the offending literal and the first unmet
// requirement.
//
// Negative tests that exercise the algebra's error paths mark their
// deliberately malformed literals with a trailing
// "//horus:stackcheck-ok — <reason>" comment.
package stackcheck

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"horus/internal/analysis"
	"horus/internal/analysis/annot"
	"horus/internal/property"
)

// Analyzer is the stackcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "stackcheck",
	Doc: "re-run the Table 3 well-formedness derivation over every " +
		"constant stack literal passed to stackreg.Build, property.Derive " +
		"and friends",
	Run: run,
}

// suppressTag is the line-level opt-out for intentional negative cases.
const suppressTag = "stackcheck-ok"

// callSpec describes how one stack-consuming function lays out its
// arguments: which one is the stack (string description or []string)
// and which one, if any, is the network property set.
type callSpec struct {
	stackArg  int  // index of the stack argument
	stackList bool // stack is []string rather than a string description
	netArg    int  // index of the network Set argument, -1 if none

	// segment marks SWITCH reconfiguration targets: the description
	// names the segment above the fence, "" legally empties it, and
	// well-formedness is derived over property.SegmentBase with the
	// SWITCH row beneath — the static mirror of the run-time
	// validation in switchp, so an ill-formed constant target is a
	// finding here instead of a runtime abort. (The engine still
	// re-derives over the *actual* below-fence layers, which may be
	// richer or poorer than the canonical base.)
	segment bool
}

// targets maps "importpath.Func" to its argument layout. Methods are
// keyed the same way — the selector's *types.Func carries the
// defining package.
var targets = map[string]callSpec{
	"horus/internal/stackreg.Build":     {stackArg: 0, netArg: 1},
	"horus/internal/stackreg.MustBuild": {stackArg: 0, netArg: 1},
	"horus/internal/property.Derive":    {stackArg: 1, stackList: true, netArg: 0},
	"horus/internal/property.WellFormed": {
		stackArg: 1, stackList: true, netArg: 0,
	},
	"horus/internal/property.ParseStack": {stackArg: 0, netArg: -1},
	"horus/internal/property.StackCost":  {stackArg: 0, stackList: true, netArg: -1},
	"horus/internal/layers/switchp.RequestSwitch": {
		stackArg: 0, netArg: -1, segment: true,
	},
	"horus/internal/layers/switchp.WithInitialSegment": {
		stackArg: 0, netArg: -1, segment: true,
	},
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, file, call)
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, file *ast.File, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	spec, ok := targets[fn.Pkg().Path()+"."+fn.Name()]
	if !ok || len(call.Args) <= spec.stackArg {
		return
	}
	if annot.LineMarker(pass.Fset, file, call.Pos(), suppressTag) {
		return
	}

	stackExpr := call.Args[spec.stackArg]
	var names []string
	var display string
	if spec.stackList {
		names, display, ok = constStackList(pass, stackExpr)
	} else {
		var desc string
		desc, ok = constString(pass, stackExpr)
		if ok {
			names = property.ParseStack(desc)
			display = fmt.Sprintf("%q", desc)
		}
	}
	if !ok {
		return // not a compile-time constant; run-time checking applies
	}

	pos := stackExpr.Pos()
	if len(names) == 0 {
		// An empty switch target is the documented way to strip the
		// segment back to the base personality, not a mistake.
		if !spec.segment {
			pass.Reportf(pos, "empty stack description %s passed to %s", display, fn.Name())
		}
		return
	}
	for _, name := range names {
		if _, err := property.Spec(name); err != nil {
			pass.Reportf(pos, "stack %s names unknown layer %q (no Table 3 row)", display, name)
			return
		}
	}

	if spec.segment {
		full := append(append([]string(nil), names...), "SWITCH")
		if _, err := property.Derive(property.SegmentBase, full); err != nil {
			pass.Reportf(pos, "ill-formed switch target %s over the segment base %v: %s",
				display, property.SegmentBase, strings.TrimPrefix(err.Error(), "property: "))
		}
		return
	}

	if spec.netArg < 0 || len(call.Args) <= spec.netArg {
		return
	}
	net, ok := constSet(pass, call.Args[spec.netArg])
	if !ok {
		return // network set unknown at analysis time
	}
	if _, err := property.Derive(net, names); err != nil {
		pass.Reportf(pos, "malformed stack %s over network %v: %s",
			display, net, strings.TrimPrefix(err.Error(), "property: "))
	}
}

// constString resolves expr to a compile-time string constant.
func constString(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// constSet resolves expr to a property.Set constant (an untyped or
// typed integer constant expression, e.g. property.P1|property.P10).
func constSet(pass *analysis.Pass, expr ast.Expr) (property.Set, bool) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Uint64Val(tv.Value)
	if !ok {
		return 0, false
	}
	return property.Set(v), true
}

// constStackList resolves expr to a list of layer names: either a
// []string composite literal of string constants or a nested
// property.ParseStack call on a constant description.
func constStackList(pass *analysis.Pass, expr ast.Expr) ([]string, string, bool) {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		if _, ok := pass.TypesInfo.TypeOf(e).(*types.Slice); !ok {
			return nil, "", false
		}
		// Element names are kept verbatim: Derive does not normalize
		// case, so []string{"total"} really is an unknown layer.
		var names []string
		for _, elt := range e.Elts {
			s, ok := constString(pass, elt)
			if !ok {
				return nil, "", false
			}
			names = append(names, s)
		}
		return names, fmt.Sprintf("%q", strings.Join(names, ":")), true
	case *ast.CallExpr:
		fn := pass.Callee(e)
		if fn == nil || fn.Pkg() == nil ||
			fn.Pkg().Path() != "horus/internal/property" || fn.Name() != "ParseStack" ||
			len(e.Args) != 1 {
			return nil, "", false
		}
		desc, ok := constString(pass, e.Args[0])
		if !ok {
			return nil, "", false
		}
		return property.ParseStack(desc), fmt.Sprintf("%q", desc), true
	}
	return nil, "", false
}
