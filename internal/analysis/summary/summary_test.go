package summary_test

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"horus/internal/analysis"
	"horus/internal/analysis/load"
	"horus/internal/analysis/summary"
)

// buildFixture loads testdata/src/sumfix through the real loader and
// runs the engine over it.
func buildFixture(t *testing.T) (*summary.Engine, *analysis.Pass) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "sumfix"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Load(load.Config{Dir: ".", Overlay: map[string]string{"sumfix": dir}}, "sumfix")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture type error: %v", terr)
	}
	pass := &analysis.Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
	}
	return summary.Build(pass), pass
}

// nodeFor finds the engine node of a (possibly method) name like
// "Counter.Recurse" or "PureAdd".
func nodeFor(t *testing.T, e *summary.Engine, pass *analysis.Pass, name string) *summary.FuncNode {
	t.Helper()
	recv, method, isMethod := strings.Cut(name, ".")
	scope := pass.Pkg.Scope()
	var fn *types.Func
	if isMethod {
		obj := scope.Lookup(recv)
		if obj == nil {
			t.Fatalf("no type %s", recv)
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			t.Fatalf("%s is not a named type", recv)
		}
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == method {
				fn = named.Method(i)
				break
			}
		}
	} else {
		fn, _ = scope.Lookup(name).(*types.Func)
	}
	if fn == nil {
		t.Fatalf("no function %s in fixture", name)
	}
	n := e.FuncNode(fn)
	if n == nil {
		t.Fatalf("engine has no node for %s", name)
	}
	return n
}

// kinds collects the distinct fact kinds of a node.
func kinds(n *summary.FuncNode) map[summary.Kind]bool {
	out := make(map[summary.Kind]bool)
	for _, f := range n.Facts() {
		out[f.Kind] = true
	}
	return out
}

func TestPureFunctionsAreClean(t *testing.T) {
	e, pass := buildFixture(t)
	for _, name := range []string{"PureAdd", "PureString", "PokeLocal", "CaptureMutate", "NewCounter", "Counter.CallHook"} {
		n := nodeFor(t, e, pass, name)
		if facts := n.Facts(); len(facts) != 0 {
			for _, f := range facts {
				t.Errorf("%s: unexpected fact %v: %s (chain %q)", name, f.Kind, f.Detail, e.FormatChain(f))
			}
		}
	}
}

// TestInterfaceDispatchIsUnknown pins the documented limit: the target
// of an interface call is unknown to the engine, so the call carries
// none of an implementation's reads.
func TestInterfaceDispatchIsUnknown(t *testing.T) {
	e, pass := buildFixture(t)
	if !kinds(nodeFor(t, e, pass, "clockIface.Do"))[summary.Wallclock] {
		t.Fatal("clockIface.Do: expected its own Wallclock fact")
	}
	if got := nodeFor(t, e, pass, "CallIface").Facts(); len(got) != 0 {
		t.Errorf("CallIface: interface dispatch was followed: %v", got)
	}
}

func TestWallclockLaundering(t *testing.T) {
	e, pass := buildFixture(t)
	for _, name := range []string{"Clock", "ClockField", "ClockDefer", "ClockDeep", "Counter.Recurse"} {
		if !kinds(nodeFor(t, e, pass, name))[summary.Wallclock] {
			t.Errorf("%s: expected Wallclock fact (laundered time.Now)", name)
		}
	}
	// The deep read's chain must name both hops.
	found := false
	for _, f := range nodeFor(t, e, pass, "ClockDeep").Facts() {
		chain := e.FormatChain(f)
		if strings.Contains(chain, "clockMiddle") && strings.Contains(chain, "clockInner") {
			found = true
		}
	}
	if !found {
		t.Error("ClockDeep: no Wallclock fact with clockMiddle→clockInner chain")
	}
}
