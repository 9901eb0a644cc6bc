// Package detlint enforces the determinism contract that makes the
// chaos suites and their seed replays trustworthy: sim-driven code must take
// time from the sched/transport virtual clock and randomness from a
// seeded *rand.Rand, and must run on the endpoint event queue rather
// than ad-hoc goroutines. Concretely, inside horus/internal/...
// non-test files it forbids
//
//   - wall-clock reads and timers: time.Now, time.Sleep, time.After,
//     time.AfterFunc, time.Tick, time.NewTimer, time.NewTicker,
//     time.Since, time.Until;
//   - the process-global math/rand generator (rand.Intn, rand.Seed,
//     ...); constructing a seeded generator via rand.New/NewSource
//     stays legal, and methods on a *rand.Rand are untouched;
//   - bare go statements, which escape the run-to-completion
//     event-queue model of paper §3/§10;
//   - sync.Pool, whose reuse order depends on GC timing and scheduler
//     interleaving; records and messages in sim-driven code are
//     garbage-collected, not pooled.
//
// The packages that genuinely bridge to the real world — udpnet, the
// chaosnet proxy, sched's wall-clock waits — opt out with a
// "//horus:wallclock — <reason>" marker at the top of every non-test
// file (package clause or above), so an exemption is visible before
// any code. A bridge is a whole package: a package whose
// non-test files are marked and unmarked alike is reported once per
// unmarked file, at its package clause. That rule is what keeps a
// banned read inside the bridge: Go code reaches another package only
// through its exported API, so sim-driven code can call into a bridge
// but never share its unexported helpers. Test files stay outside the
// rule and the checks; tests drive wall-clock soaks legitimately.
package detlint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"horus/internal/analysis"
	"horus/internal/analysis/annot"
)

// Analyzer is the detlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc: "forbid wall-clock time, global math/rand, bare goroutines and " +
		"sync.Pool in sim-driven packages (package opt-out: //horus:wallclock on every file)",
	Run: run,
}

// wallclockTag is the opt-out marker for real-world bridge code.
const wallclockTag = "wallclock"

// scopePrefix limits the analyzer to the module's internal tree; cmd/
// and examples/ are wall-clock programs by nature.
const scopePrefix = "horus/internal/"

// bannedTime lists the time-package functions that read or wait on the
// wall clock.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// allowedRand lists the math/rand constructors that build seeded,
// reproducible generators; everything else at package level draws from
// the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), scopePrefix) {
		return nil
	}
	var bridge *ast.File // the first marked non-test file
	var unmarked []*ast.File
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		if annot.FileMarker(file, wallclockTag) {
			if bridge == nil {
				bridge = file
			}
			continue
		}
		unmarked = append(unmarked, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"bare goroutine escapes the event-queue discipline; "+
						"post to the endpoint executor or a sched primitive instead "+
						"(//horus:wallclock opts a bridge package out)")
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			}
			return true
		})
	}
	if bridge == nil {
		return nil
	}
	name := filepath.Base(pass.Fset.File(bridge.Pos()).Name())
	for _, file := range unmarked {
		pass.Reportf(file.Package,
			"package %s mixes a wall-clock bridge with sim-driven code: %s is marked "+
				"//horus:wallclock and this file is not; a bridge is a whole package — "+
				"mark every non-test file or move the bridge into a package of its own",
			pass.Pkg.Name(), name)
	}
	return nil
}

// checkSelector flags uses of banned package-level functions and
// sync.Pool storage. Working on selector uses (not just calls) also
// catches escapes passed as function values, e.g. `clock := time.Now`.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	if tn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); ok {
		if tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
			pass.Reportf(sel.Pos(),
				"sync.Pool reuse order depends on GC timing; "+
					"sim-driven code keeps buffers unpooled")
		}
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"wall clock escape: time.%s bypasses the sched/transport virtual clock; "+
					"use the layer Context timer or move the code into a //horus:wallclock bridge package",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"nondeterminism escape: global rand.%s is not seed-reproducible; "+
					"draw from a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
				fn.Name())
		}
	}
}
