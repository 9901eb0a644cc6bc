// Package detlint enforces the determinism contract that makes the
// chaos and differential suites trustworthy: sim-driven code must take
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
// chaosnet proxy, netsim's real-time transport, sched's wall-clock
// waits — opt out per file with a "//horus:wallclock — <reason>"
// marker in the file header. The marker must sit at the top of the
// file (package clause or above), so an exemption is visible before
// any code and a new escape cannot hide behind an old annotation
// elsewhere in the package.
//
// The selector check alone has a laundering blind spot: a banned read
// whose selector sits in an exempt file can flow into non-exempt code
// through a helper call, a method value, a defer, or a func-typed
// struct field bound in the exempt file. A second, interprocedural
// sweep closes it with the effect-summary engine: any function
// declared in a non-exempt file whose summary carries a wall-clock or
// global-rand fact originating in an exempt (or test) file is flagged
// at the call that imports the effect, with the full chain in the
// diagnostic. Origins in non-exempt files are skipped — the selector
// check already flags those at the source, and flagging every caller
// would cascade one escape into dozens of findings.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"horus/internal/analysis"
	"horus/internal/analysis/annot"
	"horus/internal/analysis/summary"
)

// Analyzer is the detlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "detlint",
	Doc: "forbid wall-clock time, global math/rand, bare goroutines and " +
		"sync.Pool in sim-driven packages (file opt-out: //horus:wallclock)",
	Run: run,
}

// wallclockTag is the file-level opt-out marker for real-world bridge
// code.
const wallclockTag = "wallclock"

// scopePrefix limits the analyzer to the module's internal tree; cmd/
// and examples/ are wall-clock programs by nature.
const scopePrefix = "horus/internal/"

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), scopePrefix) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue // tests drive wall-clock soaks legitimately
		}
		if annot.FileMarker(file, wallclockTag) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"bare goroutine escapes the event-queue discipline; "+
						"post to the endpoint executor or a sched primitive instead "+
						"(//horus:wallclock opts the file out)")
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			}
			return true
		})
	}
	checkLaundering(pass)
	return nil
}

// checkLaundering is the interprocedural sweep: it flags banned
// effects that reach non-exempt code only through a call chain rooted
// in an exempt or test file — helper calls, method values, defers,
// and func-typed struct fields bound in bridge code.
func checkLaundering(pass *analysis.Pass) {
	eng := summary.Build(pass)
	exemptPos := func(pos token.Pos) bool {
		if pass.IsTestFile(pos) {
			return true
		}
		f := eng.FileOf(pos)
		return f != nil && annot.FileMarker(f, wallclockTag)
	}
	type reportKey struct {
		pos    token.Pos
		detail string
	}
	seen := map[reportKey]bool{}
	for _, n := range eng.Nodes() {
		if n.File == nil || annot.FileMarker(n.File, wallclockTag) || pass.IsTestFile(n.Pos()) {
			continue
		}
		for _, f := range n.Facts() {
			if f.Kind != summary.Wallclock && f.Kind != summary.GlobalRand {
				continue
			}
			if len(f.Chain) == 0 || !exemptPos(f.Pos) {
				continue // direct escapes are the selector check's job
			}
			pos := f.Chain[0].Pos
			key := reportKey{pos: pos, detail: f.Detail}
			if seen[key] {
				continue
			}
			seen[key] = true
			what := "wall clock escape"
			if f.Kind == summary.GlobalRand {
				what = "nondeterminism escape"
			}
			pass.Report(analysis.Diagnostic{
				Pos: pos,
				Message: what + ": " + f.Detail + " reached via " + eng.FormatChain(f) +
					" — the call chain launders a banned read out of an exempt file into " +
					"sim-driven code; take time from the sched/transport virtual clock " +
					"or mark this file //horus:wallclock",
				Analyzer: pass.Analyzer.Name,
				Chain:    eng.ChainStrings(f),
			})
		}
	}
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
		if summary.BannedTime(fn.Name()) {
			pass.Reportf(sel.Pos(),
				"wall clock escape: time.%s bypasses the sched/transport virtual clock; "+
					"use the layer Context timer or annotate the file //horus:wallclock",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !summary.AllowedRand(fn.Name()) {
			pass.Reportf(sel.Pos(),
				"nondeterminism escape: global rand.%s is not seed-reproducible; "+
					"draw from a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
				fn.Name())
		}
	}
}
