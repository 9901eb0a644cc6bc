// Package summary is the interprocedural backbone of the horus-vet
// suite: a bottom-up effect-summary engine over one type-checked
// package unit. For every function, method, and function literal it
// computes a conservative summary of the side effects the function may
// perform — writes through its receiver, its parameters, captured
// variables, globals, or values of unknown provenance; retention
// (escape) of its receiver or parameters; goroutine spawns; channel
// traffic; wall-clock and global-rand reads; and calls whose effects
// cannot be resolved at all. Summaries propagate through a
// type-resolved call graph by fixpoint over its strongly connected
// components, so an effect three helper-calls deep surfaces on the
// entry point with the full call chain attached.
//
// The engine is deliberately conservative where resolution runs out:
//
//   - Interface dispatch is never devirtualized; a call through an
//     interface method is CallUnknown.
//   - Calls through func-typed values (locals, struct fields, method
//     values) resolve against every value the package ever binds to
//     that variable or field; if any binding is unresolvable the call
//     is CallUnknown.
//   - Cross-package calls resolve against a small table of audited
//     stdlib behaviour (pure, mutates-argument, wall-clock,
//     global-rand) plus the caller-supplied Options.KnownPure set;
//     everything else is CallUnknown.
//   - defer runs the deferred call's effects in the same activation;
//     go adds SpawnGoroutine on top of the callee's effects.
//
// Aliasing is tracked with a per-function provenance lattice: a local
// variable assigned from a parameter field keeps the parameter root,
// so a write through it is a parameter mutation, while a write through
// a freshly allocated value stays local. Whatever the lattice cannot
// prove local is reported as MutateAlias — the engine never silently
// assumes purity.
//
// Consumers: purecast proves the §10 pass-1 hooks (Ready/Fits/WidthFn)
// side-effect-free through arbitrary call depth, EscapeArg included;
// detlint closes the laundering gap where wall-clock reads hide behind
// method values, defers, and function-typed struct fields.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"horus/internal/analysis"
)

// Kind classifies one effect a function may perform.
type Kind int

const (
	// MutateReceiver: a write through the function's receiver.
	MutateReceiver Kind = iota
	// MutateParam: a write through parameter Fact.Param.
	MutateParam
	// MutateCaptured: a write through a variable captured from an
	// enclosing function (closures mutating layer state).
	MutateCaptured
	// MutateGlobal: a write to package-level state.
	MutateGlobal
	// MutateAlias: a write through a value whose provenance the
	// engine cannot prove local — conservatively an external write.
	MutateAlias
	// EscapeArg: parameter Fact.Param (or the receiver, Param == -1)
	// is retained beyond the call: stored into external storage, sent
	// on a channel, or returned.
	EscapeArg
	// CallUnknown: a call whose effects cannot be resolved (interface
	// dispatch, unlisted cross-package function, opaque func value).
	CallUnknown
	// SpawnGoroutine: a go statement.
	SpawnGoroutine
	// ChanOp: a channel send, receive, or close.
	ChanOp
	// Wallclock: a banned time-package read (time.Now, time.Sleep, ...).
	Wallclock
	// GlobalRand: a draw from the process-global math/rand source.
	GlobalRand
)

var kindNames = [...]string{
	"mutates receiver", "mutates parameter", "mutates captured state",
	"mutates global state", "mutates aliased state", "retains argument",
	"calls unknown code", "spawns goroutine", "channel operation",
	"wall-clock read", "global rand draw",
}

func (k Kind) String() string { return kindNames[k] }

// Step is one call-chain hop: the call site and the callee's printable
// name.
type Step struct {
	Pos    token.Pos
	Callee string
}

// Fact is one effect in a function's summary. Pos is the originating
// statement or expression; Chain, outermost call first, is how the
// summarized function reaches it (empty for a local effect).
type Fact struct {
	Kind   Kind
	Param  int // parameter index for MutateParam/EscapeArg; -1 = receiver
	Pos    token.Pos
	Detail string
	Chain  []Step
	// target is the mutated object for MutateCaptured, so the effect
	// can be re-classified when lifted into the capturing function.
	target types.Object
}

// factKey dedups facts during the fixpoint: one fact per effect kind,
// parameter slot, and origin.
type factKey struct {
	kind  Kind
	param int
	pos   token.Pos
}

// FuncNode is one function, method, or function literal of the
// analyzed package.
type FuncNode struct {
	// Obj is the declared function object; nil for function literals.
	Obj *types.Func
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Name is printable: "(*Mbrship).Primary", "castDown", or
	// "func literal at <pos>".
	Name string
	// File is the file holding the function's body.
	File *ast.File

	body   *ast.BlockStmt
	pos    token.Pos
	end    token.Pos
	recv   *types.Var
	params []*types.Var

	facts map[factKey]*Fact
	calls []*callsite
	prov  map[*types.Var]rootSet

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
	scc            int
}

// Facts returns the function's summary, origin order unspecified.
func (n *FuncNode) Facts() []*Fact {
	out := make([]*Fact, 0, len(n.facts))
	for _, f := range n.facts {
		out = append(out, f)
	}
	return out
}

// Pos returns the function's declaration position.
func (n *FuncNode) Pos() token.Pos { return n.pos }

// rootSet is the provenance lattice element: which roots a value may
// point at (write) and which it may hold references to (hold ⊇ write).
type rootSet struct {
	write roots
	hold  roots
}

type roots struct {
	local, recv, captured, global, unknown bool
	params                                 []int
}

func (r *roots) addParam(i int) {
	for _, p := range r.params {
		if p == i {
			return
		}
	}
	r.params = append(r.params, i)
}

func (r *roots) union(o roots) bool {
	changed := false
	set := func(dst *bool, v bool) {
		if v && !*dst {
			*dst = true
			changed = true
		}
	}
	set(&r.local, o.local)
	set(&r.recv, o.recv)
	set(&r.captured, o.captured)
	set(&r.global, o.global)
	set(&r.unknown, o.unknown)
	for _, p := range o.params {
		n := len(r.params)
		r.addParam(p)
		if len(r.params) != n {
			changed = true
		}
	}
	return changed
}

func (r roots) external() bool {
	return r.recv || r.captured || r.global || r.unknown || len(r.params) > 0
}

func localRoots() roots { return roots{local: true} }

// callsite is one resolved-enough call inside a function body.
type callsite struct {
	pos  token.Pos
	desc string // printable callee for chains

	// Exactly one of callee / calleeLit is set for a direct
	// intra-package edge; bindingKey names a func-typed variable or
	// field whose bound values are resolved after collection.
	callee     *types.Func
	calleeLit  *ast.FuncLit
	bindingKey types.Object

	// recvCls / argCls are the provenance classes of the receiver
	// operand and arguments, frozen at collection time for lifting.
	recvCls rootSet
	argCls  []rootSet

	// viaValue marks a call through a func value (method value or
	// func-typed variable); receiver mapping degrades to MutateAlias.
	viaValue bool
}

// binding is one value assigned to a func-typed variable or field.
type binding struct {
	fn  *types.Func  // named function or method value target
	lit *ast.FuncLit // literal bound directly
	pos token.Pos
}

// Options tunes the engine.
type Options struct {
	// KnownPure marks cross-package functions and methods the caller
	// has audited as effect-free, keyed by types.Func.FullName, e.g.
	// "(*horus/internal/core.View).Size".
	KnownPure map[string]bool
}

// Engine holds the summaries of one package unit.
type Engine struct {
	pass *analysis.Pass
	opts Options

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	all   []*FuncNode

	// bindings maps func-typed variables and struct fields to every
	// value the package binds to them; opaque marks keys that also
	// received an unresolvable value.
	bindings map[types.Object][]binding
	opaque   map[types.Object]bool
}

// Build indexes the pass's functions, collects local effects and call
// sites, and runs the SCC fixpoint. The pass is not mutated.
func Build(pass *analysis.Pass, opts Options) *Engine {
	e := &Engine{
		pass:     pass,
		opts:     opts,
		byObj:    make(map[*types.Func]*FuncNode),
		byLit:    make(map[*ast.FuncLit]*FuncNode),
		bindings: make(map[types.Object][]binding),
		opaque:   make(map[types.Object]bool),
	}
	e.index()
	for _, n := range e.all {
		e.provenance(n)
	}
	for _, n := range e.all {
		e.collect(n)
	}
	e.fixpoint()
	return e
}

// FuncNode returns the node of a declared function or method, or nil.
func (e *Engine) FuncNode(obj *types.Func) *FuncNode { return e.byObj[obj] }

// LitNode returns the node of a function literal, or nil.
func (e *Engine) LitNode(lit *ast.FuncLit) *FuncNode { return e.byLit[lit] }

// Nodes returns every indexed function in file order.
func (e *Engine) Nodes() []*FuncNode { return e.all }

// ResolveValue resolves a function-valued expression to the nodes it
// may invoke: a literal, a named function or method (also as a method
// value), or a variable/field via the package's bindings. ok is false
// when the expression may hold values the engine cannot see.
func (e *Engine) ResolveValue(expr ast.Expr) (nodes []*FuncNode, ok bool) {
	expr = ast.Unparen(expr)
	if lit, isLit := expr.(*ast.FuncLit); isLit {
		if n := e.byLit[lit]; n != nil {
			return []*FuncNode{n}, true
		}
		return nil, false
	}
	if obj := usedObject(e.pass.TypesInfo, expr); obj != nil {
		switch o := obj.(type) {
		case *types.Func:
			if n := e.byObj[o]; n != nil {
				return []*FuncNode{n}, true
			}
			return nil, false
		case *types.Var:
			if e.opaque[o] {
				return nil, false
			}
			bs := e.bindings[o]
			if len(bs) == 0 {
				return nil, false
			}
			for _, b := range bs {
				switch {
				case b.lit != nil:
					if n := e.byLit[b.lit]; n != nil {
						nodes = append(nodes, n)
					} else {
						return nil, false
					}
				case b.fn != nil:
					if n := e.byObj[b.fn]; n != nil {
						nodes = append(nodes, n)
					} else {
						return nil, false
					}
				}
			}
			return nodes, true
		}
	}
	return nil, false
}

// FormatChain renders a fact's call chain as "name (file:line) → ..."
// hops, empty string for local facts.
func (e *Engine) FormatChain(f *Fact) string {
	if len(f.Chain) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range f.Chain {
		if i > 0 {
			b.WriteString(" → ")
		}
		fmt.Fprintf(&b, "%s (%s)", s.Callee, e.shortPos(s.Pos))
	}
	return b.String()
}

// ChainStrings renders the chain one hop per element, for the JSON
// diagnostic stream.
func (e *Engine) ChainStrings(f *Fact) []string {
	out := make([]string, 0, len(f.Chain))
	for _, s := range f.Chain {
		out = append(out, fmt.Sprintf("%s (%s)", s.Callee, e.shortPos(s.Pos)))
	}
	return out
}

// shortPos renders pos as base-filename:line.
func (e *Engine) shortPos(pos token.Pos) string {
	p := e.pass.Fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// FileOf returns the parsed file containing pos, or nil.
func (e *Engine) FileOf(pos token.Pos) *ast.File {
	for _, f := range e.pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Indexing

func (e *Engine) index() {
	for _, file := range e.pass.Files {
		f := file
		ast.Inspect(file, func(node ast.Node) bool {
			switch d := node.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					return false
				}
				obj, _ := e.pass.TypesInfo.Defs[d.Name].(*types.Func)
				n := &FuncNode{
					Obj:  obj,
					Name: declName(d, obj),
					File: f,
					body: d.Body,
					pos:  d.Pos(),
					end:  d.End(),
				}
				if d.Recv != nil && len(d.Recv.List) == 1 && len(d.Recv.List[0].Names) == 1 {
					n.recv, _ = e.pass.TypesInfo.Defs[d.Recv.List[0].Names[0]].(*types.Var)
				}
				n.params = e.paramVars(d.Type)
				if obj != nil {
					e.byObj[obj] = n
				}
				e.all = append(e.all, n)
			case *ast.FuncLit:
				n := &FuncNode{
					Lit:    d,
					Name:   "func literal",
					File:   f,
					body:   d.Body,
					pos:    d.Pos(),
					end:    d.End(),
					params: e.paramVars(d.Type),
				}
				e.byLit[d] = n
				e.all = append(e.all, n)
			}
			return true
		})
	}
	for _, n := range e.all {
		if n.Lit != nil {
			n.Name = "func literal at " + e.shortPos(n.pos)
		}
		n.facts = make(map[factKey]*Fact)
		n.prov = make(map[*types.Var]rootSet)
	}
}

func (e *Engine) paramVars(ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			v, _ := e.pass.TypesInfo.Defs[name].(*types.Var)
			out = append(out, v)
		}
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter keeps the index
		}
	}
	return out
}

func declName(d *ast.FuncDecl, obj *types.Func) string {
	if d.Recv == nil || obj == nil {
		return d.Name.Name
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s%s).%s", star, named.Obj().Name(), d.Name.Name)
		}
	}
	return d.Name.Name
}

// ---------------------------------------------------------------------------
// Variable classification and provenance

// classifyVar classifies v relative to n, ignoring local provenance.
func (e *Engine) classifyVar(n *FuncNode, v *types.Var) roots {
	if v == nil {
		return roots{unknown: true}
	}
	if v == n.recv {
		return roots{recv: true}
	}
	for i, p := range n.params {
		if p != nil && p == v {
			r := roots{}
			r.addParam(i)
			return r
		}
	}
	if v.Parent() == e.pass.Pkg.Scope() {
		return roots{global: true}
	}
	if n.pos <= v.Pos() && v.Pos() <= n.end {
		return localRoots()
	}
	return roots{captured: true}
}

// provenance computes, flow-insensitively, which roots each local
// variable of n may alias, by joining the classes of every value ever
// assigned to it. Iterates to a fixpoint because locals feed locals.
func (e *Engine) provenance(n *FuncNode) {
	type asg struct {
		v   *types.Var
		rhs ast.Expr
	}
	var asgs []asg
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || rhs == nil {
			return
		}
		v := identVar(e.pass.TypesInfo, id)
		if v == nil || !e.classifyVar(n, v).local {
			return
		}
		asgs = append(asgs, asg{v, rhs})
	}
	inspectOwn(n, func(node ast.Node) {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if len(s.Rhs) == len(s.Lhs) {
					record(lhs, s.Rhs[i])
				} else if len(s.Rhs) == 1 {
					record(lhs, s.Rhs[0]) // multi-value: join the call class
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if len(s.Values) == len(s.Names) {
					record(name, s.Values[i])
				} else if len(s.Values) == 1 {
					record(name, s.Values[0])
				}
			}
		case *ast.RangeStmt:
			// Range vars over an external container alias it (map
			// values don't, but slices of pointers do — join, stay
			// conservative).
			cls := e.exprClass(n, s.X)
			for _, lhs := range []ast.Expr{s.Key, s.Value} {
				if lhs == nil {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v := identVar(e.pass.TypesInfo, id); v != nil && e.classifyVar(n, v).local {
						rs := n.prov[v]
						rs.write.union(cls.hold)
						rs.hold.union(cls.hold)
						n.prov[v] = rs
					}
				}
			}
		}
	})
	for iter := 0; iter < len(asgs)+2; iter++ {
		changed := false
		for _, a := range asgs {
			cls := e.exprClass(n, a.rhs)
			rs := n.prov[a.v]
			if rs.write.union(cls.write) {
				changed = true
			}
			if rs.hold.union(cls.hold) {
				changed = true
			}
			n.prov[a.v] = rs
		}
		if !changed {
			break
		}
	}
}

// exprClass computes the provenance classes of one value expression.
func (e *Engine) exprClass(n *FuncNode, expr ast.Expr) rootSet {
	expr = ast.Unparen(expr)
	switch x := expr.(type) {
	case *ast.Ident:
		v := identVar(e.pass.TypesInfo, x)
		if v == nil {
			// A named function, constant, or nil: fresh.
			return rootSet{write: localRoots(), hold: localRoots()}
		}
		base := e.classifyVar(n, v)
		if base.local {
			rs := n.prov[v]
			rs.write.union(localRoots())
			rs.hold.union(localRoots())
			return rs
		}
		return rootSet{write: base, hold: base}
	case *ast.SelectorExpr:
		// Package-qualified name?
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := e.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				if _, isFn := e.pass.TypesInfo.Uses[x.Sel].(*types.Func); isFn {
					return rootSet{write: localRoots(), hold: localRoots()}
				}
				g := roots{global: true}
				return rootSet{write: g, hold: g}
			}
		}
		if _, isFn := e.pass.TypesInfo.Uses[x.Sel].(*types.Func); isFn {
			// Method value: holds its receiver.
			inner := e.exprClass(n, x.X)
			inner.write = localRoots()
			return inner
		}
		return e.exprClass(n, x.X)
	case *ast.StarExpr:
		return e.exprClass(n, x.X)
	case *ast.IndexExpr:
		return e.exprClass(n, x.X)
	case *ast.SliceExpr:
		return e.exprClass(n, x.X)
	case *ast.TypeAssertExpr:
		return e.exprClass(n, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return e.exprClass(n, x.X)
		}
		if x.Op == token.ARROW {
			u := roots{unknown: true}
			return rootSet{write: u, hold: u}
		}
		return rootSet{write: localRoots(), hold: localRoots()}
	case *ast.CompositeLit:
		// Fresh memory that may hold references to its elements.
		rs := rootSet{write: localRoots(), hold: localRoots()}
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			rs.hold.union(e.exprClass(n, el).hold)
		}
		return rs
	case *ast.CallExpr:
		// Conversions keep the operand's class; make/new are fresh;
		// other call results are of unknown provenance.
		if len(x.Args) == 1 {
			if _, isType := e.pass.TypesInfo.Types[x.Fun]; isType && e.pass.TypesInfo.Types[x.Fun].IsType() {
				return e.exprClass(n, x.Args[0])
			}
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, isB := e.pass.TypesInfo.Uses[id].(*types.Builtin); isB {
				switch b.Name() {
				case "make", "new", "len", "cap", "min", "max":
					return rootSet{write: localRoots(), hold: localRoots()}
				case "append":
					// The result aliases the first argument's backing
					// and holds the appended elements.
					rs := rootSet{write: localRoots(), hold: localRoots()}
					for _, a := range x.Args {
						rs.write.union(e.exprClass(n, a).write)
						rs.hold.union(e.exprClass(n, a).hold)
					}
					return rs
				}
			}
		}
		u := roots{unknown: true}
		return rootSet{write: u, hold: u}
	case *ast.FuncLit:
		// A closure value holds whatever it captures; calling it is
		// handled through the call graph.
		return rootSet{write: localRoots(), hold: localRoots()}
	case *ast.BasicLit:
		return rootSet{write: localRoots(), hold: localRoots()}
	case *ast.BinaryExpr:
		return rootSet{write: localRoots(), hold: localRoots()}
	}
	u := roots{unknown: true}
	return rootSet{write: u, hold: u}
}

// writeRoots classifies an assignable expression: which roots a write
// through it mutates. Value-typed access descends (writing a field of
// a local struct writes the local); reference crossings consult
// provenance.
func (e *Engine) writeRoots(n *FuncNode, expr ast.Expr) roots {
	expr = ast.Unparen(expr)
	switch x := expr.(type) {
	case *ast.Ident:
		v := identVar(e.pass.TypesInfo, x)
		if v == nil {
			return roots{unknown: true}
		}
		// Rebinding a variable mutates the variable itself.
		return e.classifyVar(n, v)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := e.pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
				return roots{global: true}
			}
		}
		t := e.pass.TypesInfo.TypeOf(x.X)
		if t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return e.exprClass(n, x.X).write
			}
		}
		return e.writeRoots(n, x.X)
	case *ast.StarExpr:
		return e.exprClass(n, x.X).write
	case *ast.IndexExpr:
		t := e.pass.TypesInfo.TypeOf(x.X)
		if t != nil {
			switch t.Underlying().(type) {
			case *types.Array:
				return e.writeRoots(n, x.X)
			}
		}
		return e.exprClass(n, x.X).write
	}
	return roots{unknown: true}
}

// ---------------------------------------------------------------------------
// Local-effect and call-site collection

// inspectOwn walks n's body without descending into nested function
// literals (each literal is its own node).
func inspectOwn(n *FuncNode, visit func(ast.Node)) {
	ast.Inspect(n.body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit.Body != n.body {
			return false
		}
		if node != nil {
			visit(node)
		}
		return true
	})
}

func (e *Engine) collect(n *FuncNode) {
	inspectOwn(n, func(node ast.Node) {
		switch s := node.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				e.recordWrite(n, lhs)
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				}
				if rhs != nil {
					e.recordBinding(lhs, rhs)
					e.recordEscapeStore(n, lhs, rhs)
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					e.recordBinding(name, s.Values[i])
					e.recordEscapeStore(n, name, s.Values[i])
				}
			}
		case *ast.IncDecStmt:
			e.recordWrite(n, s.X)
		case *ast.SendStmt:
			e.addFact(n, &Fact{Kind: ChanOp, Pos: s.Arrow, Detail: "send on " + render(s.Chan)})
			e.escapeHeld(n, s.Value, s.Arrow, "sent on channel "+render(s.Chan))
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				e.addFact(n, &Fact{Kind: ChanOp, Pos: s.Pos(), Detail: "receive from " + render(s.X)})
			}
		case *ast.GoStmt:
			e.addFact(n, &Fact{Kind: SpawnGoroutine, Pos: s.Pos(), Detail: "go statement"})
			e.recordCall(n, s.Call, "go ")
		case *ast.DeferStmt:
			e.recordCall(n, s.Call, "defer ")
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				e.escapeHeld(n, res, s.Pos(), "returned to caller")
			}
		case *ast.CompositeLit:
			e.recordCompositeBindings(s)
		case *ast.CallExpr:
			e.recordCall(n, s, "")
		case *ast.RangeStmt:
			if t := e.pass.TypesInfo.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					e.addFact(n, &Fact{Kind: ChanOp, Pos: s.Pos(), Detail: "range over channel " + render(s.X)})
				}
			}
		}
	})
}

// recordWrite classifies one assignment target and emits mutation
// facts for its external roots.
func (e *Engine) recordWrite(n *FuncNode, lhs ast.Expr) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	r := e.writeRoots(n, lhs)
	e.emitMutation(n, r, lhs.Pos(), "assignment to "+render(lhs), lhs)
}

// emitMutation maps a root set to mutation facts at pos.
func (e *Engine) emitMutation(n *FuncNode, r roots, pos token.Pos, detail string, lhs ast.Expr) {
	if r.recv {
		e.addFact(n, &Fact{Kind: MutateReceiver, Param: -1, Pos: pos, Detail: detail})
	}
	for _, p := range r.params {
		e.addFact(n, &Fact{Kind: MutateParam, Param: p, Pos: pos, Detail: detail})
	}
	if r.captured {
		f := &Fact{Kind: MutateCaptured, Pos: pos, Detail: detail}
		if lhs != nil {
			f.target = capturedTarget(e, n, lhs)
		}
		e.addFact(n, f)
	}
	if r.global {
		e.addFact(n, &Fact{Kind: MutateGlobal, Pos: pos, Detail: detail})
	}
	if r.unknown {
		e.addFact(n, &Fact{Kind: MutateAlias, Pos: pos, Detail: detail})
	}
}

// capturedTarget digs out the base variable of a captured write so the
// fact can be re-classified in the capturing function.
func capturedTarget(e *Engine, n *FuncNode, expr ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if v := identVar(e.pass.TypesInfo, x); v != nil {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.SliceExpr:
			expr = x.X
		default:
			return nil
		}
	}
}

// escapeHeld emits EscapeArg facts when expr may hold the receiver or
// a parameter.
func (e *Engine) escapeHeld(n *FuncNode, expr ast.Expr, pos token.Pos, how string) {
	cls := e.exprClass(n, expr)
	if cls.hold.recv {
		e.addFact(n, &Fact{Kind: EscapeArg, Param: -1, Pos: pos, Detail: "receiver " + how})
	}
	for _, p := range cls.hold.params {
		name := "parameter"
		if p < len(n.params) && n.params[p] != nil {
			name = n.params[p].Name()
		}
		e.addFact(n, &Fact{Kind: EscapeArg, Param: p, Pos: pos, Detail: name + " " + how})
	}
}

// recordEscapeStore emits EscapeArg facts when rhs (holding a param or
// the receiver) is stored through an external target.
func (e *Engine) recordEscapeStore(n *FuncNode, lhs, rhs ast.Expr) {
	if !e.writeRoots(n, lhs).external() {
		return
	}
	e.escapeHeld(n, rhs, rhs.Pos(), "stored into "+render(lhs))
}

// recordBinding registers func-valued assignments for later call
// resolution through variables and struct fields.
func (e *Engine) recordBinding(lhs, rhs ast.Expr) {
	obj := e.bindTarget(lhs)
	if obj == nil {
		return
	}
	if t := obj.Type(); t == nil {
		return
	} else if _, isSig := t.Underlying().(*types.Signature); !isSig {
		return
	}
	e.addBinding(obj, rhs)
}

func (e *Engine) addBinding(obj types.Object, rhs ast.Expr) {
	rhs = ast.Unparen(rhs)
	switch v := rhs.(type) {
	case *ast.FuncLit:
		e.bindings[obj] = append(e.bindings[obj], binding{lit: v, pos: rhs.Pos()})
		return
	case *ast.Ident:
		if fn, ok := e.pass.TypesInfo.Uses[v].(*types.Func); ok {
			e.bindings[obj] = append(e.bindings[obj], binding{fn: fn, pos: rhs.Pos()})
			return
		}
		if v.Name == "nil" {
			return // nil binding never invoked without a crash
		}
	case *ast.SelectorExpr:
		if fn, ok := e.pass.TypesInfo.Uses[v.Sel].(*types.Func); ok {
			e.bindings[obj] = append(e.bindings[obj], binding{fn: fn, pos: rhs.Pos()})
			return
		}
	}
	e.opaque[obj] = true
}

// bindTarget resolves the variable or struct-field object a binding
// assignment targets. The explicit nil checks avoid wrapping a nil
// *types.Var into a non-nil types.Object.
func (e *Engine) bindTarget(lhs ast.Expr) types.Object {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v := identVar(e.pass.TypesInfo, x); v != nil {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := e.pass.TypesInfo.Selections[x]; ok && sel.Obj() != nil {
			return sel.Obj()
		}
		if v := identVar(e.pass.TypesInfo, x.Sel); v != nil {
			return v
		}
	}
	return nil
}

// recordCompositeBindings registers func-typed fields bound in struct
// literals, keyed and positional.
func (e *Engine) recordCompositeBindings(lit *ast.CompositeLit) {
	t := e.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range lit.Elts {
		var field *types.Var
		var value ast.Expr
		if kv, isKV := el.(*ast.KeyValueExpr); isKV {
			if id, isID := kv.Key.(*ast.Ident); isID {
				field, _ = e.pass.TypesInfo.Uses[id].(*types.Var)
			}
			value = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
			value = el
		}
		if field == nil || value == nil {
			continue
		}
		if _, isSig := field.Type().Underlying().(*types.Signature); !isSig {
			continue
		}
		e.addBinding(field, value)
	}
}

// ---------------------------------------------------------------------------
// Call resolution

func (e *Engine) recordCall(n *FuncNode, call *ast.CallExpr, prefix string) {
	fun := ast.Unparen(call.Fun)

	// Type conversion, not a call.
	if tv, ok := e.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, isB := e.pass.TypesInfo.Uses[id].(*types.Builtin); isB {
			e.recordBuiltin(n, b.Name(), call)
			return
		}
	}

	cs := &callsite{pos: call.Pos(), desc: prefix + render(call.Fun)}
	for _, a := range call.Args {
		cs.argCls = append(cs.argCls, e.exprClass(n, a))
	}

	// Direct function literal call: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		cs.calleeLit = lit
		n.calls = append(n.calls, cs)
		return
	}

	obj := usedObject(e.pass.TypesInfo, fun)
	switch o := obj.(type) {
	case *types.Func:
		sig, _ := o.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				e.addFact(n, &Fact{Kind: CallUnknown, Pos: call.Pos(),
					Detail: "interface dispatch " + render(call.Fun) + " — conservatively impure"})
				return
			}
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				cs.recvCls = e.exprClass(n, sel.X)
			} else {
				cs.recvCls = rootSet{write: roots{unknown: true}, hold: roots{unknown: true}}
			}
		}
		if o.Pkg() == e.pass.Pkg {
			cs.callee = o
			n.calls = append(n.calls, cs)
			return
		}
		e.recordExternal(n, o, call, cs)
		return
	case *types.Var:
		// Call through a func-typed value.
		if e.classifyVar(n, o).external() && e.bindings[o] == nil {
			// A func parameter or captured callback with no visible
			// binding: unknown code.
			e.addFact(n, &Fact{Kind: CallUnknown, Pos: call.Pos(),
				Detail: "call through function value " + render(call.Fun) + " with no visible binding"})
			return
		}
		if e.opaque[o] || len(e.bindings[o]) == 0 {
			e.addFact(n, &Fact{Kind: CallUnknown, Pos: call.Pos(),
				Detail: "call through function value " + render(call.Fun) + " bound to unresolvable code"})
			return
		}
		cs.bindingKey = o
		cs.viaValue = true
		n.calls = append(n.calls, cs)
		return
	}
	e.addFact(n, &Fact{Kind: CallUnknown, Pos: call.Pos(),
		Detail: "unresolvable call " + render(call.Fun)})
}

func (e *Engine) recordBuiltin(n *FuncNode, name string, call *ast.CallExpr) {
	switch name {
	case "append", "copy":
		if len(call.Args) > 0 {
			r := e.exprClass(n, call.Args[0]).write
			r.local = false
			e.emitMutation(n, r, call.Pos(), name+" may write through "+render(call.Args[0]), call.Args[0])
		}
	case "delete", "clear":
		if len(call.Args) > 0 {
			r := e.exprClass(n, call.Args[0]).write
			r.local = false
			e.emitMutation(n, r, call.Pos(), name+" on "+render(call.Args[0]), call.Args[0])
		}
	case "close":
		e.addFact(n, &Fact{Kind: ChanOp, Pos: call.Pos(), Detail: "close of " + render(call.Args[0])})
	case "print", "println":
		e.addFact(n, &Fact{Kind: CallUnknown, Pos: call.Pos(), Detail: name + " builtin writes to stderr"})
	}
	// len, cap, make, new, min, max, real, imag, complex, panic,
	// recover: no tracked effect. A panicking pure hook fails loudly
	// without corrupting a cast, which the §10 contract permits.
}

// bannedTime lists the time-package functions that read or schedule
// against the wall clock — shared with detlint so the two passes
// cannot drift.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// allowedRand lists the math/rand constructors that build seeded,
// reproducible generators.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// BannedTime reports whether time.name is a wall-clock read.
func BannedTime(name string) bool { return bannedTime[name] }

// AllowedRand reports whether rand.name is a seeded constructor.
func AllowedRand(name string) bool { return allowedRand[name] }

// purePkgs are stdlib packages whose package-level functions neither
// mutate their arguments nor touch ambient state.
var purePkgs = map[string]bool{
	"strings": true, "strconv": true, "math": true, "math/bits": true,
	"unicode": true, "unicode/utf8": true, "bytes": true, "errors": true,
	"hash/crc32": true, "hash/crc64": true, "hash/fnv": true,
	"encoding/hex": true, "encoding/base64": true,
}

// pureFuncs are individually audited cross-package functions.
var pureFuncs = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "sort.SearchInts": true, "sort.SearchStrings": true,
}

// recordExternal classifies a call into another package.
func (e *Engine) recordExternal(n *FuncNode, fn *types.Func, call *ast.CallExpr, cs *callsite) {
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error and friends from the universe scope: pure
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	if e.opts.KnownPure[fn.FullName()] {
		return
	}

	switch pkg.Path() {
	case "time":
		if !isMethod {
			if bannedTime[fn.Name()] {
				e.addFact(n, &Fact{Kind: Wallclock, Pos: call.Pos(), Detail: "time." + fn.Name()})
			}
			return // Duration/Time constructors and arithmetic: pure
		}
		recv := sig.Recv().Type()
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			return // time.Time / time.Duration value methods: pure
		}
		// (*Timer).Reset and friends re-arm wall-clock timers.
		e.addFact(n, &Fact{Kind: Wallclock, Pos: call.Pos(), Detail: "(*time." + recvTypeName(recv) + ")." + fn.Name()})
		return
	case "math/rand", "math/rand/v2":
		if !isMethod {
			if !allowedRand[fn.Name()] {
				e.addFact(n, &Fact{Kind: GlobalRand, Pos: call.Pos(), Detail: "rand." + fn.Name()})
			}
			return
		}
		// Methods on a seeded *rand.Rand are deterministic, but they
		// advance generator state the caller shares.
		e.addFact(n, &Fact{Kind: MutateAlias, Pos: call.Pos(),
			Detail: "advances shared *rand.Rand state via " + render(call.Fun)})
		return
	case "encoding/binary":
		name := fn.Name()
		if strings.HasPrefix(name, "Put") || strings.HasPrefix(name, "Append") ||
			name == "Encode" || name == "Read" || name == "Decode" || name == "Write" {
			if len(call.Args) > 0 {
				r := e.exprClass(n, call.Args[0]).write
				r.local = false
				e.emitMutation(n, r, call.Pos(), "binary."+name+" writes into "+render(call.Args[0]), call.Args[0])
			}
			return
		}
		return // Uint16/32/64, Size, byte-order readers: pure
	case "sync", "sync/atomic":
		e.addFact(n, &Fact{Kind: MutateAlias, Pos: call.Pos(),
			Detail: render(call.Fun) + " mutates synchronization state"})
		return
	}
	if !isMethod && (purePkgs[pkg.Path()] || pureFuncs[pkg.Path()+"."+fn.Name()]) {
		return
	}
	e.addFact(n, &Fact{Kind: CallUnknown, Pos: call.Pos(),
		Detail: "call into " + pkg.Path() + " (" + render(call.Fun) + ") not known to be pure"})
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Fixpoint

// fixpoint resolves binding edges, finds SCCs, and propagates callee
// facts into callers until stable.
func (e *Engine) fixpoint() {
	edges := make(map[*FuncNode][]*FuncNode)
	for _, n := range e.all {
		for _, cs := range n.calls {
			for _, t := range e.calleeNodes(cs) {
				edges[n] = append(edges[n], t)
			}
		}
	}
	order := tarjan(e.all, edges)
	// tarjan yields SCCs in reverse topological order (callees before
	// callers), so one pass per SCC plus an inner fixpoint suffices.
	for _, comp := range order {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if e.lift(n) {
					changed = true
				}
			}
			if len(comp) == 1 {
				break // no self-recursion possible without a self-edge revisit
			}
		}
	}
}

// calleeNodes resolves a call site's target nodes.
func (e *Engine) calleeNodes(cs *callsite) []*FuncNode {
	switch {
	case cs.callee != nil:
		if n := e.byObj[cs.callee]; n != nil {
			return []*FuncNode{n}
		}
	case cs.calleeLit != nil:
		if n := e.byLit[cs.calleeLit]; n != nil {
			return []*FuncNode{n}
		}
	case cs.bindingKey != nil:
		var out []*FuncNode
		for _, b := range e.bindings[cs.bindingKey] {
			switch {
			case b.lit != nil:
				if n := e.byLit[b.lit]; n != nil {
					out = append(out, n)
				}
			case b.fn != nil:
				if n := e.byObj[b.fn]; n != nil {
					out = append(out, n)
				} else if b.fn.Pkg() != e.pass.Pkg {
					// Bound to a cross-package function: classify it
					// as if called directly at the binding site.
					outNode := &FuncNode{facts: map[factKey]*Fact{}}
					e.recordExternal(outNode, b.fn, &ast.CallExpr{Fun: &ast.Ident{Name: b.fn.Name(), NamePos: b.pos}}, nil)
					out = append(out, outNode)
				}
			}
		}
		return out
	}
	return nil
}

// lift pulls each callee's facts into n, mapping parameter-relative
// effects through the frozen argument classes. Reports whether n's
// fact set grew.
func (e *Engine) lift(n *FuncNode) bool {
	changed := false
	for _, cs := range n.calls {
		for _, callee := range e.calleeNodes(cs) {
			for _, f := range callee.facts {
				for _, lifted := range e.liftFact(n, cs, callee, f) {
					if e.addFact(n, lifted) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// liftFact maps one callee fact through one call site.
func (e *Engine) liftFact(n *FuncNode, cs *callsite, callee *FuncNode, f *Fact) []*Fact {
	step := Step{Pos: cs.pos, Callee: callee.Name}
	if callee.Name == "" {
		step.Callee = cs.desc
	}
	chain := append([]Step{step}, f.Chain...)
	mk := func(kind Kind, param int, detail string) *Fact {
		return &Fact{Kind: kind, Param: param, Pos: f.Pos, Detail: detail, Chain: chain}
	}
	var out []*Fact
	switch f.Kind {
	case MutateReceiver:
		if cs.viaValue {
			out = append(out, mk(MutateAlias, 0, f.Detail+" (through bound receiver)"))
			break
		}
		out = append(out, e.mapRoots(cs.recvCls.write, f, chain)...)
	case MutateParam:
		if f.Param >= 0 && f.Param < len(cs.argCls) {
			out = append(out, e.mapRoots(cs.argCls[f.Param].write, f, chain)...)
		} else if len(cs.argCls) > 0 {
			// Variadic or mismatched shape: conservative.
			out = append(out, mk(MutateAlias, 0, f.Detail))
		}
	case MutateCaptured:
		// If the callee is a literal nested in n, the captured target
		// may be n's own local — re-classify.
		if f.target != nil {
			if v, ok := f.target.(*types.Var); ok {
				r := e.classifyVar(n, v)
				if r.local {
					rs := n.prov[v]
					if !rs.write.external() {
						break // mutation confined to n's locals
					}
				}
				out = append(out, e.mapRoots(r, f, chain)...)
				break
			}
		}
		out = append(out, mk(MutateCaptured, 0, f.Detail))
	case EscapeArg:
		var cls rootSet
		switch {
		case f.Param == -1:
			cls = cs.recvCls
		case f.Param >= 0 && f.Param < len(cs.argCls):
			cls = cs.argCls[f.Param]
		}
		if cls.hold.recv {
			out = append(out, mk(EscapeArg, -1, f.Detail))
		}
		for _, p := range cls.hold.params {
			out = append(out, mk(EscapeArg, p, f.Detail))
		}
	default:
		// MutateGlobal, MutateAlias, CallUnknown, SpawnGoroutine,
		// ChanOp, Wallclock, GlobalRand lift verbatim.
		out = append(out, mk(f.Kind, f.Param, f.Detail))
	}
	return out
}

// mapRoots converts a callee-relative root set into caller facts.
func (e *Engine) mapRoots(r roots, f *Fact, chain []Step) []*Fact {
	var out []*Fact
	mk := func(kind Kind, param int) *Fact {
		return &Fact{Kind: kind, Param: param, Pos: f.Pos, Detail: f.Detail, Chain: chain}
	}
	if r.recv {
		out = append(out, mk(MutateReceiver, -1))
	}
	for _, p := range r.params {
		out = append(out, mk(MutateParam, p))
	}
	if r.captured {
		out = append(out, mk(MutateCaptured, 0))
	}
	if r.global {
		out = append(out, mk(MutateGlobal, 0))
	}
	if r.unknown {
		out = append(out, mk(MutateAlias, 0))
	}
	return out
}

// addFact inserts f unless an equivalent fact exists. Reports growth.
func (e *Engine) addFact(n *FuncNode, f *Fact) bool {
	key := factKey{kind: f.Kind, param: f.Param, pos: f.Pos}
	if _, ok := n.facts[key]; ok {
		return false
	}
	if len(f.Chain) > 12 {
		f.Chain = f.Chain[:12] // depth cap; display stays bounded
	}
	n.facts[key] = f
	return true
}

// ---------------------------------------------------------------------------
// Tarjan SCC (iterative result order: callees before callers)

func tarjan(nodes []*FuncNode, edges map[*FuncNode][]*FuncNode) [][]*FuncNode {
	var (
		idx   = 1
		stack []*FuncNode
		out   [][]*FuncNode
	)
	var strongconnect func(n *FuncNode)
	strongconnect = func(n *FuncNode) {
		n.index, n.lowlink = idx, idx
		idx++
		stack = append(stack, n)
		n.onStack = true
		for _, m := range edges[n] {
			if m.index == 0 {
				if m.facts == nil {
					continue // synthetic external node
				}
				strongconnect(m)
				if m.lowlink < n.lowlink {
					n.lowlink = m.lowlink
				}
			} else if m.onStack && m.index < n.lowlink {
				n.lowlink = m.index
			}
		}
		if n.lowlink == n.index {
			var comp []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			out = append(out, comp)
		}
	}
	for _, n := range nodes {
		if n.index == 0 {
			strongconnect(n)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Small helpers

func identVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

func usedObject(info *types.Info, expr ast.Expr) types.Object {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

func render(expr ast.Expr) string { return types.ExprString(expr) }
