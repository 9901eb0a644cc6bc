// Package summary is the interprocedural backbone of detlint's
// laundering sweep: a bottom-up summary engine over one type-checked
// package unit. For every function, method, and function literal it
// computes which wall-clock and global-rand reads the function may
// reach. Summaries propagate through a type-resolved call graph by
// fixpoint over its strongly connected components, so a read three
// helper-calls deep surfaces on the entry point with the full call
// chain attached.
//
// Resolution is deliberately shallow where it runs out:
//
//   - Interface dispatch is never devirtualized; a call through an
//     interface method contributes nothing.
//   - Calls through func-typed values (locals, struct fields, method
//     values) resolve against every function or literal the package
//     ever binds to that variable or field.
//   - Cross-package calls contribute only the time and math/rand reads
//     named by BannedTime and AllowedRand.
//   - defer and go run the callee's reads like any other call.
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
	// Wallclock: a banned time-package read (time.Now, time.Sleep, ...).
	Wallclock Kind = iota
	// GlobalRand: a draw from the process-global math/rand source.
	GlobalRand
)

var kindNames = [...]string{"wall-clock read", "global rand draw"}

func (k Kind) String() string { return kindNames[k] }

// Step is one call-chain hop: the call site and the callee's printable
// name.
type Step struct {
	Pos    token.Pos
	Callee string
}

// Fact is one effect in a function's summary. Pos is the originating
// expression; Chain, outermost call first, is how the summarized
// function reaches it (empty for a local effect).
type Fact struct {
	Kind   Kind
	Pos    token.Pos
	Detail string
	Chain  []Step
}

// factKey dedups facts during the fixpoint: one fact per effect kind
// and origin.
type factKey struct {
	kind Kind
	pos  token.Pos
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

	body  *ast.BlockStmt
	pos   token.Pos
	facts map[factKey]*Fact
	calls []*callsite

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
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

// callsite is one resolved-enough call inside a function body.
type callsite struct {
	pos  token.Pos
	desc string // printable callee for chains

	// Exactly one of callee / calleeLit / bindingKey is set: a direct
	// intra-package edge, or a func-typed variable or field whose bound
	// values are resolved after collection.
	callee     *types.Func
	calleeLit  *ast.FuncLit
	bindingKey types.Object
}

// binding is one value assigned to a func-typed variable or field.
type binding struct {
	fn  *types.Func  // named function or method value target
	lit *ast.FuncLit // literal bound directly
	pos token.Pos
}

// Engine holds the summaries of one package unit.
type Engine struct {
	pass *analysis.Pass

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	all   []*FuncNode

	// bindings maps func-typed variables and struct fields to every
	// function or literal the package binds to them.
	bindings map[types.Object][]binding
}

// Build indexes the pass's functions, collects local effects and call
// sites, and runs the SCC fixpoint. The pass is not mutated.
func Build(pass *analysis.Pass) *Engine {
	e := &Engine{
		pass:     pass,
		byObj:    make(map[*types.Func]*FuncNode),
		byLit:    make(map[*ast.FuncLit]*FuncNode),
		bindings: make(map[types.Object][]binding),
	}
	e.index()
	for _, n := range e.all {
		e.collect(n)
	}
	e.fixpoint()
	return e
}

// FuncNode returns the node of a declared function or method, or nil.
func (e *Engine) FuncNode(obj *types.Func) *FuncNode { return e.byObj[obj] }

// Nodes returns every indexed function in file order.
func (e *Engine) Nodes() []*FuncNode { return e.all }

// FormatChain renders a fact's call chain as "name (file:line) → ..."
// hops, empty string for local facts.
func (e *Engine) FormatChain(f *Fact) string {
	return strings.Join(e.ChainStrings(f), " → ")
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
				n := &FuncNode{Obj: obj, Name: declName(d, obj), File: f, body: d.Body, pos: d.Pos()}
				if obj != nil {
					e.byObj[obj] = n
				}
				e.all = append(e.all, n)
			case *ast.FuncLit:
				n := &FuncNode{Lit: d, File: f, body: d.Body, pos: d.Pos()}
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
	}
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
// Call-site and binding collection

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
			if len(s.Rhs) == len(s.Lhs) {
				for i, lhs := range s.Lhs {
					e.recordBinding(lhs, s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					e.recordBinding(name, s.Values[i])
				}
			}
		case *ast.GoStmt:
			e.recordCall(n, s.Call, "go ")
		case *ast.DeferStmt:
			e.recordCall(n, s.Call, "defer ")
		case *ast.CompositeLit:
			e.recordCompositeBindings(s)
		case *ast.CallExpr:
			e.recordCall(n, s, "")
		}
	})
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

// addBinding records rhs as a value of obj when it names a function or
// is a literal; any other value cannot be followed and is skipped.
func (e *Engine) addBinding(obj types.Object, rhs ast.Expr) {
	rhs = ast.Unparen(rhs)
	switch v := rhs.(type) {
	case *ast.FuncLit:
		e.bindings[obj] = append(e.bindings[obj], binding{lit: v, pos: rhs.Pos()})
	case *ast.Ident:
		if fn, ok := e.pass.TypesInfo.Uses[v].(*types.Func); ok {
			e.bindings[obj] = append(e.bindings[obj], binding{fn: fn, pos: rhs.Pos()})
		}
	case *ast.SelectorExpr:
		if fn, ok := e.pass.TypesInfo.Uses[v.Sel].(*types.Func); ok {
			e.bindings[obj] = append(e.bindings[obj], binding{fn: fn, pos: rhs.Pos()})
		}
	}
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

	cs := &callsite{pos: call.Pos(), desc: prefix + render(call.Fun)}

	// Direct function literal call: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		cs.calleeLit = lit
		n.calls = append(n.calls, cs)
		return
	}

	switch o := usedObject(e.pass.TypesInfo, fun).(type) {
	case *types.Func:
		sig, _ := o.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			return // interface dispatch is not followed
		}
		if o.Pkg() == e.pass.Pkg {
			cs.callee = o
			n.calls = append(n.calls, cs)
			return
		}
		e.recordExternal(n, o, call.Pos())
	case *types.Var:
		// Call through a func-typed value.
		cs.bindingKey = o
		n.calls = append(n.calls, cs)
	}
}

// bannedTime lists the time-package functions that read or schedule
// against the wall clock. detlint's selector check and this engine
// share it, so the two passes cannot drift.
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

// BannedTime reports whether time.name is a wall-clock read.
func BannedTime(name string) bool { return bannedTime[name] }

// AllowedRand reports whether rand.name is a seeded constructor.
func AllowedRand(name string) bool { return allowedRand[name] }

// recordExternal records the wall-clock or global-rand read a call
// into another package makes at pos, if any.
func (e *Engine) recordExternal(n *FuncNode, fn *types.Func, pos token.Pos) {
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error and friends from the universe scope
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	switch pkg.Path() {
	case "time":
		if !isMethod {
			if bannedTime[fn.Name()] {
				e.addFact(n, &Fact{Kind: Wallclock, Pos: pos, Detail: "time." + fn.Name()})
			}
			return // Duration/Time constructors and arithmetic
		}
		recv := sig.Recv().Type()
		if _, isPtr := recv.(*types.Pointer); !isPtr {
			return // time.Time / time.Duration value methods
		}
		// (*Timer).Reset and friends re-arm wall-clock timers.
		e.addFact(n, &Fact{Kind: Wallclock, Pos: pos, Detail: "(*time." + recvTypeName(recv) + ")." + fn.Name()})
	case "math/rand", "math/rand/v2":
		// Methods on a seeded *rand.Rand are deterministic.
		if !isMethod && !allowedRand[fn.Name()] {
			e.addFact(n, &Fact{Kind: GlobalRand, Pos: pos, Detail: "rand." + fn.Name()})
		}
	}
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
			edges[n] = append(edges[n], e.calleeNodes(cs)...)
		}
	}
	// tarjan yields SCCs in reverse topological order (callees before
	// callers), so one pass per SCC plus an inner fixpoint suffices.
	for _, comp := range tarjan(e.all, edges) {
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
					ext := &FuncNode{facts: map[factKey]*Fact{}}
					e.recordExternal(ext, b.fn, b.pos)
					out = append(out, ext)
				}
			}
		}
		return out
	}
	return nil
}

// lift pulls each callee's facts into n, one chain hop longer. Reports
// whether n's fact set grew.
func (e *Engine) lift(n *FuncNode) bool {
	changed := false
	for _, cs := range n.calls {
		for _, callee := range e.calleeNodes(cs) {
			step := Step{Pos: cs.pos, Callee: callee.Name}
			if callee.Name == "" {
				step.Callee = cs.desc
			}
			for _, f := range callee.facts {
				lifted := &Fact{Kind: f.Kind, Pos: f.Pos, Detail: f.Detail,
					Chain: append([]Step{step}, f.Chain...)}
				if e.addFact(n, lifted) {
					changed = true
				}
			}
		}
	}
	return changed
}

// addFact inserts f unless an equivalent fact exists. Reports growth.
func (e *Engine) addFact(n *FuncNode, f *Fact) bool {
	key := factKey{kind: f.Kind, pos: f.Pos}
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
// Tarjan SCC (result order: callees before callers)

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
