// Package hcpilint flags violations of the Horus Common Protocol
// Interface discipline in layer and service code — the two shapes
// behind the historical merge-path deadlocks and header corruption:
//
//   - Callback while locked: invoking an upcall (a method on a layer
//     Context) or any func-typed value (subscriber, handler field,
//     registered source) while a sync.Mutex/RWMutex is held. The
//     callee may re-enter the locking object — the classic
//     callback-while-locked deadlock. The repo-wide contract is copy
//     under lock, call after unlock (see failure.Service.Report).
//   - Header traffic against the forwarding direction: on a single
//     path, pushing a header onto a message and then forwarding the
//     event up (the pushed header escapes to the layer above or the
//     application), or popping headers and then forwarding the event
//     down or transmitting it (a header the peer expects has been
//     consumed). Down paths push, up paths pop; a path that does both
//     is unbalanced.
//   - An event kept other than through a Queue: a method that keeps
//     its *Event parameter (or the parameter's Msg) past the call —
//     appends it to a field's slice, assigns it to a field or a map,
//     passes it to a reorder Buffer's Put, or captures it in a func
//     literal that it stores or hands to a timer or the event queue.
//     The same holds for a send a function builds (Context.NewSendTo,
//     Context.NewDowncall), kept through the local it is assigned to
//     or stored as it is built. A layer keeps an event only by parking
//     it (core.Queue.Put, core.OrderedQueue.Put), which holds the
//     received packet's record, or the send's; kept any other way, it
//     is read later as a spent record. A copy of the message (*ev.Msg),
//     as NAK parks, is no keep.
//
// The analysis is flow-sensitive but deliberately conservative: locks
// and push/pop balances are tracked per textual expression ("s.mu",
// "ev.Msg"); across branches only facts true on every path survive,
// and branches that end in return or panic are treated as leaving the
// fall-through path untouched. That keeps false positives near zero
// at the cost of missing aliased or cross-function shapes. Func-typed
// values named with the repo's *Locked suffix (caller must hold the
// lock) are internal continuations, not callbacks, and are exempt. A
// finding that is genuinely intentional can carry a line-level
// "//horus:hcpi-ok — <reason>" marker.
package hcpilint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"horus/internal/analysis"
	"horus/internal/analysis/annot"
)

// Analyzer is the hcpilint pass.
var Analyzer = &analysis.Analyzer{
	Name: "hcpilint",
	Doc: "flag HCPI-discipline violations: upcalls/callbacks invoked " +
		"while a mutex is held, header push/pop flowing against the " +
		"event's forwarding direction, and events kept past the call " +
		"other than through a Queue",
	Run: run,
}

// suppressTag is the line-level opt-out marker.
const suppressTag = "hcpi-ok"

// scopePrefix limits the analyzer to the module's internal tree.
const scopePrefix = "horus/internal/"

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), scopePrefix) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		w := &walker{pass: pass, file: file}
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				w.events, w.sends = nil, nil
				if fn.Recv != nil {
					w.events = w.eventParams(fn.Type)
				}
				w.walkFunc(fn.Body)
				return false // walkFunc handles nested FuncLits itself
			}
			return true
		})
	}
	return nil
}

// state is the per-path abstract state.
type state struct {
	held map[string]token.Pos // lock expr -> position of the Lock call
	net  map[string]int       // message expr -> pushes minus pops
}

func newState() *state {
	return &state{held: map[string]token.Pos{}, net: map[string]int{}}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k, v := range s.net {
		c.net[k] = v
	}
	return c
}

// intersect keeps only facts present (and, for balances, equal) in
// both states — the merge rule that makes branch joins conservative.
func (s *state) intersect(o *state) {
	for k := range s.held {
		if _, ok := o.held[k]; !ok {
			delete(s.held, k)
		}
	}
	for k, v := range s.net {
		if ov, ok := o.net[k]; !ok || ov != v {
			delete(s.net, k)
		}
	}
}

type walker struct {
	pass *analysis.Pass
	file *ast.File
	// events are the *Event parameters of the method being walked, and
	// sends the locals it assigned a send it built (sendCall); a func
	// literal inside it starts with none (its capture is judged where
	// the literal is stored or handed on).
	events []*types.Var
	sends  []*types.Var
}

// walkFunc analyzes one function body with a fresh state (a FuncLit
// body is its own execution context — it runs later, not inline).
func (w *walker) walkFunc(body *ast.BlockStmt) {
	w.walkStmts(body.List, newState())
}

// walkStmts walks a statement list, updating st, and reports whether
// the list definitely terminates (returns or panics).
func (w *walker) walkStmts(stmts []ast.Stmt, st *state) bool {
	for _, stmt := range stmts {
		if w.walkStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (w *walker) walkStmt(stmt ast.Stmt, st *state) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		w.scanExprs(st, s.Results...)
		return true
	case *ast.ExprStmt:
		w.scanExprs(st, s.X)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanic(w.pass, call) {
			return true
		}
	case *ast.AssignStmt:
		w.scanExprs(st, s.Rhs...)
		w.scanExprs(st, s.Lhs...)
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				if w.isStore(lhs) {
					w.checkKept(s.Rhs[i], "stored in "+types.ExprString(lhs))
				}
				w.noteSend(lhs, s.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.scanExprs(st, vs.Values...)
					for i, name := range vs.Names {
						if len(vs.Values) == len(vs.Names) {
							w.noteSend(name, vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.scanExprs(st, s.X)
	case *ast.SendStmt:
		w.scanExprs(st, s.Chan, s.Value)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held for the rest of the
		// body — that is exactly the point of tracking it. Deferred
		// closures run at return, outside this path; skip them.
		if fn, recv, ok := w.lockMethod(s.Call); ok && (fn == "Unlock" || fn == "RUnlock") {
			_ = recv // the lock stays in st.held
		}
	case *ast.GoStmt:
		// The goroutine body runs elsewhere; detlint owns bare-go
		// findings. Scan nested FuncLits as separate contexts.
		w.scanExprs(st, s.Call.Fun)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExprs(st, s.Cond)
		thenSt := st.clone()
		thenTerm := w.walkStmts(s.Body.List, thenSt)
		if s.Else == nil {
			if !thenTerm {
				st.intersect(thenSt)
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := w.walkStmt(s.Else, elseSt)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.intersect(elseSt)
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.walkBranches(stmt, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExprs(st, s.Cond)
		}
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			w.walkStmt(s.Post, bodySt)
		}
		st.intersect(bodySt) // the body may run zero times
	case *ast.RangeStmt:
		w.scanExprs(st, s.X)
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		st.intersect(bodySt)
	}
	return false
}

// walkBranches handles switch/type-switch/select: each clause starts
// from the pre-state; the post-state is the intersection of every
// non-terminating clause plus, without a default, the pre-state.
func (w *walker) walkBranches(stmt ast.Stmt, st *state) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExprs(st, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var after []*state
	for _, clause := range clauses {
		var body []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			w.scanExprs(st, c.List...)
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				w.walkStmt(c.Comm, st)
			}
			body = c.Body
		}
		cs := st.clone()
		if !w.walkStmts(body, cs) {
			after = append(after, cs)
		}
	}
	if !hasDefault {
		after = append(after, st.clone())
	}
	if len(after) == 0 {
		return // every path terminated; fall-through is unreachable
	}
	*st = *after[0]
	for _, o := range after[1:] {
		st.intersect(o)
	}
}

// scanExprs processes the calls inside expressions in evaluation
// order, updating lock and header state and reporting violations.
func (w *walker) scanExprs(st *state, exprs ...ast.Expr) {
	for _, expr := range exprs {
		if expr == nil {
			continue
		}
		ast.Inspect(expr, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				events, sends := w.events, w.sends
				w.events, w.sends = nil, nil
				w.walkFunc(n.Body) // separate execution context
				w.events, w.sends = events, sends
				return false
			case *ast.CallExpr:
				// Arguments evaluate before the call itself.
				for _, arg := range n.Args {
					w.scanExprs(st, arg)
				}
				w.scanExprs(st, n.Fun)
				w.handleCall(st, n)
				return false
			}
			return true
		})
	}
}

// handleCall classifies one call against the tracked state.
func (w *walker) handleCall(st *state, call *ast.CallExpr) {
	w.keepCall(call)
	if name, recv, ok := w.lockMethod(call); ok {
		switch name {
		case "Lock", "RLock":
			st.held[recv] = call.Pos()
		case "Unlock", "RUnlock":
			delete(st.held, recv)
		}
		return
	}
	if target, delta, ok := w.headerOp(call); ok {
		st.net[target] += delta
		return
	}
	if name, arg, ok := w.contextForward(call); ok {
		w.checkLocked(st, call, "upcall Context."+name)
		msg := arg + ".Msg"
		if name == "Transmit" {
			msg = arg // Transmit takes the message itself
		}
		switch {
		case name == "Up" && st.net[msg] > 0:
			w.report(call.Pos(), "header pushed onto %s on this path is forwarded up by Context.Up — "+
				"pushes belong to the down path; the layer above will read your header as its own", msg)
		case (name == "Down" || name == "Transmit") && st.net[msg] < 0:
			w.report(call.Pos(), "header popped from %s on this path is forwarded down by Context.%s — "+
				"pops belong to the up path; the peer will miss the consumed header", msg, name)
		}
		delete(st.net, msg) // the event has been handed off
		return
	}
	// A call through a func-typed value (field, parameter, local,
	// subscriber slice element) is an arbitrary callback — unless its
	// name ends in "Locked", the repo-wide marker for "caller must
	// hold the lock" (transmitLocked, departLocked, ...): such a value
	// is an internal continuation, not an escape to foreign code.
	if w.isFuncValueCall(call) && !isLockedName(call) {
		w.checkLocked(st, call, "callback "+types.ExprString(call.Fun))
	}
}

// eventParams returns the parameters of a method typed *Event: a
// pointer to a type of that name (core.Event in real code, a stand-in
// in fixtures).
func (w *walker) eventParams(ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			v, ok := w.pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if _, ptr := v.Type().Underlying().(*types.Pointer); !ptr {
				continue
			}
			if named, ok := derefNamed(v.Type()); ok && named.Obj().Name() == "Event" {
				out = append(out, v)
			}
		}
	}
	return out
}

// eventParam returns the event parameter, or the local holding a built
// send, that e is — the variable itself or its Msg — or nil.
func (w *walker) eventParam(e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "Msg" {
		e = ast.Unparen(sel.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	for _, v := range slices.Concat(w.events, w.sends) {
		if w.pass.TypesInfo.Uses[id] == v {
			return v
		}
	}
	return nil
}

// sendCall reports whether e builds a send: a call of NewSendTo or
// NewDowncall on a type named Context (core.Context in real code, a
// stand-in in fixtures).
func (w *walker) sendCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewSendTo" && sel.Sel.Name != "NewDowncall" {
		return false
	}
	named, ok := derefNamed(w.pass.TypesInfo.TypeOf(sel.X))
	return ok && named.Obj().Name() == "Context"
}

// noteSend tracks the local lhs names when rhs builds a send into it.
func (w *walker) noteSend(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || !w.sendCall(rhs) {
		return
	}
	obj := w.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = w.pass.TypesInfo.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && !slices.Contains(w.sends, v) {
		w.sends = append(w.sends, v)
	}
}

// keptParam returns the event parameter that storing e keeps: e is the
// parameter or its Msg, an append of either, a composite literal that
// holds either, or a func literal that refers to the parameter.
func (w *walker) keptParam(e ast.Expr) *types.Var {
	if v := w.eventParam(e); v != nil {
		return v
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 1 {
			for _, arg := range e.Args[1:] {
				if v := w.keptParam(arg); v != nil {
					return v
				}
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.keptParam(e.X)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if v := w.keptParam(elt); v != nil {
				return v
			}
		}
	case *ast.FuncLit:
		var found *types.Var
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && found == nil {
				found = w.eventParam(id)
			}
			return found == nil
		})
		return found
	}
	return nil
}

// checkKept reports e, stored somewhere that outlives the call, when
// it keeps an event parameter or a built send, or is a send's building.
func (w *walker) checkKept(e ast.Expr, how string) {
	const sendWhy = "a send's record is reused once the run that built it ends"
	switch v := w.keptParam(e); {
	case w.sendCall(e):
		w.report(e.Pos(), "event built by %s is kept past the call (%s) other than through Queue.Put — %s",
			types.ExprString(ast.Unparen(e).(*ast.CallExpr).Fun), how, sendWhy)
	case v != nil && slices.Contains(w.sends, v):
		w.report(e.Pos(), "event %s is kept past the call (%s) other than through Queue.Put — %s", v.Name(), how, sendWhy)
	case v != nil:
		w.report(e.Pos(), "event %s is kept past the call (%s) other than through Queue.Put — "+
			"a received packet's record is reused once its upcall returns", v.Name(), how)
	}
}

// isStore reports whether assigning to lhs keeps the value past the
// call: a field, a map entry, or an element of a field's slice.
func (w *walker) isStore(lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel, ok := w.pass.TypesInfo.Selections[lhs]
		return ok && sel.Kind() == types.FieldVal
	case *ast.IndexExpr:
		if _, isMap := w.pass.TypesInfo.TypeOf(lhs.X).Underlying().(*types.Map); isMap {
			return true
		}
		return w.isStore(lhs.X)
	}
	return false
}

// keepCall checks the calls of the keep rule that keep an argument: a
// reorder Buffer's Put, and a func literal handed to a timer or the
// event queue.
func (w *walker) keepCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv, _ := derefNamed(w.pass.TypesInfo.TypeOf(sel.X))
	var recvName string
	if recv != nil {
		recvName = recv.Obj().Name()
	}
	switch name := sel.Sel.Name; {
	case name == "Put" && recvName == "Buffer":
		for _, arg := range call.Args {
			w.checkKept(arg, "held in a reorder buffer")
		}
	case name == "ArmTimer" || name == "SetTimer" || name == "AfterFunc" || name == "Do" && recvName == "Endpoint":
		for _, arg := range call.Args {
			if _, lit := ast.Unparen(arg).(*ast.FuncLit); lit {
				w.checkKept(arg, "captured by a func handed to "+name)
			}
		}
	}
}

// checkLocked reports if any lock is held at the call site.
func (w *walker) checkLocked(st *state, call *ast.CallExpr, what string) {
	for lock, pos := range st.held {
		w.report(call.Pos(),
			"%s invoked while %s is held (locked at %s) — release the lock first: "+
				"the callee may re-enter it (callback-while-locked deadlock)",
			what, lock, w.pass.Fset.Position(pos))
		return // one report per call is enough
	}
}

func (w *walker) report(pos token.Pos, format string, args ...interface{}) {
	if annot.LineMarker(w.pass.Fset, w.file, pos, suppressTag) {
		return
	}
	w.pass.Reportf(pos, format, args...)
}

// lockMethod matches x.Lock/Unlock/RLock/RUnlock on sync.Mutex or
// sync.RWMutex and returns the method name and the rendered lock
// expression.
func (w *walker) lockMethod(call *ast.CallExpr) (name, recv string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	if !isNamed(w.pass.TypesInfo.TypeOf(sel.X), "sync", "Mutex", "RWMutex") {
		return "", "", false
	}
	return sel.Sel.Name, types.ExprString(sel.X), true
}

// headerOp matches header pushes/pops: Push*/Pop* methods on
// *message.Message and Push*/Pop* functions (e.g. wire.PushEndpointID)
// whose first argument is a *message.Message. Returns the rendered
// message expression and +1 for push, -1 for pop.
func (w *walker) headerOp(call *ast.CallExpr) (target string, delta int, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", 0, false
	}
	name := sel.Sel.Name
	switch {
	case strings.HasPrefix(name, "Push"):
		delta = 1
	case strings.HasPrefix(name, "Pop"):
		delta = -1
	default:
		return "", 0, false
	}
	if isNamed(w.pass.TypesInfo.TypeOf(sel.X), "horus/internal/message", "Message") {
		return types.ExprString(sel.X), delta, true
	}
	if len(call.Args) > 0 &&
		isNamed(w.pass.TypesInfo.TypeOf(call.Args[0]), "horus/internal/message", "Message") {
		return types.ExprString(call.Args[0]), delta, true
	}
	return "", 0, false
}

// contextForward matches Up/Down/Transmit method calls on a type
// named Context (core.Context in real code, a stand-in in fixtures)
// and returns the method name and the rendered first argument.
func (w *walker) contextForward(call *ast.CallExpr) (name, arg string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Up", "Down":
		if len(call.Args) != 1 {
			return "", "", false
		}
	case "Transmit":
		if len(call.Args) != 2 {
			return "", "", false
		}
	default:
		return "", "", false
	}
	recv := w.pass.TypesInfo.TypeOf(sel.X)
	named, okNamed := derefNamed(recv)
	if !okNamed || named.Obj().Name() != "Context" {
		return "", "", false
	}
	argExpr := call.Args[0]
	if sel.Sel.Name == "Transmit" {
		argExpr = call.Args[1]
	}
	return sel.Sel.Name, types.ExprString(argExpr), true
}

// isFuncValueCall reports whether the call goes through a func-typed
// value rather than a declared function or method.
func (w *walker) isFuncValueCall(call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false // index expressions (subs[i](...)), etc.: skip
	}
	obj, ok := w.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	_, isSig := obj.Type().Underlying().(*types.Signature)
	return isSig
}

// isLockedName reports whether the called value's name carries the
// *Locked suffix convention.
func isLockedName(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.HasSuffix(fun.Name, "Locked")
	case *ast.SelectorExpr:
		return strings.HasSuffix(fun.Sel.Name, "Locked")
	}
	return false
}

// isPanic matches the builtin panic.
func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// derefNamed strips pointers and reports the named type, if any.
func derefNamed(t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// isNamed reports whether t (possibly behind one pointer) is one of
// the named types pkg.name.
func isNamed(t types.Type, pkg string, names ...string) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkg {
		return false
	}
	for _, n := range names {
		if named.Obj().Name() == n {
			return true
		}
	}
	return false
}
