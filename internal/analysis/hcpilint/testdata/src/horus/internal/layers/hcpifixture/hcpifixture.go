// Package hcpifixture is the hcpilint fixture: a pretend layer with a
// local Context stand-in and the real message type, exercising the
// callback-while-locked and header-direction rules in both their
// flagged and disciplined forms.
package hcpifixture

import (
	"sync"

	"horus/internal/message"
)

// Event mirrors the shape of core.Event: a message riding an upcall
// or downcall.
type Event struct {
	Msg *message.Message
}

// Context stands in for core.Context; hcpilint matches Up/Down/
// Transmit methods on any type of this name.
type Context struct{}

func (c *Context) Up(ev *Event)                             {}
func (c *Context) Down(ev *Event)                           {}
func (c *Context) Transmit(dests []int, m *message.Message) {}

// Layer is a handler object with the classic hazard ingredients: a
// mutex, an upcall context, and a registered callback.
type Layer struct {
	mu        sync.Mutex
	ctx       *Context
	onProblem func(string)
	subs      []func(string)
}

func lockedCallback(l *Layer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onProblem("down") // want `callback l\.onProblem invoked while l\.mu is held`
}

func lockedUpcall(l *Layer, ev *Event) {
	l.mu.Lock()
	l.ctx.Up(ev) // want `upcall Context\.Up invoked while l\.mu is held`
	l.mu.Unlock()
}

func lockedRangeCallback(l *Layer) {
	l.mu.Lock()
	for _, fn := range l.subs {
		fn("verdict") // want `callback fn invoked while l\.mu is held`
	}
	l.mu.Unlock()
}

// earlyUnlockReturn pins the branch logic: the early branch releases
// and returns, so the fall-through still holds the lock.
func earlyUnlockReturn(l *Layer, quiet bool) {
	l.mu.Lock()
	if quiet {
		l.mu.Unlock()
		return
	}
	l.onProblem("still locked") // want `callback l\.onProblem invoked while l\.mu is held`
	l.mu.Unlock()
}

// copyThenCall is the disciplined shape the repo uses everywhere:
// copy under the lock, call after releasing it.
func copyThenCall(l *Layer) {
	l.mu.Lock()
	subs := make([]func(string), len(l.subs))
	copy(subs, l.subs)
	l.mu.Unlock()
	for _, fn := range subs {
		fn("verdict")
	}
}

func pushThenUp(l *Layer, ev *Event) {
	ev.Msg.PushUint8(1)
	l.ctx.Up(ev) // want `header pushed onto ev\.Msg on this path is forwarded up`
}

func popThenDown(l *Layer, ev *Event) {
	_ = ev.Msg.PopUint8()
	l.ctx.Down(ev) // want `header popped from ev\.Msg on this path is forwarded down`
}

func popThenTransmit(l *Layer, ev *Event) {
	_ = ev.Msg.PopUint8()
	l.ctx.Transmit(nil, ev.Msg) // want `header popped from ev\.Msg on this path is forwarded down`
}

// downPathPush and upPathPop are the disciplined directions.
func downPathPush(l *Layer, ev *Event) {
	ev.Msg.PushUint8(1)
	ev.Msg.PushUint(42)
	l.ctx.Down(ev)
}

func upPathPop(l *Layer, ev *Event) {
	_ = ev.Msg.PopUint()
	_ = ev.Msg.PopUint8()
	l.ctx.Up(ev)
}

// pushPopBalanced peeks at its own header and restores it before
// forwarding up — balanced, so accepted.
func pushPopBalanced(l *Layer, ev *Event) {
	kind := ev.Msg.PopUint8()
	ev.Msg.PushUint8(kind)
	l.ctx.Up(ev)
}

// lockedContinuation follows the *Locked suffix convention: a
// func-typed value so named is an internal continuation whose
// contract is "caller holds the lock" — accepted, not a callback.
func lockedContinuation(l *Layer, fireLocked func()) {
	l.mu.Lock()
	fireLocked()
	l.mu.Unlock()
}

// suppressed documents an intentional exception.
func suppressed(l *Layer) {
	l.mu.Lock()
	l.onProblem("monitor") //horus:hcpi-ok — fixture: demonstrates the line-level opt-out
	l.mu.Unlock()
}
