package core

import (
	"time"

	"horus/internal/message"
)

// Layer is the abstract data type at the heart of the paper: a
// protocol module with standardized top and bottom interfaces, so that
// layers "can be stacked on top of each other like LEGO blocks" at run
// time (paper §1, Figure 1).
//
// A layer instance is private to one (endpoint, group) pair — "although
// a single layer may be used concurrently by many groups and many
// endpoints in the same process, each instance has its own state"
// (paper §3). Instances are created by a Factory each time a stack is
// composed.
//
// Down receives events travelling from the application toward the
// network; Up receives events travelling from the network toward the
// application. A layer reacts to the event kinds it implements and
// passes everything else through via its Context. All invocations on
// one stack are serialized by the endpoint's event queue, so layer
// code needs no internal locking.
type Layer interface {
	// Name returns the layer's protocol name, e.g. "NAK".
	Name() string
	// Init is called once, after the stack is assembled and before any
	// event is delivered. The layer keeps c for passing events on.
	Init(c *Context) error
	// Down handles an event moving toward the network. The event and
	// its message belong to the callee from the call on: it may push
	// onto the message, send the same event further down, park it, or
	// keep either for as long as it likes. A caller that wants the event
	// or the message afterwards clones first (message.Clone, or
	// AttachClone into storage of its own).
	Down(ev *Event)
	// Up handles an event moving toward the application.
	Up(ev *Event)
}

// Factory creates a fresh layer instance for one (endpoint, group).
type Factory func() Layer

// StackSpec lists the layer factories of a stack, top first. The §7
// example stack TOTAL:MBRSHIP:FRAG:NAK:COM is written
//
//	StackSpec{total.New, mbrship.New, frag.New, nak.New, com.New}
type StackSpec []Factory

// Handler receives the upcalls that emerge from the top of a stack.
// It is the "top-most module that converts the Horus protocol
// abstraction into one matching the needs of a user" (paper §2).
// Handlers run on the endpoint's event queue; they may issue downcalls
// (Cast, Ack, ...) freely — those are enqueued, not recursive.
type Handler func(ev *Event)

// Context is a layer's window onto its position in a stack. It carries
// events to the adjacent layers, provides timers and identity, and —
// for the bottom layer only — access to the raw transport.
type Context struct {
	stack *Stack
	index int
	// sub is non-nil for a layer living inside a host-managed segment
	// (see SubStack): Down/Up route within the segment and timers stop
	// firing once the segment is detached. Everything else — identity,
	// transport, timers, tracing — is shared with the outer stack.
	sub *SubStack
}

// Down passes ev to the next layer below that acts on it (transparent
// layers are skipped via the precomputed tables, §10 item 1), or
// absorbs it at the bottom of the stack. A message-bearing downcall
// falling off the bottom means the stack lacks a COM layer; it is
// reported as a SYSTEM_ERROR upcall rather than silently dropped.
func (c *Context) Down(ev *Event) {
	if c.sub != nil {
		c.sub.down(c.index+1, ev)
		return
	}
	n := len(c.stack.layers)
	j := c.stack.skipNextDown(ev.Type, c.index+1, n)
	if j < n {
		c.stack.layers[j].Down(ev)
		return
	}
	switch ev.Type {
	case DCast, DSend:
		c.stack.deliverUp(&Event{
			Type:   USystemError,
			Reason: "message downcall fell off the bottom of the stack (no COM layer?)",
		})
	default:
		// Control downcalls are absorbed below the bottom layer.
	}
}

// Up passes ev to the next layer above that acts on it, or delivers it
// to the application handler at the top of the stack.
func (c *Context) Up(ev *Event) {
	if c.sub != nil {
		c.sub.up(c.index-1, ev)
		return
	}
	j := c.stack.skipNextUp(ev.Type, c.index-1)
	if j >= 0 {
		c.stack.layers[j].Up(ev)
		return
	}
	c.stack.deliverUp(ev)
}

// Transmit hands wire bytes for msg to the transport, addressed to
// dests. Only the bottom (COM) layer calls this. The wire image is
// rendered into a scratch buffer the endpoint reuses for every
// transmission — transmissions happen on the event queue, one at a
// time — so, per the Transport.Send contract, the transport must not
// retain it after the call returns. The endpoint's wire tap, if any,
// observes every transmission here.
func (c *Context) Transmit(dests []EndpointID, msg *message.Message) {
	ep := c.stack.group.ep
	ep.tx = msg.AppendWire(ep.tx[:0])
	if ep.wireTap != nil {
		ep.wireTap(dests, ep.tx)
	}
	ep.transport.Send(ep.id, c.stack.group.addr, dests, ep.tx)
}

// SetTimer schedules fn to run after d on the endpoint's event queue.
// The returned function cancels the timer; cancelling an expired timer
// is a no-op. Timers are silently inert after the stack is destroyed.
func (c *Context) SetTimer(d time.Duration, fn func()) (cancel func()) {
	ep := c.stack.group.ep
	stack := c.stack
	sub := c.sub
	return ep.transport.SetTimer(d, func() {
		ep.exec.Do(func() {
			if stack.destroyed || (sub != nil && sub.detached) {
				return
			}
			fn()
		})
	})
}

// Now returns the transport's current (possibly virtual) time.
func (c *Context) Now() time.Duration { return c.stack.group.ep.transport.Now() }

// EgressFeedback snapshots the local host's egress-congestion ledger
// when the transport meters egress (implements CongestionReporter).
// ok is false on transports without an egress model; adaptive layers
// must degrade to φ-only operation in that case.
func (c *Context) EgressFeedback() (EgressFeedback, bool) {
	ep := c.stack.group.ep
	if r, ok := ep.transport.(CongestionReporter); ok {
		return r.EgressFeedback(ep.id), true
	}
	return EgressFeedback{}, false
}

// Self returns the local endpoint's identifier.
func (c *Context) Self() EndpointID { return c.stack.group.ep.id }

// GroupAddr returns the address of the group this stack serves.
func (c *Context) GroupAddr() GroupAddr { return c.stack.group.addr }

// Tracef emits a trace record through the endpoint's trace hook, if
// one is installed. The TRACE layer and tests use this.
func (c *Context) Tracef(format string, args ...interface{}) {
	c.stack.group.ep.tracef(format, args...)
}

// Tracing reports whether a trace hook is installed. A Tracef call
// boxes its arguments whether or not anyone is listening, so a layer
// guards the calls it makes per message or per timer tick with it.
func (c *Context) Tracing() bool { return c.stack.group.ep.trace != nil }

// Base provides pass-through Down/Up and Context bookkeeping for
// layers to embed. A layer embedding Base overrides only the methods
// it cares about and forwards the rest with b.Ctx.Down / b.Ctx.Up.
type Base struct {
	Ctx *Context
}

// Init stores the context. Layers that embed Base and need their own
// Init must call b.Base.Init themselves.
func (b *Base) Init(c *Context) error {
	b.Ctx = c
	return nil
}

// Down passes ev through unchanged.
func (b *Base) Down(ev *Event) { b.Ctx.Down(ev) }

// Up passes ev through unchanged.
func (b *Base) Up(ev *Event) { b.Ctx.Up(ev) }
