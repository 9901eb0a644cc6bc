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
	// onto the message, send the same event further down, or keep it.
	// One it keeps past the call it parks in a Queue, whose Put holds
	// it, as for Up: a send a layer above built is lent for the run that
	// built it (Context.NewSendTo), and an application's cast or send
	// for its run once the transport was handed its message
	// (Group.Cast). A copy of the message (message.AttachClone) may be
	// kept without it. A caller that wants the event or the message
	// afterwards clones first (message.Clone, or AttachClone into
	// storage of its own).
	Down(ev *Event)
	// Up handles an event moving toward the application. The event and
	// its message are the callee's for the call: one it keeps past the
	// call it parks in a Queue or an OrderedQueue, whose Put holds it,
	// as a received packet's record is reused once its upcall returns.
	// Header and body bytes may be kept without it.
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
// (Cast, Ack, ...) freely — those are enqueued, not recursive. The event
// is the handler's for the call: a handler that keeps it, or its
// message, past the call holds it first (Group.Hold), or it reads as
// spent later; the bytes of its body may be kept without.
type Handler func(ev *Event)

// Context is a layer's window onto its position in a stack. It carries
// events to the adjacent layers, provides time (a layer's timers are
// Timer values bound to it) and identity, and — for the bottom layer
// only — access to the raw transport.
type Context struct {
	stack *Stack
	index int
}

// Down passes ev to the layer directly below, or absorbs it at the
// bottom of the stack; it panics on a spent record (Queue).
// Every event reaches every layer; a layer with nothing to do for a kind
// passes it on. What falls off a segment's bottom goes to its host. A
// message-bearing downcall falling off the bottom of an outer stack
// means the stack lacks a COM layer; it is reported as a SYSTEM_ERROR
// upcall rather than silently dropped.
func (c *Context) Down(ev *Event) {
	if ev.Type == spent {
		panic(spentPanic)
	}
	if j := c.index + 1; j < len(c.stack.layers) {
		c.stack.layers[j].Down(ev)
		return
	}
	if s := c.stack; s.bottom != nil {
		if !s.destroyed {
			s.bottom(ev)
		}
		return
	}
	if ev.Type == DCast || ev.Type == DSend {
		c.stack.deliverUp(&Event{
			Type:   USystemError,
			Detail: &Detail{Reason: "message downcall fell off the bottom of the stack (no COM layer?)"},
		})
	}
}

// Up passes ev to the layer directly above, or delivers it to the
// application handler (a segment: its host) at the top of the stack.
// It panics on a spent record (Queue).
func (c *Context) Up(ev *Event) {
	if ev.Type == spent {
		panic(spentPanic)
	}
	if j := c.index - 1; j >= 0 {
		c.stack.layers[j].Up(ev)
		return
	}
	c.stack.deliverUp(ev)
}

// UpParked passes up from this layer a message it parked by value: an
// upcall of type typ from src carrying a copy of *msg, in a receive
// record taken from the endpoint's spent ones (Deliver). While the
// upcall runs the record is the running packet, so a layer or handler
// above that keeps the event holds it as it would an arrival; when the
// upcall returns the record goes back unless one did, and a hold
// applies to the packet that was running before. A layer that parks
// what it reads of an arrival, rather than the arrival, delivers it
// with no allocation.
func (c *Context) UpParked(typ EventType, src EndpointID, msg *message.Message) {
	x := &c.stack.group.ep.exec
	x.mu.Lock()
	p := x.packets.take()
	x.mu.Unlock()
	p.ev.Type, p.ev.Source, p.ev.Msg, p.msg = typ, src, &p.msg, *msg
	outer := x.cur
	x.cur = p
	c.Up(&p.ev)
	x.cur = outer
	if !p.held {
		x.mu.Lock()
		x.recycle(p)
		x.mu.Unlock()
	}
}

// Transmit hands msg's wire image (message.Wire) to the transport,
// addressed to dests. Only the bottom (COM) layer calls this. Nothing
// writes the image again, so it passes to the transport for good, as
// Transport.Send states; it is rendered where the message lies when
// the message's storage holds it whole. The endpoint's wire tap, if any,
// observes every transmission here. Handing the transport the message
// of the application's downcall whose run is in progress lets that
// downcall's record go back when the run ends (downcall).
func (c *Context) Transmit(dests []EndpointID, msg *message.Message) {
	ep := c.stack.group.ep
	if d := ep.exec.down; d != nil && msg == &d.msg {
		d.sent = true
	}
	wire := msg.Wire()
	if ep.wireTap != nil {
		ep.wireTap(dests, wire)
	}
	ep.transport.Send(ep.id, c.stack.group.addr, dests, wire)
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

// Directory returns the endpoint's transport as a Directory, or nil if
// it names nothing: the names the wire package elides a site against
// when this stack sends, and resolves a bare birth against when it
// receives.
func (c *Context) Directory() Directory { return c.stack.group.ep.dir }

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
