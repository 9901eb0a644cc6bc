package core

import (
	"fmt"
	"sync"

	"horus/internal/message"
)

// Endpoint models the communicating entity (paper §3): it has an
// address, can send and receive messages, and carries one protocol
// stack per joined group. A process may own multiple endpoints, each
// with its own stacks.
//
// All protocol execution for an endpoint happens on its event queue
// (see executor), giving the run-to-completion semantics of the
// paper's event-queue model: layers never see concurrent invocations.
type Endpoint struct {
	id        EndpointID
	transport Transport
	exec      executor

	mu        sync.Mutex // guards groups, destroyed and malformed
	groups    map[GroupAddr]*Group
	destroyed bool
	malformed int

	trace func(format string, args ...interface{})

	// wireTap observes every transmission before it reaches the
	// transport, with the bytes the transport is handed, which nothing
	// writes again (Context.Transmit). Read on the event queue per
	// transmission; set it before traffic flows, or from within Do.
	wireTap func(dests []EndpointID, wire []byte)
}

// NewEndpoint creates an endpoint with the given identity on top of a
// transport. This is the endpoint downcall of Table 1.
func NewEndpoint(id EndpointID, t Transport) *Endpoint {
	return &Endpoint{
		id:        id,
		transport: t,
		groups:    make(map[GroupAddr]*Group),
	}
}

// ID returns the endpoint's address.
func (e *Endpoint) ID() EndpointID { return e.id }

// SetTrace installs a trace hook receiving layer diagnostics. Pass nil
// to disable.
func (e *Endpoint) SetTrace(fn func(format string, args ...interface{})) { e.trace = fn }

// SetWireTap installs a hook observing every outgoing wire image with
// its destination set. The wire slice is the image the transport is
// handed and never changes after: a tap may keep it, and must not
// write it. Pass nil to disable.
func (e *Endpoint) SetWireTap(fn func(dests []EndpointID, wire []byte)) { e.wireTap = fn }

func (e *Endpoint) tracef(format string, args ...interface{}) {
	if e.trace != nil {
		e.trace(format, args...)
	}
}

// Join composes the given protocol stack for a group address and
// returns the group handle; this is the join downcall of Table 1.
// Upcalls emerging from the stack are passed to h. Layers begin work
// (e.g. a membership layer installs its initial singleton view and
// starts discovery) via zero-delay timers they arm during Init, so the
// first upcalls arrive only after Join returns control to the event
// queue.
func (e *Endpoint) Join(addr GroupAddr, spec StackSpec, h Handler) (*Group, error) {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: join %q: endpoint destroyed", e.id, addr)
	}
	if _, dup := e.groups[addr]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: already joined group %q", e.id, addr)
	}
	e.mu.Unlock()

	g := &Group{addr: addr, ep: e, handler: h}
	// Stack construction runs on the endpoint's event queue: layers
	// arm timers during Init, and on wall-clock transports a zero-delay
	// timer callback could otherwise run concurrently with the rest of
	// the initialization.
	var initErr error
	e.exec.Do(func() {
		var stack *Stack
		stack, initErr = newStack(g, spec)
		g.stack = stack // assigned on the queue: visible to queued work
	})
	if initErr != nil {
		return nil, fmt.Errorf("endpoint %s: join %q: %w", e.id, addr, initErr)
	}

	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: join %q: endpoint destroyed", e.id, addr)
	}
	if _, dup := e.groups[addr]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: already joined group %q", e.id, addr)
	}
	e.groups[addr] = g
	e.mu.Unlock()
	if reg, ok := e.transport.(GroupRegistrar); ok {
		reg.JoinGroup(e.id, addr)
	}
	return g, nil
}

// Deliver is called by the transport when wire bytes arrive for this
// endpoint. Packets for groups this endpoint has not joined are
// dropped, which lets transports broadcast on a shared medium.
//
// Ownership of wire passes to the endpoint: the transport must not
// touch the buffer again, though it may hand the same buffer to every
// destination of one Send, because nothing above ever writes to it.
// The message the stack sees is a view of wire (message.Unmarshal):
// received headers and bodies are read-only, a handler that wants to
// mutate a body copies it, and pushing onto a received message copies
// its headers first.
//
// The event and its message live in a record the endpoint reuses once
// the upcall returns (packet): a layer that keeps either past its call
// parks the event (Queue), and a handler holds it (Group.Hold). A layer
// that keeps only the message copies its value instead, and passes it
// up later in a record of the same kind (Context.UpParked), as NAK does
// with what arrives beyond a gap. The wire bytes are not reused, so a
// body or header slice may be kept without either.
func (e *Endpoint) Deliver(group GroupAddr, wire []byte) {
	e.mu.Lock()
	g := e.groups[group]
	e.mu.Unlock()
	if g == nil {
		return
	}
	// The record is taken and queued under the one lock the queue
	// costs anyway.
	x := &e.exec
	x.mu.Lock()
	p := x.newPacket()
	if err := p.msg.Attach(wire); err != nil {
		// A garbled length prefix: indistinguishable from line noise,
		// dropped exactly like a checksum failure would be. Attach
		// left the record as it was.
		x.recycle(p)
		x.mu.Unlock()
		return
	}
	p.ev.Type, p.ev.Msg, p.g = UPacket, &p.msg, g
	x.push(p)
}

// packet is one received packet on its way up a stack: event, message
// and group in a single record that is also the executor's queue entry.
// Once its upcall returns the record goes back to the endpoint, marked
// spent, for a later arrival, unless something held it while it ran: a
// layer that parks the event (TOTAL's unordered casts, MBRSHIP
// future-view data) or a handler that keeps it. A held packet is left
// to the garbage collector. A message a layer parked by value goes up
// in a record lent from the same list (Context.UpParked), which is
// never queued, so its group is not set; it goes back, or is held, by
// the same rule.
type packet struct {
	ev   Event
	msg  message.Message
	g    *Group
	held bool
}

// run implements runner.
func (p *packet) run() {
	defer func() {
		// A garbled packet can corrupt a length prefix deep in a
		// header, making a layer pop past the end of the message.
		// That is line damage, not a program bug: drop the packet
		// like any other loss (NAK repairs it) and count it. A
		// CHKSUM layer placed low in the stack makes this path
		// statistically unreachable, which is exactly the paper's
		// §2 argument for that layer. Any other panic is a bug in a
		// layer and goes on up.
		r := recover()
		if r == nil {
			return
		}
		if _, short := r.(message.ShortRead); !short {
			panic(r)
		}
		e := p.g.ep
		e.mu.Lock()
		e.malformed++
		e.mu.Unlock()
		e.tracef("endpoint %s: malformed packet dropped: %v", e.id, r)
	}()
	p.g.ep.exec.cur = p
	p.g.stack.Up(&p.ev)
}

// Malformed returns how many inbound packets were dropped because a
// layer could not parse them (garbled in flight): a read past the end
// of their headers, message.ShortRead.
func (e *Endpoint) Malformed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.malformed
}

// Group returns the handle for a joined group, or nil.
func (e *Endpoint) Group(addr GroupAddr) *Group {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.groups[addr]
}

// Destroy tears down every group stack and marks the endpoint dead;
// this is the destroy downcall of Table 1. Each stack receives a
// destroy downcall, which its layers pass through (their timers stop
// with the stack, see Timer), then its handler receives
// DESTROY and EXIT upcalls.
func (e *Endpoint) Destroy() {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return
	}
	e.destroyed = true
	gs := make([]*Group, 0, len(e.groups))
	for _, g := range e.groups {
		gs = append(gs, g)
	}
	e.mu.Unlock()

	for _, g := range gs {
		g.close(true)
	}
}

// Do runs fn on the endpoint's event queue. Tests and tools use this
// to interact with stacks with run-to-completion semantics.
func (e *Endpoint) Do(fn func()) { e.exec.Do(fn) }
