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
	// transport. The wire slice is tx: taps that retain bytes must copy.
	// Read on the event queue per transmission; set it before traffic
	// flows, or from within Do.
	wireTap func(dests []EndpointID, wire []byte)

	// tx is the wire image of the transmission in progress
	// (Context.Transmit), reused from one to the next. Only the event
	// queue touches it.
	tx []byte
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
// its destination set. The wire slice aliases a reused buffer — copy to
// retain. Pass nil to disable.
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
func (e *Endpoint) Deliver(group GroupAddr, wire []byte) {
	e.mu.Lock()
	g := e.groups[group]
	e.mu.Unlock()
	if g == nil {
		return
	}
	// The packet's one allocation: event, message and group in a single
	// record that is also the executor's queue entry.
	p := &packet{g: g}
	if err := p.msg.Attach(wire); err != nil {
		// A garbled length prefix: indistinguishable from line noise,
		// dropped exactly like a checksum failure would be.
		return
	}
	p.ev.Type, p.ev.Msg = UPacket, &p.msg
	e.exec.enqueue(p)
}

// packet is one received packet on its way up a stack. It is owned by
// the garbage collector, not recycled: a layer may park the event (NAK
// out-of-order buffering, MBRSHIP future-view data) or keep the message
// for as long as it likes.
type packet struct {
	ev  Event
	msg message.Message
	g   *Group
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
// destroy downcall (so layers can cancel timers and say goodbye), then
// its handler receives DESTROY and EXIT upcalls.
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
