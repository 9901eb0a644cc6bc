package core

import (
	"strings"

	"horus/internal/message"
)

// Group is the purely local group object of paper §3: it holds the
// per-endpoint state for one joined group — the group address, the
// current view as this member sees it, and the protocol stack. The
// "group" (the distributed set of members) exists only as the
// collection of such objects agreeing through the stacked protocols.
type Group struct {
	addr    GroupAddr
	ep      *Endpoint
	stack   *Stack
	handler Handler

	view   *View // last VIEW upcall seen at the top of the stack
	closed bool
}

// Addr returns the group address.
func (g *Group) Addr() GroupAddr { return g.addr }

// Endpoint returns the owning endpoint.
func (g *Group) Endpoint() *Endpoint { return g.ep }

// View returns the current view as last reported by a VIEW upcall, or
// nil before the first view installs. The returned view must be
// treated as immutable.
func (g *Group) View() *View { return g.view }

// Cast multicasts msg to the current view (Table 1 cast downcall). The
// message belongs to the stack from the call on, as an event's message
// belongs to the layer it is handed to (Layer.Down): the layers push
// their headers onto it and may keep it, so the caller neither reads
// nor casts it again. The body stays the caller's, under the rule
// message.New states.
func (g *Group) Cast(msg *message.Message) {
	g.down(Event{Type: DCast, Msg: msg})
}

// Send sends msg to a subset of the view (Table 1 send downcall). The
// message belongs to the stack from the call on, as with Cast.
func (g *Group) Send(dests []EndpointID, msg *message.Message) {
	g.down(Event{Type: DSend, Msg: msg, Dests: dests})
}

// Ack informs the stack that the application has processed the message
// identified by id (Table 1 ack downcall; end-to-end stability, §9).
func (g *Group) Ack(id MsgID) {
	g.down(Event{Type: DAck, ID: id})
}

// Stable informs the stack that the message identified by id is stable
// and may be garbage-collected (Table 1 stable downcall).
func (g *Group) Stable(id MsgID) {
	g.down(Event{Type: DStable, ID: id})
}

// Flush asks the membership machinery to remove the given failed
// members and flush the view (Table 1 flush downcall).
func (g *Group) Flush(failed []EndpointID) {
	g.down(Event{Type: DFlush, Failed: failed})
}

// FlushOK consents to an in-progress flush (Table 1 flush_ok
// downcall). Membership layers that auto-consent make this optional.
func (g *Group) FlushOK() {
	g.down(Event{Type: DFlushOK})
}

// Merge asks the stack to merge this member's view with the view
// reachable at contact (Table 1 merge downcall).
func (g *Group) Merge(contact EndpointID) {
	g.down(Event{Type: DMerge, Contact: contact})
}

// MergeGranted grants a previously reported MERGE_REQUEST from contact.
func (g *Group) MergeGranted(contact EndpointID) {
	g.down(Event{Type: DMergeGranted, Contact: contact})
}

// MergeDenied denies a previously reported MERGE_REQUEST from contact.
func (g *Group) MergeDenied(contact EndpointID, reason string) {
	g.down(Event{Type: DMergeDenied, Contact: contact, Reason: reason})
}

// InstallView feeds an externally decided view down the stack (Table 1
// view downcall), e.g. from an external membership service (§5).
func (g *Group) InstallView(v *View) {
	g.down(Event{Type: DView, View: v})
}

// Leave announces departure to the group and closes the stack (Table 1
// leave downcall).
func (g *Group) Leave() {
	g.ep.exec.Do(func() {
		if g.closed {
			return
		}
		g.stack.Down(&Event{Type: DLeave})
	})
	g.close(false)
}

// Dump collects one diagnostic line per layer (Table 1 dump downcall).
func (g *Group) Dump() string {
	var out string
	g.ep.exec.Do(func() {
		ev := &Event{Type: DDump}
		g.stack.Down(ev)
		out = strings.Join(ev.Dump, "\n")
	})
	return out
}

// Focus returns a handle on the named layer instance in this group's
// stack, or nil (Table 1 focus downcall).
func (g *Group) Focus(layerName string) Layer { return g.stack.Focus(layerName) }

// Stack exposes the composed stack (read-only uses: Names, Len).
func (g *Group) Stack() *Stack { return g.stack }

// down enqueues a downcall on the endpoint's event queue. A message
// that carries no headers yet — message.New's has no header storage
// until its first push — gets the record's room as its headroom.
func (g *Group) down(ev Event) {
	d := &downcall{ev: ev, g: g}
	if m := ev.Msg; m != nil && m.HeaderLen() == 0 {
		m.AttachHeadroom(d.room[:])
	}
	g.ep.exec.enqueue(d)
}

// downcall is one Table 1 downcall on its way into a stack: the event,
// its group and room for its message's headers in a single record that
// is also the executor's queue entry, the mirror of packet on the
// receive side and of send on the layers' and, like them, left to the
// garbage collector because a layer may park the event. The room holds
// the waist's cast header (NAK's 9 bytes and COM's 22 for a short site
// name) and fills the record's 288-byte size class (TestRecordSizes); a
// message whose headers outgrow it moves them once, as any message's.
type downcall struct {
	ev   Event
	g    *Group
	room [32]byte
}

// run implements runner.
func (d *downcall) run() {
	if d.g.closed {
		return
	}
	d.g.stack.Down(&d.ev)
}

// deliver receives events emerging from the top of the stack, updates
// the group object's cached state, and invokes the application handler.
func (g *Group) deliver(ev *Event) {
	if ev.Type == UView && ev.View != nil {
		g.view = ev.View
	}
	if g.handler != nil {
		g.handler(ev)
	}
}

// close tears down the stack. If destroy is true the stack first
// receives a destroy downcall; the handler then sees DESTROY and EXIT.
func (g *Group) close(destroy bool) {
	g.ep.exec.Do(func() {
		if g.closed {
			return
		}
		g.closed = true
		if destroy {
			g.stack.Down(&Event{Type: DDestroy})
		}
		g.stack.destroyed = true
		g.deliver(&Event{Type: UDestroy})
		g.deliver(&Event{Type: UExit})
	})
	g.ep.mu.Lock()
	delete(g.ep.groups, g.addr)
	g.ep.mu.Unlock()
	if reg, ok := g.ep.transport.(GroupRegistrar); ok {
		reg.LeaveGroup(g.ep.id, g.addr)
	}
}
