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
	g.down(Event{Type: DFlush, Detail: &Detail{Failed: failed}})
}

// FlushOK consents to an in-progress flush (Table 1 flush_ok
// downcall). Membership layers that auto-consent make this optional.
func (g *Group) FlushOK() {
	g.down(Event{Type: DFlushOK})
}

// Merge asks the stack to merge this member's view with the view
// reachable at contact (Table 1 merge downcall).
func (g *Group) Merge(contact EndpointID) {
	g.down(Event{Type: DMerge, Detail: &Detail{Contact: contact}})
}

// MergeGranted grants a previously reported MERGE_REQUEST from contact.
func (g *Group) MergeGranted(contact EndpointID) {
	g.down(Event{Type: DMergeGranted, Detail: &Detail{Contact: contact}})
}

// MergeDenied denies a previously reported MERGE_REQUEST from contact.
func (g *Group) MergeDenied(contact EndpointID, reason string) {
	g.down(Event{Type: DMergeDenied, Detail: &Detail{Contact: contact, Reason: reason}})
}

// InstallView feeds an externally decided view down the stack (Table 1
// view downcall), e.g. from an external membership service (§5).
func (g *Group) InstallView(v *View) {
	g.down(Event{Type: DView, Detail: &Detail{View: v}})
}

// InstallView does at groups what an external membership service does
// for a static group (§5; property.ExternalViews): it builds the view
// of every group's endpoint, in the order given, under the first
// group's address and coordinated by its endpoint, issues it at each
// group through the view downcall, and returns it.
func InstallView(groups ...*Group) *View {
	ids := make([]EndpointID, len(groups))
	for i, g := range groups {
		ids[i] = g.ep.id
	}
	v := NewView(ViewID{Seq: 1, Coord: ids[0]}, groups[0].addr, ids)
	for _, g := range groups {
		g.InstallView(v)
	}
	return v
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
		ev := &Event{Type: DDump, Detail: &Detail{}}
		g.stack.Down(ev)
		out = strings.Join(ev.Dump, "\n")
	})
	return out
}

// Hold keeps an upcall's event and its message past an application
// handler's call, as Queue.Put does for a layer: the receive record is
// not reused (Deliver). It is a no-op for any other event.
func (g *Group) Hold(ev *Event) { g.ep.exec.hold(ev) }

// Focus returns a handle on the named layer instance in this group's
// stack, or nil (Table 1 focus downcall).
func (g *Group) Focus(layerName string) Layer { return g.stack.Focus(layerName) }

// Stack exposes the composed stack (read-only uses: Names, Len).
func (g *Group) Stack() *Stack { return g.stack }

// down enqueues a downcall on the endpoint's event queue in one record.
// A message that carries no headers yet — message.New's has no header
// storage until its first push — gets the record's room as its
// headroom, and a body that fits behind that room is copied there and
// frozen (message.AttachRecord): the record then holds the cast's whole
// wire image, which COM hands the transport where it lies
// (message.Wire), and the layers that keep the cast share the body
// instead of copying it. A larger body keeps the lazy copy a layer
// that retains the message makes (message.Clone), or that run makes
// when the downcall ends.
func (g *Group) down(ev Event) {
	var d *downcall
	switch m := ev.Msg; {
	case m == nil || m.HeaderLen() != 0:
		d = new(downcall)
	case len(m.Body()) <= len(downcallSmall{}.rec)-castRoom:
		r := new(downcallSmall)
		d = &r.downcall
		m.AttachRecord(r.rec[:], castRoom)
	default:
		r := new(downcallRoom)
		d = &r.downcall
		m.AttachHeadroom(r.rec[:])
	}
	d.ev, d.g = ev, g
	g.ep.exec.enqueue(d)
}

// downcall is one Table 1 downcall on its way into a stack: the event
// and its group in a single record that is also the executor's queue
// entry, the mirror of packet on the receive side and of send on the
// layers' and, like them, left to the garbage collector because a
// layer may park the event.
type downcall struct {
	ev Event
	g  *Group
}

// castRoom is the header room a cast's record gives its message: a
// benchmark cast's whole header stack, the waist's (about 12 bytes)
// and the §7 stack's (about 27), with the header length in front. A
// message whose headers outgrow it moves them once, as any message's,
// and is then rendered into a buffer of its own.
const castRoom = 32

// The records of a downcall that carries a message come in two sizes,
// each filling its allocator size class (TestRecordSizes): room and a
// body of up to 72 bytes (240), and, for a larger body, the room alone
// (176), so a cast too large to copy costs no more than its header
// room.
type (
	downcallSmall struct {
		downcall
		rec [castRoom + 72]byte
	}
	downcallRoom struct {
		downcall
		rec [castRoom]byte
	}
)

// run implements runner. Once the downcall has run, the application
// may reuse the body it cast (message.New), but a layer may have parked
// the event with its message: TOTAL waiting for the token, ADAPT's and
// NNAK's pacing queues, FC's window, MBRSHIP and SWITCH while a view
// changes. Freezing the message here gives any such layer a body of
// its own; a message the stack sent or retained is frozen already, and
// one a layer split is gone from the event (NewFragments), so this
// copies only for a parked one whose body the record did not take.
func (d *downcall) run() {
	if d.g.closed {
		return
	}
	d.g.stack.Down(&d.ev)
	if m := d.ev.Msg; m != nil {
		m.Freeze()
	}
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
