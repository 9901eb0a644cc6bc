package core

import (
	"fmt"

	"horus/internal/message"
)

// EventType enumerates the HCPI vocabulary. Downcalls (paper Table 1)
// travel from the application toward the network; upcalls (paper
// Table 2) travel from the network toward the application. It is 32
// bits wide so that it shares a word with Event.Priority.
type EventType int32

// Downcall event kinds (paper Table 1). The table's remaining rows —
// endpoint, join, destroy, focus — are constructors/accessors on the
// Endpoint and Group objects rather than events that travel through a
// stack; see Endpoint.Join, Endpoint.Destroy and Group.Focus.
const (
	// DCast multicasts Msg to the current view.
	DCast EventType = iota + 1
	// DSend sends Msg to the Dests subset of the view.
	DSend
	// DAck acknowledges that the application has processed message ID
	// (end-to-end stability, paper §9).
	DAck
	// DStable informs layers that message ID is stable and may be
	// garbage-collected.
	DStable
	// DView installs View, e.g. fed by an external membership service
	// (paper §5).
	DView
	// DLeave leaves the group.
	DLeave
	// DFlush starts a flush that removes the Failed members.
	DFlush
	// DFlushOK consents to an in-progress flush.
	DFlushOK
	// DMerge requests a merge with the view reachable at Contact.
	DMerge
	// DMergeGranted grants the merge request in Contact/Msg.
	DMergeGranted
	// DMergeDenied denies the merge request, with Reason.
	DMergeDenied
	// DDestroy tears the stack down.
	DDestroy
	// DDump asks every layer to append diagnostics to Dump.
	DDump
	// DLocate broadcasts a discovery beacon beyond the current view.
	// Not in Table 1: it is the hook for the paper's "resource
	// location" protocol type (Figure 1), used by the MERGE layer to
	// find concurrent views of the same group. Only the COM layer acts
	// on it; every other layer passes it through.
	DLocate
)

// Upcall event kinds (paper Table 2).
const (
	// UPacket is a raw network arrival entering the bottom of a stack;
	// the COM layer converts it to UCast/USend with a Source.
	UPacket EventType = iota + 101
	// UCast delivers a received multicast message.
	UCast
	// USend delivers a received subset message.
	USend
	// UView reports a view installation.
	UView
	// UFlush reports that a view flush has started (Failed lists the
	// members being removed).
	UFlush
	// UFlushOK reports that the flush completed.
	UFlushOK
	// ULeave reports that member Source left voluntarily.
	ULeave
	// UDestroy reports that the endpoint was destroyed.
	UDestroy
	// ULostMessage reports an unrecoverable message loss (the NAK
	// layer's place holder, paper §7).
	ULostMessage
	// UStable carries a stability matrix update (paper §9).
	UStable
	// UProblem reports a communication problem with member Source
	// (failure suspicion input to membership, paper §5).
	UProblem
	// USystemError reports a system error, with Reason.
	USystemError
	// UExit is the close-down event.
	UExit
	// UMergeRequest reports that the view at Contact asks to merge.
	UMergeRequest
	// UMergeDenied reports that our merge request was denied, with
	// Reason.
	UMergeDenied
	// ULocate reports a discovery beacon from another view (companion
	// to DLocate; consumed by the MERGE layer).
	ULocate
	// USuspect reports graded suspicion of member Source: the φ-accrual
	// suspicion level (Phi) crossed a detector band, or fell back below
	// one (a retraction). Not in Table 2: it extends the vocabulary with
	// the continuous signal between "healthy" and the binary PROBLEM
	// verdict, so adaptive layers (ADAPT) and applications can react to
	// degradation before exclusion. Emitted by HBEAT under the contract
	// documented in DESIGN.md: banded thresholds with hysteresis, at most
	// one upcall per band transition, monotone within a band.
	USuspect
	// USwitch reports the outcome of a run-time stack reconfiguration
	// (the SWITCH layer's epoch fence). Not in Table 2: the paper
	// promises LEGO-style restacking at run time but gives no event for
	// it. Epoch carries the reconfiguration epoch; Reason begins with
	// "committed" (the new segment is live) or "aborted" (the old
	// segment was rolled back, with the cause appended). Delivered
	// CAST/SEND events emerging from a switchable stack also carry the
	// epoch they were sent under in Epoch.
	USwitch
)

// IsDowncall reports whether t travels from application to network.
func (t EventType) IsDowncall() bool { return t >= DCast && t <= DLocate }

// IsUpcall reports whether t travels from network to application.
func (t EventType) IsUpcall() bool { return t >= UPacket && t <= USwitch }

var eventNames = map[EventType]string{
	DCast: "cast", DSend: "send", DAck: "ack", DStable: "stable",
	DView: "view", DLeave: "leave", DFlush: "flush", DFlushOK: "flush_ok",
	DMerge: "merge", DMergeGranted: "merge_granted", DMergeDenied: "merge_denied",
	DDestroy: "destroy", DDump: "dump", DLocate: "locate",
	UPacket: "PACKET", UCast: "CAST", USend: "SEND", UView: "VIEW",
	UFlush: "FLUSH", UFlushOK: "FLUSH_OK", ULeave: "LEAVE", UDestroy: "DESTROY",
	ULostMessage: "LOST_MESSAGE", UStable: "STABLE", UProblem: "PROBLEM",
	USystemError: "SYSTEM_ERROR", UExit: "EXIT",
	UMergeRequest: "MERGE_REQUEST", UMergeDenied: "MERGE_DENIED",
	ULocate: "LOCATE", USuspect: "SUSPECT", USwitch: "SWITCH",
}

// String returns the paper's name for the event type: lower case for
// downcalls, upper case for upcalls.
func (t EventType) String() string {
	if s, ok := eventNames[t]; ok {
		return s
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// Event is the single invocation record that flows through a protocol
// stack. One structure serves every HCPI call; unused fields are zero.
// Events are passed by pointer and owned by the layer currently
// processing them; a layer that buffers an event must not let an alias
// escape into a later invocation.
//
// Event holds the fields some layer sets or reads on every data
// packet; the rest of Tables 1–2 sits in Detail, which only control
// events allocate. The rule has three parts. An event whose type
// carries a Detail field — a view, a flush list, a merge contact, a
// stability matrix, a reason, a φ level, a dump — is built with its
// Detail. The data path (cast, send, ack, stable, PACKET, CAST, SEND)
// never allocates one. A reader that can see events of any type checks
// Detail != nil before it reads a field of it.
//
// Detail is embedded rather than named so that ev.View, ev.Reason and
// ev.Dump read and write as they did when every field lived here; only
// a composite literal names it.
//
// Every record that carries an Event — packet, downcall, the send
// records — is sized to an allocator size class (TestRecordSizes), so
// a field added here costs a class on every one of them.
type Event struct {
	Type EventType

	// Priority orders competing transmissions in a prioritized-effort
	// layer (NNAK, property P2). Higher is more urgent; 0 is normal.
	// The ADAPT layer sheds lowest-priority casts first under overload.
	Priority int32

	// Msg is the message payload for cast/send/CAST/SEND and for
	// protocol-internal control messages.
	Msg *message.Message

	// Source is the originating endpoint of an upcall (CAST/SEND
	// sender, PROBLEM subject, LEAVE subject).
	Source EndpointID

	// Dests is the destination subset for a send downcall.
	Dests []EndpointID

	// ID identifies a message for ack/stable and is set on delivered
	// CAST/SEND events by a stability layer so the application can ack.
	ID MsgID

	// Epoch is the reconfiguration epoch of a SWITCH upcall, and the
	// sending epoch stamped on CAST/SEND deliveries emerging from a
	// stack with a SWITCH fence. Zero means the initial (never
	// reconfigured) configuration.
	Epoch uint64

	// Timestamp is the causal (vector) timestamp attached by a TSTAMP
	// layer on delivery — property P13, consumed by ORDER(causal).
	// Indexed by the sender's view ranks at send time.
	Timestamp []uint64

	*Detail
}

// Detail is the part of an Event that control events carry and data
// events do not (see Event for the rule). Its fields read through the
// event as if they were the event's own.
type Detail struct {
	// Primary marks a VIEW upcall as belonging to the primary
	// partition when the membership layer runs with the Isis-style
	// primary-partition progress restriction (paper §9). Without that
	// option every view reports Primary.
	Primary bool

	// View is the view being installed (view/VIEW).
	View *View

	// Failed lists failed members (flush/FLUSH).
	Failed []EndpointID

	// Contact identifies the remote view in merge traffic.
	Contact EndpointID

	// Stability is the matrix carried by a STABLE upcall.
	Stability *StabilityMatrix

	// Reason explains SYSTEM_ERROR, MERGE_DENIED and LOST_MESSAGE.
	Reason string

	// Phi is the φ-accrual suspicion level carried by a SUSPECT upcall.
	// Higher means longer-than-expected silence from Source; a
	// retraction carries the (lower) level φ fell back to.
	Phi float64

	// Dump accumulates per-layer diagnostics for the dump downcall.
	Dump []string
}

// NewCast builds a cast downcall for msg.
func NewCast(msg *message.Message) *Event { return &Event{Type: DCast, Msg: msg} }

// NewSend builds a send downcall for msg to dests.
func NewSend(msg *message.Message, dests []EndpointID) *Event {
	return &Event{Type: DSend, Msg: msg, Dests: dests}
}

// send is one layer-originated send on its way down a stack: the event,
// its message and room for one destination in a single record, the
// mirror of packet on the receive side and of downcall on the
// application side. The size classes below append the message's header
// storage to the same allocation.
type send struct {
	ev   Event
	msg  message.Message
	dest [1]EndpointID // NewSendTo's destination; NewSendToAll borrows its caller's list
}

// Header storage comes in two sizes, each filling the allocator's size
// class for its record (320 and 480 bytes, TestRecordSizes): enough for
// a message of fixed-width fields — an acknowledgement, a token
// request, a retransmission of an application message — and enough for
// a status or gossip vector of a handful of members. The smaller is no
// larger than the Message, first-push storage, Event and Dests slice
// it replaces.
type (
	sendSmall struct {
		send
		hdr [96]byte
	}
	sendMedium struct {
		send
		hdr [256]byte
	}
)

// sendRoom is the header room a layer-originated send has on top of
// what its caller asks for: the fixed-width fields of the layer that
// builds it and of the layers underneath — kinds, sequence numbers, a
// source identifier — go here, as they go into a message's default
// headroom, so no caller adds them up.
const sendRoom = 48

// newSend allocates the record behind NewSendTo and NewSendToAll.
func newSend(hdr int) *send {
	var s *send
	var buf []byte
	switch room := hdr + sendRoom; {
	case room <= len(sendSmall{}.hdr):
		r := new(sendSmall)
		s, buf = &r.send, r.hdr[:]
	case room <= len(sendMedium{}.hdr):
		r := new(sendMedium)
		s, buf = &r.send, r.hdr[:]
	default:
		s, buf = new(send), make([]byte, room)
	}
	s.msg.AttachHeadroom(buf)
	s.ev = Event{Type: DSend, Msg: &s.msg}
	return s
}

// NewSendTo builds the send downcall with which a layer originates a
// message of its own — a token, an acknowledgement, a status report, a
// retransmission — to one member: an empty message and Dests naming
// dst, everything in the one record it allocates, so such a message
// costs one allocation where it is made and none on the way down (NAK
// sequences a single-destination send in place). hdr is the size of
// what the caller will push that grows with the group or with another
// message — a vector, a list of members, the headers CopyFrom copies —
// and 0 for a message of fixed-width fields alone; a message that
// outgrows its room moves its headers once, like any other, and one
// that asks for more than the larger size class gets its header
// storage separately. The caller pushes its headers onto ev.Msg
// (SetBody or CopyFrom give it a payload) and hands the event Down,
// after which both belong to the stack; see Layer.Down.
func NewSendTo(dst EndpointID, hdr int) *Event {
	s := newSend(hdr)
	s.dest[0] = dst
	s.ev.Dests = s.dest[:]
	return &s.ev
}

// NewSendToAll is NewSendTo for a message to several members. The
// event refers to dests and does not copy it: the caller must not
// write to the list afterwards.
func NewSendToAll(dests []EndpointID, hdr int) *Event {
	s := newSend(hdr)
	s.ev.Dests = dests
	return &s.ev
}

// String renders a short diagnostic form.
func (ev *Event) String() string {
	s := ev.Type.String()
	if ev.Msg != nil {
		s += " " + ev.Msg.String()
	}
	if !ev.Source.IsZero() {
		s += " from=" + ev.Source.String()
	}
	if ev.Detail != nil && ev.View != nil {
		s += " view=" + ev.View.String()
	}
	return s
}
