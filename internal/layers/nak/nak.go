// Package nak implements the NAK layer: reliable FIFO delivery over a
// best-effort network using sequence numbers and negative
// acknowledgements (paper §7).
//
// On each outgoing message the layer pushes a sequence number that the
// receiver checks. A receiver detecting loss sends back a negative
// acknowledgement; the sender retransmits from its buffer, or — if the
// message is no longer buffered — sends a place holder that surfaces
// as a LOST_MESSAGE upcall. Each endpoint occasionally sends every
// member its protocol status so buffered messages can be flushed and
// failures detected (a missing status update raises a PROBLEM upcall,
// which is the failure-suspicion input the MBRSHIP layer converts into
// clean view changes). A status is one unicast per peer carrying only
// what that peer reads: how much of the peer's own cast stream has
// been delivered here, and this endpoint's send positions — five small
// integers whatever the group's size.
//
// Two sequence spaces are maintained: one multicast stream per sender
// (property P4, FIFO multicast) and one unicast stream per
// (sender, destination) pair (property P3, FIFO unicast). Locate
// beacons and other non-addressed traffic pass through unsequenced.
//
// The two sides of a stream keep different things. The sender retains
// what it sent, a contiguous range, in a ring (outStream). The receiver
// counts what it has delivered and holds only what arrived beyond a gap,
// in a reorder.Buffer — the same ordered buffer TOTAL keeps stamped
// messages in: an arrival that is next never touches it, its lowest
// number is the far side of the gap a NAK names, its highest what the
// sender is known to have reached, and one number far ahead, which a
// member joining a long-running stream sees before its place holder,
// costs one entry. What it holds is the arrival's message, by value
// (parked): the stream fixes the event's type and source, so the
// arrival's receive record goes back when its upcall returns, and the
// drain passes the message up in a record lent from the same list
// (core.Context.UpParked).
//
// A gap is asked for once. A channel that reorders has lost nothing, so
// a receiver pays for loss, not for reordering: each receive stream
// remembers the highest sequence number an outstanding request covers,
// an out-of-order arrival or a status round asks only for what lies
// above it, and the re-NAK timer is the one path that asks again. The
// invariant that keeps this live is that a stream with an outstanding
// request has its re-NAK timer armed; whatever cancels the timer forgets
// the request with it.
//
// What the layer keeps about one endpoint is one record (peer): the two
// streams it sends here and the one this endpoint sends it, and, while
// it is a member of the view, its acknowledgement of this endpoint's
// casts, its silence clock and whether it is suspected. An arrival finds
// its source's record with one lookup; the status round, the silence
// sweep and the trim of the cast buffer walk the view's records.
//
// A sender has a receive stream of its own casts (the castIn of its own
// record) only where casts loop back to it, that is in a stack without a
// membership layer: MBRSHIP delivers the sender's copy itself and
// addresses its casts to the other members (core.DCast), so in a stack
// of it over NAK nothing comes back and the stream is never opened.
// Where it exists, a sender keeps its own casts until that stream has
// delivered them, so a lost self-addressed copy is retransmitted rather
// than reported lost. Where a stream carries both kinds, as HBEAT's
// beats under MBRSHIP's data do, each cast sent past the sender stands
// in its own stream as a number already accounted for, so it is never
// asked for.
//
// Nor is a gap asked for before it can be a loss. Each cast receive
// stream learns a reorder window from its own input, in the manner of
// RACK (RFC 8985): the longest an original cast has arrived behind later
// ones, timed from the arrival of the earliest entry still parked behind
// the gap, at most the re-NAK interval. Once a stream has a window, a new
// gap is asked for by the same timer once the window and a quarter more
// have passed since that arrival, not by the arrival that opened it; a
// gap the reordering closes in time is never asked for. The window is a
// running maximum, so it approaches the channel's extent from below, and
// the margin keeps each extension from costing a request. A stream that
// has never been reordered keeps a window of 0 and asks at once.
//
// Nor is a tail asked for on one status's word where the channel can
// reorder. A status carries its sender's send counts, which expose a
// loss at the end of a stream that no later arrival will; but a status
// can overtake a send still on its way. Each receive stream keeps the
// count the previous status claimed, and a status asks only for numbers
// both claim: a send the status overtook has had a status period to
// arrive, and a lost one is asked for at most a status period later. A
// cast stream that has never been reordered takes a status at its word,
// as it takes a gap; a unicast stream learns no window, so it always
// waits for the second claim.
//
// Properties: requires P1, P10, P11; provides P3, P4.
package nak

import (
	"fmt"
	"slices"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/reorder"
)

// Wire kinds.
const (
	kindData        = 1 // sequenced cast
	kindUniData     = 2 // sequenced unicast (subset send, one copy per dest)
	kindNak         = 3 // negative acknowledgement {stream, from, to}
	kindStatus      = 4 // periodic status, one per peer {its casts delivered, sent counts}
	kindPlaceholder = 5 // retransmission no longer possible
	kindRaw         = 6 // unsequenced pass-through (non-addressed sends)
)

// Stream tags inside NAK control messages.
const (
	streamCast = 1
	streamUni  = 2
)

// Defaults; override with the Option functions.
const (
	defaultStatusPeriod = 50 * time.Millisecond
	defaultResendNak    = 40 * time.Millisecond
	defaultSuspectAfter = 8 // status periods of silence before PROBLEM
)

// retainN bounds a stream's retransmission buffer: older messages are
// answered with place holders.
const retainN = 1024

// maxSparsePlaceholder bounds a place holder that does not start at the
// receive stream's next sequence number, the one shape that costs a
// pending marker per sequence number. A sender answers a NAK, and a
// NAK starts at the receiver's next sequence number, so in practice a
// place holder is contiguous; four retransmission buffers is
// more than any reordering of answers can leave. A wider one is line
// damage (or worse) and is dropped.
const maxSparsePlaceholder = 4 * retainN

// Option configures a Nak layer at construction.
type Option func(*Nak)

// WithStatusPeriod sets the interval between status rounds.
func WithStatusPeriod(d time.Duration) Option { return func(n *Nak) { n.statusPeriod = d } }

// WithSuspectAfter sets how many silent status periods trigger a
// PROBLEM upcall for a member. Zero disables failure suspicion.
func WithSuspectAfter(k int) Option { return func(n *Nak) { n.suspectAfter = k } }

// WithNakResend sets the re-NAK interval while a gap persists.
func WithNakResend(d time.Duration) Option { return func(n *Nak) { n.resendNak = d } }

// New returns a NAK layer with default configuration.
func New() core.Layer { return newNak() }

// NewWith returns a factory with options applied.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		n := newNak()
		for _, o := range opts {
			o(n)
		}
		return n
	}
}

func newNak() *Nak {
	return &Nak{
		peers:        make(map[core.EndpointID]*peer),
		statusPeriod: defaultStatusPeriod,
		resendNak:    defaultResendNak,
		suspectAfter: defaultSuspectAfter,
	}
}

// outStream is the sending side of one FIFO stream. Its retransmission
// buffer is a range, not a set: sequence numbers are assigned in order
// and every trim (acknowledged by all, delivered by the peer, over the
// retention limit) drops a prefix, so what is retained is always the
// last held numbers up to next. They live in a power-of-two ring of
// Message values, seq at ring[seq&(len-1)], grown by doubling while the
// range outgrows it.
type outStream struct {
	next uint64            // last sequence number assigned (first message is 1)
	held uint64            // retained: seqs (next-held, next]
	ring []message.Message // len 0 or a power of two >= held
}

// minRing is the first ring size: a stream whose peers keep up retains
// a handful of messages between two status rounds.
const minRing = 16

// inStream is the receiving side of one FIFO stream from one source.
// Everything pending lies beyond delivered — what is next is delivered
// on arrival, and drain takes what that uncovers — so pending's lowest
// number is the far side of the current gap. asked > delivered only
// while the stream's timer is armed: whatever stops the timer clears
// asked.
type inStream struct {
	delivered uint64                 // highest contiguously delivered seq
	asked     uint64                 // highest seq an outstanding request covers
	claimed   uint64                 // the send count the source's last status gave
	pending   reorder.Buffer[parked] // arrivals behind a gap, and place-held numbers
	timer     core.Timer[inStream]   // the outstanding reorder wait or re-NAK (askAgain)
	since     time.Duration          // arrival of the earliest entry still parked behind the gap
	window    time.Duration          // longest an original has been overtaken here, at most resendNak
	n         *Nak                   // the layer, for askAgain
	src       core.EndpointID        // the stream's source
	stream    uint8                  // streamCast or streamUni
}

// stopNak stops the stream's timer and forgets the request it would
// have repeated.
func (in *inStream) stopNak() {
	in.timer.Stop()
	in.asked = 0
}

// askAgain is the stream's timer firing, after a reorder wait before a
// first request or the re-NAK interval after one: either way it forgets
// what was asked and asks for the gap as it is now.
func (in *inStream) askAgain() {
	in.asked = 0
	in.n.sendNak(in)
}

// peer is everything NAK keeps about one endpoint. Its streams outlive
// views: membership and merge control traffic crosses view boundaries on
// the same per-pair FIFO streams, so resetting a stream on one side while
// the other remembers its counters would make every later message look
// like a duplicate. What only a member of the view has — its
// acknowledgement of this endpoint's casts, its silence clock and its
// suspicion — goes when it leaves the view.
type peer struct {
	id     core.EndpointID
	castIn *inStream // its casts, opened on first use
	uniIn  *inStream // its unicasts to this endpoint, opened on first use
	uniOut outStream // this endpoint's unicasts to it

	member    bool          // in the current view
	castFrom  uint64        // the first of castOut it was sent, castOut.next+1 when it first joined the view; 0 for self
	acked     uint64        // how much of castOut it has delivered (from status)
	heardAt   time.Duration // its silence clock: when it was last heard from
	suspected bool          // a PROBLEM has gone up and it has not been heard from since
}

// Nak is one NAK layer instance.
type Nak struct {
	core.Base
	// peers holds a record for each member of the view and each endpoint
	// a stream is open with. A packet's arrival finds its source's
	// record, streams and silence clock with one lookup.
	peers   map[core.EndpointID]*peer
	self    *peer   // this endpoint's record: its own cast stream, where casts loop back
	members []*peer // the view's records, in view order; replaced, never edited, by applyView
	others  []*peer // members except self; replaced, never edited, by applyView

	castOut  outStream
	pastSelf bool // a cast has been sent past this endpoint (sentPastSelf)

	statusPeriod time.Duration
	statusTimer  core.Timer[Nak] // the status round (statusTick)
	resendNak    time.Duration
	suspectAfter int

	stats Stats
}

// Stats counts NAK activity.
type Stats struct {
	DataSent       int
	Retransmits    int
	NaksSent       int
	Placeholders   int
	StatusSent     int
	Duplicates     int // sequenced messages dropped as duplicates
	OutOfOrder     int // messages buffered waiting for a gap to fill
	LostReported   int // LOST_MESSAGE upcalls emitted
	ProblemsRaised int
	RangeDropped   int // place holders dropped for an impossible range
}

// Name implements core.Layer.
func (n *Nak) Name() string { return "NAK" }

// Stats returns a snapshot of the layer's counters.
func (n *Nak) Stats() Stats { return n.stats }

// Init implements core.Layer and arms the periodic status multicast.
func (n *Nak) Init(c *core.Context) error {
	if err := n.Base.Init(c); err != nil {
		return err
	}
	n.self = n.peerFor(c.Self())
	n.statusTimer.Bind(c, n, (*Nak).statusTick)
	if n.statusPeriod > 0 {
		n.statusTimer.Reset(n.statusPeriod)
	}
	return nil
}

// Down implements core.Layer.
func (n *Nak) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		seq, slot := n.castOut.assign()
		slot.AttachClone(ev.Msg)
		if ev.Dests != nil && !slices.Contains(ev.Dests, n.Ctx.Self()) {
			n.sentPastSelf(seq)
		} else if n.pastSelf && n.self.castIn == nil {
			// The first cast to loop back: what came before it was all
			// sent past this endpoint.
			n.openIn(n.self, streamCast).delivered = seq - 1
		}
		ev.Msg.PushUint(seq)
		ev.Msg.PushUint8(kindData)
		n.stats.DataSent++
		n.Ctx.Down(ev)
	case core.DSend:
		if len(ev.Dests) == 0 {
			// Non-addressed send: pass through unsequenced.
			ev.Msg.PushUint8(kindRaw)
			n.Ctx.Down(ev)
			return
		}
		// One sequenced copy per destination pair. The last destination,
		// usually the only one, is sequenced in place on the event itself,
		// exactly as a cast is; the ones before it get a copy each, made
		// first because the event is the stack's once it has gone down.
		last := len(ev.Dests) - 1
		for _, dst := range ev.Dests[:last] {
			c := core.NewSendTo(dst, ev.Msg.HeaderLen())
			c.Msg.CopyFrom(ev.Msg)
			n.sendUni(c)
		}
		ev.Dests = ev.Dests[last:]
		n.sendUni(ev)
	case core.DView:
		n.applyView(ev)
		n.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, "NAK: "+n.dumpLine())
		n.Ctx.Down(ev)
	default:
		n.Ctx.Down(ev)
	}
}

// sentPastSelf accounts for cast seq, which does not come back to this
// endpoint, in its own receive stream, if it has one: the head steps
// over it, or a marker stands for it behind casts still on their way
// back, as an arrival that overtook them would, and drain steps over it.
// A stream not open yet is opened first when earlier casts, all looped
// back, have not arrived.
func (n *Nak) sentPastSelf(seq uint64) {
	in := n.self.castIn
	if in == nil && !n.pastSelf && seq > 1 {
		in = n.openIn(n.self, streamCast)
	}
	n.pastSelf = true
	switch {
	case in == nil:
	case seq == in.delivered+1:
		in.delivered = seq
	default:
		n.park(in, seq, parked{reported: true})
	}
}

// sendUni sequences a send to one destination on that pair's stream:
// the retransmission copy first, then this layer's header on the
// message itself.
func (n *Nak) sendUni(ev *core.Event) {
	seq, slot := n.peerFor(ev.Dests[0]).uniOut.assign()
	slot.AttachClone(ev.Msg)
	ev.Msg.PushUint(seq)
	ev.Msg.PushUint8(kindUniData)
	n.stats.DataSent++
	n.Ctx.Down(ev)
}

// assign takes the next sequence number and returns it with the ring
// slot for the retransmission copy, which the caller fills
// (AttachClone) before it pushes this layer's header, so a
// retransmission re-enters the lower stack cleanly. The buffer is bounded: once it exceeds the retention
// limit the oldest entries are dropped, after which a NAK for them is
// answered with a place holder ("will retransmit if the message is
// still buffered. If not, it will send a place holder", §7).
func (o *outStream) assign() (uint64, *message.Message) {
	if o.held == uint64(len(o.ring)) {
		ring := make([]message.Message, max(minRing, 2*len(o.ring)))
		for seq := o.first(); seq <= o.next; seq++ {
			ring[seq&uint64(len(ring)-1)] = *o.slot(seq)
		}
		o.ring = ring
	}
	o.next++
	o.held++
	// Trim with hysteresis: the limit is enforced a quarter late and a
	// quarter at a time, so a stream at its limit releases slots in
	// batches rather than one per send.
	if o.held > retainN+retainN/4 {
		o.trim(o.next - retainN)
	}
	return o.next, o.slot(o.next)
}

func (o *outStream) slot(seq uint64) *message.Message {
	return &o.ring[seq&uint64(len(o.ring)-1)]
}

// first returns the lowest retained sequence number, next+1 when
// nothing is retained.
func (o *outStream) first() uint64 { return o.next - o.held + 1 }

// get returns the retained copy of seq, or nil when seq was trimmed or
// never assigned.
func (o *outStream) get(seq uint64) *message.Message {
	if seq > o.next || seq < o.first() {
		return nil
	}
	return o.slot(seq)
}

// trim drops every retained sequence number up to and including upTo,
// releasing what the slots reference.
func (o *outStream) trim(upTo uint64) {
	for seq := o.first(); o.held > 0 && seq <= upTo; seq++ {
		*o.slot(seq) = message.Message{}
		o.held--
	}
}

// Up implements core.Layer.
func (n *Nak) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		p := n.peers[ev.Source]
		if p != nil && p.member {
			// Liveness evidence. Only the view's members have a silence
			// clock: traffic from anyone else — a merging group, a dead
			// incarnation — changes nothing.
			p.heardAt = n.Ctx.Now()
			p.suspected = false
		}
		kind := ev.Msg.PopUint8()
		if kind == kindRaw {
			n.Ctx.Up(ev)
			return
		}
		if p == nil {
			p = n.peerFor(ev.Source)
		}
		switch kind {
		case kindData:
			// Retransmissions travel as subset sends; restore the
			// multicast event type so upper layers and the application
			// cannot tell a retransmitted cast from an original.
			original := ev.Type == core.UCast
			ev.Type = core.UCast
			n.receiveData(ev, n.openIn(p, streamCast), original)
		case kindUniData:
			ev.Type = core.USend
			n.receiveData(ev, n.openIn(p, streamUni), false)
		case kindNak:
			n.receiveNak(ev, p)
		case kindStatus:
			n.receiveStatus(ev, p)
		case kindPlaceholder:
			n.receivePlaceholder(ev, p)
		default:
			// Unknown kind byte: garbled in flight, drop.
		}
	case core.UView:
		n.Ctx.Up(ev)
	default:
		n.Ctx.Up(ev)
	}
}

// peerFor returns id's record, made on first use.
func (n *Nak) peerFor(id core.EndpointID) *peer {
	p := n.peers[id]
	if p == nil {
		p = &peer{id: id}
		n.peers[id] = p
	}
	return p
}

// openIn returns p's receive stream of the given kind, opened on first use.
func (n *Nak) openIn(p *peer, stream uint8) *inStream {
	in := &p.uniIn
	if stream == streamCast {
		in = &p.castIn
	}
	if *in == nil {
		*in = &inStream{n: n, src: p.id, stream: stream}
		(*in).timer.Bind(n.Ctx, *in, (*inStream).askAgain)
	}
	return *in
}

// receiveData handles a sequenced arrival on stream in from ev.Source.
// An arrival beyond a gap is parked: its message, by value, not its
// event (see parked), so its record goes back as an in-order one's
// does. On a stream that has never shown reordering it asks at once
// for whatever part of the gap no outstanding request covers yet
// (sendNak); with the gap already asked for, it asks nothing. On a
// stream that has, the gap — opened by that arrival, or met by the head
// as it advances — is asked for by the stream's timer once the reorder
// wait has passed, as it stands then (waitForGap).
//
// The window is learned from originals alone (a retransmission arrives
// as a subset send and says nothing about the channel): an original that
// fills the head while something waits behind it was overtaken by the
// earliest arrival still parked (since), RACK's reordering extent. The
// window is the largest such time, capped at the re-NAK interval; with
// no re-NAK interval it stays 0.
func (n *Nak) receiveData(ev *core.Event, in *inStream, original bool) {
	seq := ev.Msg.PopUint()
	switch {
	case seq == in.delivered+1:
		if original && in.pending.Len() > 0 {
			in.window = max(in.window, min(n.Ctx.Now()-in.since, n.resendNak))
		}
		in.delivered = seq
		n.Ctx.Up(ev)
		n.drain(in)
		if in.window > 0 && in.pending.Len() > 0 {
			n.waitForGap(in)
		}
	case seq <= in.delivered:
		n.stats.Duplicates++
	default:
		if !n.park(in, seq, parked{msg: *ev.Msg}) {
			n.stats.Duplicates++
			return
		}
		n.stats.OutOfOrder++
		if in.window == 0 {
			n.sendNak(in)
		} else {
			n.waitForGap(in)
		}
	}
}

// parked is what a receive stream holds under a number beyond its gap,
// stamped with when it was parked: the message of an arrival that
// overtook the gap, by value, whose event the stream's kind and source
// make again when it drains; or, reported, nothing: a number a place
// holder covered before the stream reached it — its LOST_MESSAGE has
// gone up already — or, in this endpoint's own stream, a cast it sent
// past itself. Drain steps over those.
type parked struct {
	msg      message.Message
	reported bool
	at       time.Duration
}

// park holds v under seq, stamped with now. The entry that opens a gap
// starts the stream's reorder clock (since); it reports false for a
// number already held.
func (n *Nak) park(in *inStream, seq uint64, v parked) bool {
	v.at = n.Ctx.Now()
	if in.pending.Len() == 0 {
		in.since = v.at
	}
	return in.pending.Put(seq, v)
}

// drain delivers any buffered messages that have become contiguous.
// What stays parked is timed from the earliest of it, which for
// arrivals in about their sent order is the lowest: when the drain took
// something, the reorder clock moves on to that entry's arrival. Once
// nothing is pending it cancels the stream's timer and, with it, the
// record of what was asked: a request a status round made for a tail
// may still be open, and a retransmission in it that is lost must be
// asked for again by the next arrival or status round, which a stale
// record would silence for good.
func (n *Nak) drain(in *inStream) {
	typ := core.UCast
	if in.stream == streamUni {
		typ = core.USend
	}
	from := in.delivered
	for next, ok := in.pending.Pop(in.delivered + 1); ok; next, ok = in.pending.Pop(in.delivered + 1) {
		in.delivered++
		if !next.reported {
			n.Ctx.UpParked(typ, in.src, &next.msg)
		}
	}
	if first, ok := in.pending.First(); !ok {
		in.stopNak()
	} else if in.delivered > from {
		in.since = first.at
	}
}

// waitForGap has the stream's timer ask for the current gap once the
// window and a quarter more, at most the re-NAK interval, have passed
// since the earliest parked arrival. The window is a running maximum
// that approaches the channel's extent from below; the margin keeps each
// small extension from costing a request. A timer already waiting, or
// repeating a request not yet answered, is left to fire; one repeating a
// request the stream has since delivered past is replaced.
func (n *Nak) waitForGap(in *inStream) {
	if in.timer.Armed() && (in.asked == 0 || in.asked > in.delivered) {
		return
	}
	in.asked = 0
	wait := min(in.window+in.window/4, n.resendNak)
	in.timer.Reset(max(0, in.since+wait-n.Ctx.Now()))
}

// sendNak asks the source for the part of the current gap
// [delivered+1, lowest pending-1] that lies above what is already
// asked for. An arrival calls it at once only on a stream with no
// reorder window; otherwise the stream's timer calls it.
func (n *Nak) sendNak(in *inStream) {
	lo := max(in.delivered, in.asked) + 1
	if hi, ok := in.pending.Lowest(); ok && hi > lo {
		n.sendNakRange(in, lo, hi-1)
	}
}

// sendNakRange requests retransmission of [lo, hi], records hi as
// asked, and arms the re-NAK timer unless it is armed already. The
// timer is the only path that repeats a request: when it fires it
// forgets what was asked and asks for the gap as it is then. With no
// re-NAK interval nothing would ever ask again, so nothing is recorded
// and every arrival asks for the whole gap.
func (n *Nak) sendNakRange(in *inStream, lo, hi uint64) {
	n.stats.NaksSent++
	n.sendRange(in.src, kindNak, in.stream, lo, hi)
	if n.resendNak <= 0 {
		return
	}
	in.asked = max(in.asked, hi)
	if !in.timer.Armed() {
		in.timer.Reset(n.resendNak)
	}
}

// sendRange sends dst a NAK or a place holder for [lo, hi] of stream.
func (n *Nak) sendRange(dst core.EndpointID, kind, stream uint8, lo, hi uint64) {
	ev := core.NewSendTo(dst, 0)
	ev.Msg.PushUint(hi)
	ev.Msg.PushUint(lo)
	ev.Msg.PushUint8(stream)
	ev.Msg.PushUint8(kind)
	n.Ctx.Down(ev)
}

// receiveNak retransmits the requested range, or place holders for
// messages no longer buffered. NAK control messages are emitted below
// this layer (straight to the layer underneath), so they are never
// themselves sequenced and cannot recurse.
func (n *Nak) receiveNak(ev *core.Event, p *peer) {
	stream := ev.Msg.PopUint8()
	lo := ev.Msg.PopUint()
	hi := ev.Msg.PopUint()
	var out *outStream
	var kind uint8
	var from uint64 // the first of the stream the requester was sent
	switch stream {
	case streamCast:
		out, kind, from = &n.castOut, kindData, p.castFrom
	case streamUni:
		out, kind = &p.uniOut, kindUniData
	default:
		return
	}
	// Nothing outside [1, next] was ever sent. A receiver never asks
	// for it either, so this only stops a garbled range from walking
	// up to 2^64 sequence numbers.
	lo, hi = max(lo, 1), min(hi, out.next)
	if lo > hi {
		return
	}
	// What was trimmed is a prefix, and so is what was cast before the
	// requester joined, which it was never sent and its membership
	// layer would drop as another view's: the range splits once, a
	// single place holder for the part below both, then retransmissions.
	if first := max(out.first(), from); lo < first {
		n.stats.Placeholders++
		n.sendRange(ev.Source, kindPlaceholder, stream, lo, min(hi, first-1))
		lo = first
	}
	for seq := lo; seq <= hi; seq++ {
		held := out.get(seq)
		re := core.NewSendTo(ev.Source, held.HeaderLen())
		re.Msg.CopyFrom(held)
		re.Msg.PushUint(seq)
		re.Msg.PushUint8(kind)
		n.stats.Retransmits++
		n.Ctx.Down(re)
	}
}

// receivePlaceholder fills a gap with a LOST_MESSAGE event (paper §7:
// "it will send a place holder that will result in a LOST_MESSAGE
// event when received"). Place holders cover a range; a single
// LOST_MESSAGE upcall reports the whole range, and silent markers fill
// the receive stream so later messages stay FIFO.
func (n *Nak) receivePlaceholder(ev *core.Event, p *peer) {
	stream := ev.Msg.PopUint8()
	lo := ev.Msg.PopUint()
	hi := ev.Msg.PopUint()
	if stream != streamCast && stream != streamUni {
		return
	}
	in := n.openIn(p, stream)
	if hi <= in.delivered || hi < lo {
		return
	}
	sparse := lo > in.delivered+1
	if sparse && hi-lo >= maxSparsePlaceholder {
		n.stats.RangeDropped++
		return
	}
	n.stats.LostReported++
	n.Ctx.Up(&core.Event{Type: core.ULostMessage, Source: ev.Source,
		Detail: &core.Detail{Reason: fmt.Sprintf("seqs %d-%d no longer buffered by sender", lo, hi)}})
	if sparse {
		// The stream has not reached lo yet: park a marker per sequence
		// number (counted from lo, so hi = 2^64-1 cannot wrap the loop).
		// An arrival already held there stays and is delivered.
		for i := uint64(0); i <= hi-lo; i++ {
			n.park(in, lo+i, parked{reported: true})
		}
		return
	}
	// The range continues the stream: everything up to hi is accounted
	// for. Jump from one out-of-order arrival inside it to the next —
	// those still deliver, in order — rather than stepping through the
	// sequence numbers in between.
	for in.delivered < hi {
		stop := hi
		if s, ok := in.pending.Lowest(); ok {
			stop = min(stop, s-1)
		}
		in.delivered = stop
		n.drain(in)
	}
}

// statusTick sends each member its status, checks for silent members
// and, where casts loop back to this endpoint, asks its own cast stream
// for a lost tail: no peer's status claims that stream, and after a
// sender's last cast no arrival shows a gap, so the loopback copy of
// that cast, if lost, is found only here. The claim is this endpoint's
// send count, read without a packet.
func (n *Nak) statusTick() {
	n.statusTimer.Reset(n.statusPeriod)
	if in := n.self.castIn; in != nil {
		n.nakTail(in, n.castOut.next)
	}
	if len(n.members) > 1 {
		n.sendStatus()
		n.checkSilence()
	}
}

// sendStatus sends each other member its own status: how much of that
// member's cast stream we have delivered (0 when none), our cast send
// count, and the positions of our unicast streams with that member. A
// member reads only its own entry of what we have delivered, so that is
// all it is sent: one unicast of five small integers per peer. Receivers
// use the send counts to detect tail loss on both the multicast stream
// and the per-pair unicast stream (a lost unicast on a stream that then
// goes quiet has no later message to expose the gap), and the delivered
// counts to trim retransmission buffers.
func (n *Nak) sendStatus() {
	for _, p := range n.others {
		ev := core.NewSendTo(p.id, 0)
		m := ev.Msg
		var uniDelivered, castDelivered uint64
		if p.uniIn != nil {
			uniDelivered = p.uniIn.delivered
		}
		if p.castIn != nil {
			castDelivered = p.castIn.delivered
		}
		m.PushUint(uniDelivered)
		m.PushUint(p.uniOut.next)
		m.PushUint(n.castOut.next)
		m.PushUint(castDelivered)
		m.PushUint8(kindStatus)
		n.stats.StatusSent++
		n.Ctx.Down(ev)
	}
}

// receiveStatus trims the multicast retransmission buffer up to the
// minimum delivered count acknowledged by all current members, and
// detects tail loss: the status carries the peer's own send count, so
// a receiver that is behind with no out-of-order evidence (the
// negative-acknowledgement blind spot) can still ask for the missing
// suffix. The peer's count of our casts is an acknowledgement only when
// it is above 0: 0 says the peer has delivered none of them.
func (n *Nak) receiveStatus(ev *core.Event, p *peer) {
	acked := ev.Msg.PopUint()
	peerCastSent := ev.Msg.PopUint()
	peerUniSent := ev.Msg.PopUint()      // peer -> us unicast stream
	peerUniDelivered := ev.Msg.PopUint() // us -> peer unicast stream
	if acked > 0 {
		p.acked = max(p.acked, acked)
		n.trimCastBuffer()
	}
	n.nakTail(n.openIn(p, streamCast), peerCastSent)
	n.nakTail(n.openIn(p, streamUni), peerUniSent)
	// Trim the unicast retransmission buffer to what the peer has.
	p.uniOut.trim(peerUniDelivered)
}

// nakTail requests the missing suffix of a stream whose sender claims
// to have sent more than we have seen, from above what is already asked
// for. A status can overtake a send on its way, so on a stream that may
// reorder a claim is a loss only once a status period has passed since
// it was first made: the request goes up to the lower of this claim and
// the one before. A peer's cast stream with no reorder window has never
// seen a packet overtaken and asks for the whole claim. This endpoint's
// own claim is not a status that travelled behind the casts: the
// latest of them may still be on their way back, so it waits a period
// as a reordering stream does.
func (n *Nak) nakTail(in *inStream, peerSent uint64) {
	claim := min(in.claimed, peerSent)
	if in.stream == streamCast && in.window == 0 && in != n.self.castIn {
		claim = peerSent
	}
	in.claimed = peerSent
	maxPending, _ := in.pending.Highest()
	if lo := max(in.delivered, in.asked) + 1; claim >= lo && claim > maxPending {
		n.sendNakRange(in, lo, claim)
	}
}

// trimCastBuffer drops buffered casts acknowledged by every member,
// this endpoint included: where casts loop back to their sender (its
// own cast stream is open, in a stack without a membership layer), the
// sender's own count is what that stream has delivered, so a lost
// self-addressed copy is still held when the sender asks itself for it.
// Where they do not — under MBRSHIP, or on a transport without a
// loopback — the endpoint is owed nothing and the peers' acks alone
// trim the ring.
func (n *Nak) trimCastBuffer() {
	if len(n.members) == 0 {
		return
	}
	least := n.castOut.next
	for _, p := range n.members {
		switch {
		case p != n.self:
			least = min(least, p.acked)
		case p.castIn != nil:
			least = min(least, p.castIn.delivered)
		}
	}
	n.castOut.trim(least)
}

// checkSilence raises PROBLEM upcalls for members silent for
// suspectAfter status periods. A PROBLEM upcall may install a smaller
// view before the sweep ends; a record that has left it is skipped, as
// an arrival from it leaves its clock alone.
func (n *Nak) checkSilence() {
	if n.suspectAfter <= 0 {
		return
	}
	now := n.Ctx.Now()
	limit := time.Duration(n.suspectAfter) * n.statusPeriod
	for _, p := range n.others {
		if p.member && !p.suspected && now-p.heardAt > limit {
			p.suspected = true
			n.stats.ProblemsRaised++
			n.Ctx.Up(&core.Event{Type: core.UProblem, Source: p.id,
				Detail: &core.Detail{Reason: fmt.Sprintf("no traffic for %v", now-p.heardAt)}})
		}
	}
}

// applyView adapts to the new membership: its members' silence clocks
// restart, and everyone else loses what only a member has (see peer) and
// any request in progress on its streams — a retransmission-request
// timer and an out-of-order buffer of a likely dead member would only
// leak or misfire. A record left with no stream is dropped.
func (n *Nak) applyView(ev *core.Event) {
	if ev.View == nil {
		return
	}
	for _, p := range n.members {
		p.member = false
	}
	n.members = make([]*peer, 0, len(ev.View.Members))
	n.others = make([]*peer, 0, len(ev.View.Members))
	now := n.Ctx.Now()
	for _, id := range ev.View.Members {
		p := n.peerFor(id)
		p.member, p.heardAt = true, now
		if p.castFrom == 0 && p != n.self {
			p.castFrom = n.castOut.next + 1
		}
		n.members = append(n.members, p)
		if p != n.self {
			n.others = append(n.others, p)
		}
	}
	for id, p := range n.peers {
		if p.member {
			continue
		}
		p.acked, p.suspected = 0, false
		// Gap fillers will never come from a dead sender; the buffered
		// out-of-order messages can never be delivered FIFO and are
		// dropped (virtual synchrony layers recover what matters during
		// the flush).
		for _, in := range [...]*inStream{p.castIn, p.uniIn} {
			if in != nil {
				in.stopNak()
				in.pending.Reset()
			}
		}
		if p.castIn == nil && p.uniIn == nil && p.uniOut.next == 0 && p != n.self {
			delete(n.peers, id)
		}
	}
	n.trimCastBuffer()
}

func (n *Nak) dumpLine() string {
	suspected := 0
	for _, p := range n.others {
		if p.suspected {
			suspected++
		}
	}
	return fmt.Sprintf("castSeq=%d buffered=%d retransmits=%d naks=%d status=%d suspected=%d",
		n.castOut.next, n.castOut.held, n.stats.Retransmits, n.stats.NaksSent, n.stats.StatusSent, suspected)
}
