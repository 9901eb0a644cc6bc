// Package nak implements the NAK layer: reliable FIFO delivery over a
// best-effort network using sequence numbers and negative
// acknowledgements (paper §7).
//
// On each outgoing message the layer pushes a sequence number that the
// receiver checks. A receiver detecting loss sends back a negative
// acknowledgement; the sender retransmits from its buffer, or — if the
// message is no longer buffered — sends a place holder that surfaces
// as a LOST_MESSAGE upcall. Each endpoint occasionally multicasts its
// protocol status so buffered messages can be flushed and failures
// detected (a missing status update raises a PROBLEM upcall, which is
// the failure-suspicion input the MBRSHIP layer converts into clean
// view changes).
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
// costs one entry.
//
// A gap is asked for once. A channel that reorders has lost nothing, so
// a receiver pays for loss, not for reordering: each receive stream
// remembers the highest sequence number an outstanding request covers,
// an out-of-order arrival or a status round asks only for what lies
// above it, and the re-NAK timer is the one path that asks again. The
// invariant that keeps this live is that a stream with an outstanding
// request has its re-NAK timer armed; whatever cancels the timer forgets
// the request with it. A sender keeps its own casts, too, until its own
// receive stream has delivered them, so a lost self-addressed copy is
// retransmitted rather than reported lost.
//
// Properties: requires P1, P10, P11; provides P3, P4.
package nak

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/reorder"
	"horus/internal/wire"
)

// Wire kinds.
const (
	kindData        = 1 // sequenced cast
	kindUniData     = 2 // sequenced unicast (subset send, one copy per dest)
	kindNak         = 3 // negative acknowledgement {stream, from, to}
	kindStatus      = 4 // periodic status multicast
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
	defaultStatusPeriod  = 50 * time.Millisecond
	defaultResendNak     = 40 * time.Millisecond
	defaultSuspectAfter  = 8 // status periods of silence before PROBLEM
	defaultRetainBufferN = 1024
)

// maxSparsePlaceholder bounds a place holder that does not start at the
// receive stream's next sequence number, the one shape that costs a
// pending marker per sequence number. A sender answers a NAK, and a
// NAK starts at the receiver's next sequence number, so in practice a
// place holder is contiguous; four default retransmission buffers is
// more than any reordering of answers can leave. A wider one is line
// damage (or worse) and is dropped.
const maxSparsePlaceholder = 4 * defaultRetainBufferN

// Option configures a Nak layer at construction.
type Option func(*Nak)

// WithStatusPeriod sets the status-gossip interval.
func WithStatusPeriod(d time.Duration) Option { return func(n *Nak) { n.statusPeriod = d } }

// WithSuspectAfter sets how many silent status periods trigger a
// PROBLEM upcall for a member. Zero disables failure suspicion.
func WithSuspectAfter(k int) Option { return func(n *Nak) { n.suspectAfter = k } }

// WithNakResend sets the re-NAK interval while a gap persists.
func WithNakResend(d time.Duration) Option { return func(n *Nak) { n.resendNak = d } }

// WithRetain bounds the retransmission buffer to k messages per
// stream; older messages are answered with place holders.
func WithRetain(k int) Option {
	return func(n *Nak) {
		n.castOut.retain = k
		n.retain = k
	}
}

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
		uniOut:       make(map[core.EndpointID]*outStream),
		castIn:       make(map[core.EndpointID]*inStream),
		uniIn:        make(map[core.EndpointID]*inStream),
		lastHeard:    make(map[core.EndpointID]time.Duration),
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
	next   uint64                     // last sequence number assigned (first message is 1)
	held   uint64                     // retained: seqs (next-held, next]
	ring   []message.Message          // len 0 or a power of two >= held
	acks   map[core.EndpointID]uint64 // per-member delivered counts (from status)
	retain int                        // max buffered messages; 0 = default
}

// minRing is the first ring size: a stream whose peers keep up retains
// a handful of messages between two status rounds.
const minRing = 16

// inStream is the receiving side of one FIFO stream from one source.
// Everything pending lies beyond delivered — what is next is delivered
// on arrival, and drain takes what that uncovers — so pending's lowest
// number is the far side of the current gap. asked > delivered only
// while nakTimer is armed: whatever cancels the timer clears asked.
type inStream struct {
	delivered uint64         // highest contiguously delivered seq
	asked     uint64         // highest seq an outstanding request covers
	pending   reorder.Buffer // arrivals behind a gap, and place-held numbers (see reported)
	nakTimer  func()         // cancels the outstanding re-NAK timer
}

// stopNak cancels the re-NAK timer and forgets the request it would
// have repeated.
func (in *inStream) stopNak() {
	if in.nakTimer != nil {
		in.nakTimer()
		in.nakTimer = nil
	}
	in.asked = 0
}

// Nak is one NAK layer instance.
type Nak struct {
	core.Base
	members []core.EndpointID
	others  []core.EndpointID // members except self; replaced, never edited, by applyView

	// What a status round reports, kept between rounds: the sources of
	// castIn oldest first (castInFor inserts), and the vector of their
	// delivered counts, refilled each round.
	castSrcs []core.EndpointID
	counts   []uint64

	castOut outStream
	uniOut  map[core.EndpointID]*outStream
	castIn  map[core.EndpointID]*inStream
	uniIn   map[core.EndpointID]*inStream

	lastHeard map[core.EndpointID]time.Duration
	suspected map[core.EndpointID]bool

	statusPeriod time.Duration
	resendNak    time.Duration
	suspectAfter int
	retain       int

	statusCancel func()
	stats        Stats
	destroyed    bool
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
	n.suspected = make(map[core.EndpointID]bool)
	if n.statusPeriod > 0 {
		n.statusCancel = c.SetTimer(n.statusPeriod, n.statusTick)
	}
	return nil
}

// Down implements core.Layer.
func (n *Nak) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		seq, slot := n.castOut.assign()
		slot.AttachClone(ev.Msg)
		ev.Msg.PushUint64(seq)
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
	case core.DDestroy:
		n.shutdown()
		n.Ctx.Down(ev)
	default:
		n.Ctx.Down(ev)
	}
}

// sendUni sequences a send to one destination on that pair's stream:
// the retransmission copy first, then this layer's header on the
// message itself.
func (n *Nak) sendUni(ev *core.Event) {
	seq, slot := n.uniOutFor(ev.Dests[0]).assign()
	slot.AttachClone(ev.Msg)
	ev.Msg.PushUint64(seq)
	ev.Msg.PushUint8(kindUniData)
	n.stats.DataSent++
	n.Ctx.Down(ev)
}

func (n *Nak) uniOutFor(dst core.EndpointID) *outStream {
	out := n.uniOut[dst]
	if out == nil {
		out = &outStream{retain: n.retain}
		n.uniOut[dst] = out
	}
	return out
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
	retain := uint64(o.retain)
	if o.retain <= 0 {
		retain = defaultRetainBufferN
	}
	// Trim with hysteresis: the limit is enforced a quarter late and a
	// quarter at a time, so a stream at its limit releases slots in
	// batches rather than one per send.
	if o.held > retain+retain/4 {
		o.trim(o.next - retain)
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
		n.heard(ev.Source)
		kind := ev.Msg.PopUint8()
		switch kind {
		case kindData:
			// Retransmissions travel as subset sends; restore the
			// multicast event type so upper layers and the application
			// cannot tell a retransmitted cast from an original.
			ev.Type = core.UCast
			n.receiveData(ev, n.castInFor(ev.Source), streamCast)
		case kindUniData:
			ev.Type = core.USend
			n.receiveData(ev, n.uniInFor(ev.Source), streamUni)
		case kindNak:
			n.receiveNak(ev)
		case kindStatus:
			n.receiveStatus(ev)
		case kindRaw:
			n.Ctx.Up(ev)
		case kindPlaceholder:
			n.receivePlaceholder(ev)
		default:
			// Unknown kind byte: garbled in flight, drop.
		}
	case core.UView:
		n.Ctx.Up(ev)
	default:
		n.Ctx.Up(ev)
	}
}

func (n *Nak) castInFor(src core.EndpointID) *inStream {
	in := n.castIn[src]
	if in == nil {
		in = &inStream{}
		n.castIn[src] = in
		i := sort.Search(len(n.castSrcs), func(i int) bool { return src.Older(n.castSrcs[i]) })
		n.castSrcs = slices.Insert(n.castSrcs, i, src)
	}
	return in
}

func (n *Nak) uniInFor(src core.EndpointID) *inStream {
	in := n.uniIn[src]
	if in == nil {
		in = &inStream{}
		n.uniIn[src] = in
	}
	return in
}

// receiveData handles a sequenced arrival on stream in from ev.Source.
// An arrival beyond a gap is held, and asks for whatever part of the gap
// no outstanding request covers yet (sendNak); with the gap already
// asked for, it asks nothing.
func (n *Nak) receiveData(ev *core.Event, in *inStream, stream uint8) {
	seq := ev.Msg.PopUint64()
	switch {
	case seq == in.delivered+1:
		in.delivered = seq
		n.Ctx.Up(ev)
		n.drain(in)
	case seq <= in.delivered:
		n.stats.Duplicates++
	default:
		if !in.pending.Put(seq, ev) {
			n.stats.Duplicates++
			return
		}
		n.stats.OutOfOrder++
		n.sendNak(ev.Source, in, stream)
	}
}

// reported stands in pending for a sequence number a place holder
// covered before the stream reached it: its LOST_MESSAGE has gone up
// already, so drain steps over it. It is compared, never read or sent.
var reported = new(core.Event)

// drain delivers any buffered messages that have become contiguous.
// Once nothing is pending it cancels the re-NAK timer and, with it, the
// record of what was asked: a request a status round made for a tail
// may still be open, and a retransmission in it that is lost must be
// asked for again by the next arrival or status round, which a stale
// record would silence for good.
func (n *Nak) drain(in *inStream) {
	for next := in.pending.Pop(in.delivered + 1); next != nil; next = in.pending.Pop(in.delivered + 1) {
		in.delivered++
		if next != reported {
			n.Ctx.Up(next)
		}
	}
	if in.pending.Len() == 0 {
		in.stopNak()
	}
}

// sendNak asks the source for the part of the current gap
// [delivered+1, lowest pending-1] that lies above what is already
// asked for.
func (n *Nak) sendNak(src core.EndpointID, in *inStream, stream uint8) {
	lo := max(in.delivered, in.asked) + 1
	if hi, ok := in.pending.Lowest(); ok && hi > lo {
		n.sendNakRange(src, in, stream, lo, hi-1)
	}
}

// sendNakRange requests retransmission of [lo, hi], records hi as
// asked, and arms the re-NAK timer unless it is armed already. The
// timer is the only path that repeats a request: when it fires it
// forgets what was asked and asks for the gap as it is then. With no
// re-NAK interval nothing would ever ask again, so nothing is recorded
// and every arrival asks for the whole gap.
func (n *Nak) sendNakRange(src core.EndpointID, in *inStream, stream uint8, lo, hi uint64) {
	n.stats.NaksSent++
	n.sendRange(src, kindNak, stream, lo, hi)
	if n.resendNak <= 0 {
		return
	}
	in.asked = max(in.asked, hi)
	if in.nakTimer == nil {
		in.nakTimer = n.Ctx.SetTimer(n.resendNak, func() {
			in.nakTimer = nil
			in.asked = 0
			n.sendNak(src, in, stream)
		})
	}
}

// sendRange sends dst a NAK or a place holder for [lo, hi] of stream.
func (n *Nak) sendRange(dst core.EndpointID, kind, stream uint8, lo, hi uint64) {
	ev := core.NewSendTo(dst, 0)
	ev.Msg.PushUint64(hi)
	ev.Msg.PushUint64(lo)
	ev.Msg.PushUint8(stream)
	ev.Msg.PushUint8(kind)
	n.Ctx.Down(ev)
}

// receiveNak retransmits the requested range, or place holders for
// messages no longer buffered. NAK control messages are emitted below
// this layer (straight to the layer underneath), so they are never
// themselves sequenced and cannot recurse.
func (n *Nak) receiveNak(ev *core.Event) {
	stream := ev.Msg.PopUint8()
	lo := ev.Msg.PopUint64()
	hi := ev.Msg.PopUint64()
	var out *outStream
	var kind uint8
	switch stream {
	case streamCast:
		out, kind = &n.castOut, kindData
	case streamUni:
		out, kind = n.uniOutFor(ev.Source), kindUniData
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
	// What was trimmed is a prefix, so the range splits once: a single
	// place holder for the part no longer buffered (a member that joined
	// after a long history would otherwise receive one per pre-join
	// message), then retransmissions.
	if first := out.first(); lo < first {
		n.stats.Placeholders++
		n.sendRange(ev.Source, kindPlaceholder, stream, lo, min(hi, first-1))
		lo = first
	}
	for seq := lo; seq <= hi; seq++ {
		held := out.get(seq)
		re := core.NewSendTo(ev.Source, held.HeaderLen())
		re.Msg.CopyFrom(held)
		re.Msg.PushUint64(seq)
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
func (n *Nak) receivePlaceholder(ev *core.Event) {
	stream := ev.Msg.PopUint8()
	lo := ev.Msg.PopUint64()
	hi := ev.Msg.PopUint64()
	var in *inStream
	switch stream {
	case streamCast:
		in = n.castInFor(ev.Source)
	case streamUni:
		in = n.uniInFor(ev.Source)
	default:
		return
	}
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
			in.pending.Put(lo+i, reported)
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

// statusTick multicasts this endpoint's receive status and checks for
// silent members.
func (n *Nak) statusTick() {
	if n.destroyed {
		return
	}
	n.statusCancel = n.Ctx.SetTimer(n.statusPeriod, n.statusTick)
	if len(n.members) > 1 {
		n.sendStatus()
		n.checkSilence()
	}
}

// sendStatus sends each member {per-source cast delivered counts, our
// cast send count, and the positions of our unicast streams with that
// member}. Receivers use the send counts to detect tail loss on both
// the multicast stream and the per-pair unicast stream (a lost unicast
// on a stream that then goes quiet has no later message to expose the
// gap), and the delivered counts to trim retransmission buffers.
func (n *Nak) sendStatus() {
	n.counts = n.counts[:0]
	for _, src := range n.castSrcs {
		n.counts = append(n.counts, n.castIn[src].delivered)
	}
	size := wire.IDListLen(n.castSrcs) + wire.CountsLen(len(n.counts))
	for _, dst := range n.others {
		ev := core.NewSendTo(dst, size)
		m := ev.Msg
		var uniSent, uniDelivered uint64
		if out := n.uniOut[dst]; out != nil {
			uniSent = out.next
		}
		if in := n.uniIn[dst]; in != nil {
			uniDelivered = in.delivered
		}
		m.PushUint64(uniDelivered)
		m.PushUint64(uniSent)
		m.PushUint64(n.castOut.next)
		wire.PushCounts(m, n.counts)
		wire.PushIDList(m, n.castSrcs)
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
// suffix.
func (n *Nak) receiveStatus(ev *core.Event) {
	// Of the peer's vector only our own entry matters here: how much of
	// our cast stream it has.
	self, listed, acked := n.Ctx.Self(), false, uint64(0)
	matched := wire.PopPairs(ev.Msg, n.members, func(src core.EndpointID, count uint64) {
		if src == self {
			listed, acked = true, max(acked, count)
		}
	})
	peerCastSent := ev.Msg.PopUint64()
	peerUniSent := ev.Msg.PopUint64()      // peer -> us unicast stream
	peerUniDelivered := ev.Msg.PopUint64() // us -> peer unicast stream
	if !matched {
		return
	}
	if listed {
		n.ackedBy(ev.Source, acked)
	}
	n.nakTail(ev.Source, n.castInFor(ev.Source), streamCast, peerCastSent)
	n.nakTail(ev.Source, n.uniInFor(ev.Source), streamUni, peerUniSent)
	// Trim the unicast retransmission buffer to what the peer has.
	if out := n.uniOut[ev.Source]; out != nil {
		out.trim(peerUniDelivered)
	}
}

// nakTail requests the missing suffix of a stream whose sender claims
// to have sent more than we have seen, from above what is already
// asked for.
func (n *Nak) nakTail(src core.EndpointID, in *inStream, stream uint8, peerSent uint64) {
	maxPending, _ := in.pending.Highest()
	if lo := max(in.delivered, in.asked) + 1; peerSent >= lo && peerSent > maxPending {
		n.sendNakRange(src, in, stream, lo, peerSent)
	}
}

// peerAcks tracks, per member, how much of our cast stream they have.
// Stored lazily on the out stream.
func (n *Nak) ackedBy(member core.EndpointID, count uint64) {
	if n.castOut.acks == nil {
		n.castOut.acks = make(map[core.EndpointID]uint64)
	}
	if count > n.castOut.acks[member] {
		n.castOut.acks[member] = count
	}
	n.trimCastBuffer()
}

// trimCastBuffer drops buffered casts acknowledged by every member,
// this endpoint included: where the transport loops a cast back to its
// sender (castIn[self] exists), the sender's own count is what its
// receive stream has delivered, so a lost self-addressed copy is still
// held when the sender asks itself for it. Where it does not, the
// endpoint is owed nothing and its own count does not hold the ring.
func (n *Nak) trimCastBuffer() {
	if len(n.members) == 0 {
		return
	}
	self := n.Ctx.Self()
	min := n.castOut.next
	for _, m := range n.members {
		if m != self {
			min = minU64(min, n.castOut.acks[m])
		} else if in := n.castIn[self]; in != nil {
			min = minU64(min, in.delivered)
		}
	}
	n.castOut.trim(min)
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// heard records liveness evidence for a member.
func (n *Nak) heard(src core.EndpointID) {
	n.lastHeard[src] = n.Ctx.Now()
	if n.suspected[src] {
		delete(n.suspected, src)
	}
}

// checkSilence raises PROBLEM upcalls for members silent for
// suspectAfter status periods.
func (n *Nak) checkSilence() {
	if n.suspectAfter <= 0 {
		return
	}
	now := n.Ctx.Now()
	limit := time.Duration(n.suspectAfter) * n.statusPeriod
	for _, m := range n.members {
		if m == n.Ctx.Self() || n.suspected[m] {
			continue
		}
		last, ok := n.lastHeard[m]
		if !ok {
			// Never heard from: start the clock at view installation.
			n.lastHeard[m] = now
			continue
		}
		if now-last > limit {
			n.suspected[m] = true
			n.stats.ProblemsRaised++
			n.Ctx.Up(&core.Event{Type: core.UProblem, Source: m,
				Detail: &core.Detail{Reason: fmt.Sprintf("no traffic for %v", now-last)}})
		}
	}
}

// applyView adapts to the new membership. Sequence-number state is
// deliberately kept for endpoints outside the view: membership and
// merge control traffic crosses view boundaries on the same per-pair
// FIFO streams, so resetting a stream on one side while the other
// remembers its counters would make every later message look like a
// duplicate. Only the parts that would leak or misfire are cleaned:
// retransmission-request timers and out-of-order buffers of removed
// (likely dead) members, suspicion state, and ack bookkeeping.
func (n *Nak) applyView(ev *core.Event) {
	if ev.View == nil {
		return
	}
	n.members = append([]core.EndpointID(nil), ev.View.Members...)
	n.others = make([]core.EndpointID, 0, len(n.members))
	inView := make(map[core.EndpointID]bool, len(n.members))
	for _, m := range n.members {
		inView[m] = true
		if m != n.Ctx.Self() {
			n.others = append(n.others, m)
		}
	}
	stopGaps := func(streams map[core.EndpointID]*inStream) {
		for src, in := range streams {
			if inView[src] {
				continue
			}
			in.stopNak()
			// Gap fillers will never come from a dead sender; the
			// buffered out-of-order messages can never be delivered
			// FIFO and are dropped (virtual synchrony layers recover
			// what matters during the flush).
			in.pending.Reset()
		}
	}
	stopGaps(n.castIn)
	stopGaps(n.uniIn)
	for m := range n.suspected {
		if !inView[m] {
			delete(n.suspected, m)
		}
	}
	for m := range n.castOut.acks {
		if !inView[m] {
			delete(n.castOut.acks, m)
		}
	}
	// Restart the silence clock for everyone in the new view.
	now := n.Ctx.Now()
	for _, m := range n.members {
		n.lastHeard[m] = now
	}
	n.trimCastBuffer()
}

func (n *Nak) shutdown() {
	n.destroyed = true
	if n.statusCancel != nil {
		n.statusCancel()
	}
	for _, in := range n.castIn {
		in.stopNak()
	}
	for _, in := range n.uniIn {
		in.stopNak()
	}
}

func (n *Nak) dumpLine() string {
	return fmt.Sprintf("castSeq=%d buffered=%d retransmits=%d naks=%d status=%d suspected=%d",
		n.castOut.next, n.castOut.held, n.stats.Retransmits, n.stats.NaksSent, n.stats.StatusSent, len(n.suspected))
}
