// Package frag implements the FRAG layer: fragmentation and reassembly
// of large messages (paper §7).
//
// Typical networks limit message size; when a message exceeds the
// maximum, FRAG splits it into fragments, pushing on each "a boolean
// value that indicates whether it is the last one or not" — the
// paper's one-bit header. FRAG depends on the FIFO ordering of the
// layer below it (NAK) for reassembly: fragments of one source arrive
// in order on their channel, so a fragment with the more-bit clear
// completes the current accumulation.
//
// A message that must be split is rendered to wire form (upper-layer
// headers plus body) and cut into fragments, so reassembly reconstructs
// the exact message including headers. That marshal/unmarshal round
// trip is the ≈50 µs one-way latency the paper reports for this layer
// (§10), reproduced by BenchmarkFragOverhead — and only a message that
// splits pays it. One that fits stays the message it is: FRAG pushes
// the length of the headers above it and a clear more-bit, and pops
// them on the way up. On the wire that is a last fragment carrying the
// marshalled message; the two are told apart by where the content
// sits — a fragment has nothing behind its more-bit, a whole message at
// least the four bytes of its header length.
//
// Reassembly holds what it was handed and copies once. A fragment's
// body is a read-only view of the wire buffer it arrived in (the rule on
// core.Endpoint.Deliver); a partial message is the list of those views,
// in arrival order, and the last fragment — the first moment the size
// is known — allocates exactly that, copies them in, and hands the
// buffer to message.Unmarshal. A held view keeps its wire buffer alive
// until then, or until a LOST_MESSAGE or a view without the source lets
// the partial go. What a peer can make a member hold is bounded:
// MaxMessage bytes and the number of fragments that comes to, past which
// the partial is dropped, reported once as a SYSTEM_ERROR and the rest
// of the message discarded through its last fragment. On the way down
// the fragments are views of FRAG's own marshalled image, declared
// shared (message.NewShared), so NAK's retransmission buffer keeps them
// without copying.
//
// Properties: requires P3, P4, P10, P11; provides P12 (large messages).
package frag

import (
	"fmt"

	"horus/internal/core"
	"horus/internal/message"
)

// DefaultMaxFragment is the default maximum wire size per fragment.
const DefaultMaxFragment = 1024

// MaxMessage is the largest message, in wire form, that FRAG carries in
// fragments. Down refuses a larger one; Up drops a reassembly that
// would pass it, which no FRAG sent, so what a peer can make a member
// hold is bounded however long it keeps the more-bit set.
const MaxMessage = 1 << 20

// minFragment is the smallest fragment size Init accepts, and
// maxFragments what a message of MaxMessage bytes cut that small comes
// to: the bound on how many fragments one reassembly holds, which keeps
// a flood of one-byte fragments from holding a wire buffer each.
const (
	minFragment  = 16
	maxFragments = MaxMessage / minFragment
)

// moreBit values.
const (
	lastFragment = 0
	moreToCome   = 1
)

// Frag is one FRAG layer instance.
type Frag struct {
	core.Base
	max   int
	cast  map[core.EndpointID]*partial // per-source reassembly, multicast channel
	send  map[core.EndpointID]*partial // per-source reassembly, unicast channel
	stats Stats
}

// partial is one source's reassembly in progress on one channel. It
// holds the fragment bodies as they arrived — read-only views of wire
// buffers, which stay alive while held — and copies them once, when the
// last fragment says how long the message is. A source's partial stays
// in its map between messages, empty, so the next reassembly reuses the
// list.
type partial struct {
	parts [][]byte
	size  int  // sum of len(parts[i])
	skip  bool // overflowed: discard up to and including the next last fragment
}

// release lets go of the held fragments.
func (p *partial) release() {
	clear(p.parts)
	p.parts, p.size = p.parts[:0], 0
}

// Stats counts FRAG activity.
type Stats struct {
	Fragmented  int // messages that needed splitting
	Fragments   int // fragments sent
	Reassembled int // multi-fragment messages delivered
}

// New returns a FRAG layer with the default fragment size.
func New() core.Layer { return &Frag{max: DefaultMaxFragment} }

// NewWithSize returns a factory for FRAG layers with the given maximum
// fragment wire size.
func NewWithSize(max int) core.Factory {
	return func() core.Layer { return &Frag{max: max} }
}

// Name implements core.Layer.
func (f *Frag) Name() string { return "FRAG" }

// Stats returns a snapshot of the layer's counters.
func (f *Frag) Stats() Stats { return f.stats }

// Init implements core.Layer.
func (f *Frag) Init(c *core.Context) error {
	if err := f.Base.Init(c); err != nil {
		return err
	}
	if f.max < minFragment {
		return fmt.Errorf("frag: maximum fragment size %d too small", f.max)
	}
	f.cast = make(map[core.EndpointID]*partial)
	f.send = make(map[core.EndpointID]*partial)
	return nil
}

// Down implements core.Layer.
func (f *Frag) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		if 4+ev.Msg.Len() <= f.max {
			ev.Msg.PushUint32(uint32(ev.Msg.HeaderLen()))
			ev.Msg.PushUint8(lastFragment)
			f.stats.Fragments++
			f.Ctx.Down(ev)
			return
		}
		if 4+ev.Msg.Len() > MaxMessage {
			f.Ctx.Up(&core.Event{Type: core.USystemError, Source: f.Ctx.Self(),
				Detail: &core.Detail{Reason: fmt.Sprintf("frag: message of %d bytes exceeds the %d a reassembly holds", ev.Msg.Len(), MaxMessage)}})
			return
		}
		// The image is cut into fragments that view it and is never
		// written again, so a layer that retains a fragment (NAK) shares
		// its bytes.
		wire := ev.Msg.Marshal()
		f.stats.Fragmented++
		for off := 0; off < len(wire); off += f.max {
			end := off + f.max
			more := uint8(moreToCome)
			if end >= len(wire) {
				end = len(wire)
				more = lastFragment
			}
			m := message.NewShared(wire[off:end])
			m.PushUint8(more)
			f.stats.Fragments++
			f.Ctx.Down(&core.Event{Type: ev.Type, Msg: m, Dests: ev.Dests})
		}
	case core.DView:
		f.applyView(ev)
		f.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("FRAG: max=%d fragmented=%d fragments=%d reassembled=%d",
			f.max, f.stats.Fragmented, f.stats.Fragments, f.stats.Reassembled))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (f *Frag) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		if ev.Msg.HeaderLen() == 0 {
			f.malformed(ev, "no more-bit")
			return
		}
		more := ev.Msg.PopUint8()
		if n := ev.Msg.HeaderLen(); n > 0 {
			// A whole message, in place: the length counts exactly the
			// headers that follow. A partial accumulation from the
			// source (possible only around a loss) is left alone.
			if more != lastFragment || n < 4 || uint64(ev.Msg.PopUint32()) != uint64(n-4) {
				f.malformed(ev, "whole-message header length does not match")
				return
			}
			f.Ctx.Up(ev)
			return
		}
		p, body := f.partialFor(ev), ev.Msg.Body()
		last := more != moreToCome
		switch {
		case p.skip:
			p.skip = !last
			return
		case p.size+len(body) > MaxMessage || len(p.parts) == maxFragments:
			p.release()
			p.skip = !last
			f.malformed(ev, fmt.Sprintf("more than %d bytes or %d fragments", MaxMessage, maxFragments))
			return
		case !last:
			p.parts = append(p.parts, body)
			p.size += len(body)
			return
		}
		// The one copy: into a buffer of exactly the message's size, which
		// is FRAG's own and is let go of here, so the reassembled message
		// can be a view of it.
		whole := make([]byte, 0, p.size+len(body))
		for _, part := range p.parts {
			whole = append(whole, part...)
		}
		whole = append(whole, body...)
		p.release()
		m, err := message.Unmarshal(whole)
		if err != nil {
			f.malformed(ev, err.Error())
			return
		}
		if len(whole) > f.max {
			f.stats.Reassembled++
		}
		ev.Msg = m
		f.Ctx.Up(ev)
	case core.ULostMessage:
		// A fragment in the middle of a sequence is gone for good;
		// the partial accumulation from that source can never
		// complete. Drop it and report the loss upward once.
		delete(f.cast, ev.Source)
		delete(f.send, ev.Source)
		f.Ctx.Up(ev)
	default:
		f.Ctx.Up(ev)
	}
}

// malformed reports a fragment that cannot be what any FRAG sent — line
// damage, on a stack without a checksum beneath — and drops it.
func (f *Frag) malformed(ev *core.Event, why string) {
	f.Ctx.Up(&core.Event{Type: core.USystemError, Source: ev.Source,
		Detail: &core.Detail{Reason: "frag: reassembly produced malformed message: " + why}})
}

// partialFor returns the reassembly of ev's source on ev's channel.
func (f *Frag) partialFor(ev *core.Event) *partial {
	buf := f.send
	if ev.Type == core.UCast {
		buf = f.cast
	}
	p := buf[ev.Source]
	if p == nil {
		p = new(partial)
		buf[ev.Source] = p
	}
	return p
}

// applyView drops reassembly buffers of members that left the view.
func (f *Frag) applyView(ev *core.Event) {
	if ev.View == nil {
		return
	}
	inView := make(map[core.EndpointID]bool, len(ev.View.Members))
	for _, m := range ev.View.Members {
		inView[m] = true
	}
	for src := range f.cast {
		if !inView[src] {
			delete(f.cast, src)
		}
	}
	for src := range f.send {
		if !inView[src] {
			delete(f.send, src)
		}
	}
}
