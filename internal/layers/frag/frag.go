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
// The whole message content (upper-layer headers plus body) is
// rendered to wire form and split, so reassembly reconstructs the
// exact message including headers — and every message, fragmented or
// not, pays one marshal/unmarshal round trip. That cost is the ≈50 µs
// one-way latency the paper reports for this layer (§10), reproduced
// by BenchmarkFragOverhead.
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

// moreBit values.
const (
	lastFragment = 0
	moreToCome   = 1
)

// Frag is one FRAG layer instance.
type Frag struct {
	core.Base
	max   int
	cast  map[core.EndpointID][]byte // per-source reassembly, multicast channel
	send  map[core.EndpointID][]byte // per-source reassembly, unicast channel
	stats Stats
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
	if f.max < 16 {
		return fmt.Errorf("frag: maximum fragment size %d too small", f.max)
	}
	f.cast = make(map[core.EndpointID][]byte)
	f.send = make(map[core.EndpointID][]byte)
	return nil
}

// Down implements core.Layer.
func (f *Frag) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		wire := ev.Msg.Marshal()
		if len(wire) <= f.max {
			m := message.New(wire)
			m.PushUint8(lastFragment)
			f.stats.Fragments++
			f.pass(ev, m)
			return
		}
		f.stats.Fragmented++
		for off := 0; off < len(wire); off += f.max {
			end := off + f.max
			more := uint8(moreToCome)
			if end >= len(wire) {
				end = len(wire)
				more = lastFragment
			}
			m := message.New(wire[off:end])
			m.PushUint8(more)
			f.stats.Fragments++
			f.pass(ev, m)
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

// pass sends one fragment down with the same event shape as the
// original.
func (f *Frag) pass(orig *core.Event, m *message.Message) {
	f.Ctx.Down(&core.Event{Type: orig.Type, Msg: m, Dests: orig.Dests})
}

// Up implements core.Layer.
func (f *Frag) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		more := ev.Msg.PopUint8()
		buf := f.bufFor(ev)
		acc, partial := buf[ev.Source]
		if more == moreToCome {
			buf[ev.Source] = append(acc, ev.Msg.Body()...)
			return
		}
		if partial {
			// The accumulator is FRAG's own and is let go of here, so
			// the reassembled message can be a view of it.
			acc = append(acc, ev.Msg.Body()...)
			delete(buf, ev.Source)
		} else {
			// A whole message in one fragment: view its bytes where
			// they arrived.
			acc = ev.Msg.Body()
		}
		m, err := message.Unmarshal(acc)
		if err != nil {
			f.Ctx.Up(&core.Event{Type: core.USystemError, Source: ev.Source,
				Reason: "frag: reassembly produced malformed message: " + err.Error()})
			return
		}
		if len(acc) > f.max {
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

// CompileCast implements core.CastCompiler for the single-fragment
// case. FRAG is a rewrap layer: the reference path marshals the whole
// message and wraps it in a fresh one, so the compiled frame folds the
// accumulated header into the body behind an engine-written length
// prefix, and FRAG's own header is the one-byte more-bit. The Fits
// gate reproduces the `len(wire) <= f.max` test against the would-be
// marshalled size; oversized casts fall back to the reference path and
// split there.
func (f *Frag) CompileCast() (core.CompiledCast, bool) {
	return core.CompiledCast{
		Width:  1,
		Rewrap: true,
		Fits: func(hdrLen, bodyLen int) bool {
			return 4+hdrLen+bodyLen <= f.max
		},
		Fill: func(fr *core.CastFrame) {
			fr.Own[0] = lastFragment
			f.stats.Fragments++
		},
	}, true
}

func (f *Frag) bufFor(ev *core.Event) map[core.EndpointID][]byte {
	if ev.Type == core.UCast {
		return f.cast
	}
	return f.send
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

// Transparent implements core.Skipper: FRAG acts on message-bearing
// events, view installs (to trim reassembly buffers), and stream-loss
// reports; everything else is skipped (§10 item 1).
func (f *Frag) Transparent(t core.EventType, down bool) bool {
	if down {
		switch t {
		case core.DCast, core.DSend, core.DView, core.DDump:
			return false
		}
		return true
	}
	switch t {
	case core.UCast, core.USend, core.ULostMessage:
		return false
	}
	return true
}
