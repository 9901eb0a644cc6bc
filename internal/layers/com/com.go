// Package com implements the COM layer: the bottom of every stack,
// translating the low-level network interface into the Horus Common
// Protocol Interface (paper §7).
//
// COM keeps track of the source of messages "by pushing the address of
// the source endpoint on each outgoing message", can filter out
// spurious messages from endpoints not in its view, and — because a
// view at this level is nothing but the set of destination endpoints —
// uses the most recent view downcall as the multicast destination set.
//
// Properties: requires P1 (best-effort network); provides P10 (byte
// re-ordering detection is delegated to the wire format's length
// framing) and P11 (source address).
package com

import (
	"fmt"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// Message kinds on the wire.
const (
	kindCast   = 1
	kindSend   = 2
	kindLocate = 3
)

// Com is the bottom protocol layer.
type Com struct {
	core.Base
	members []core.EndpointID // destination set from the last view downcall
	filter  bool              // drop packets from endpoints outside the view
	stats   Stats
}

// Stats counts COM activity, exposed through Focus for tests and the
// accounting tools.
type Stats struct {
	Sent     int // messages transmitted (casts and sends)
	Received int // messages delivered upward
	Filtered int // messages dropped by view filtering
}

// New returns a COM layer factory with filtering disabled.
func New() core.Layer { return &Com{} }

// NewFiltering returns a factory for COM layers that drop packets from
// sources outside the current view ("filters out spurious messages
// from endpoints not in its view", §7). Membership traffic from
// not-yet-members must bypass such stacks, so filtering defaults off.
func NewFiltering() core.Layer { return &Com{filter: true} }

// Name implements core.Layer.
func (c *Com) Name() string { return "COM" }

// Stats returns a snapshot of the layer's counters.
func (c *Com) Stats() Stats { return c.stats }

// Down implements core.Layer.
func (c *Com) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		ev.Msg.PushUint8(kindCast)
		wire.PushEndpointID(ev.Msg, c.Ctx.Self())
		c.stats.Sent++
		c.Ctx.Transmit(c.members, ev.Msg)
	case core.DSend:
		ev.Msg.PushUint8(kindSend)
		wire.PushEndpointID(ev.Msg, c.Ctx.Self())
		c.stats.Sent++
		c.Ctx.Transmit(ev.Dests, ev.Msg)
	case core.DLocate:
		ev.Msg.PushUint8(kindLocate)
		wire.PushEndpointID(ev.Msg, c.Ctx.Self())
		c.stats.Sent++
		// Empty destination set broadcasts on the shared medium,
		// reaching endpoints beyond the current view.
		c.Ctx.Transmit(nil, ev.Msg)
	case core.DView:
		if ev.View != nil {
			c.members = append([]core.EndpointID(nil), ev.View.Members...)
		}
		c.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, "COM: "+c.dumpLine())
		c.Ctx.Down(ev)
	default:
		c.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (c *Com) Up(ev *core.Event) {
	if ev.Type != core.UPacket {
		c.Ctx.Up(ev)
		return
	}
	// A view member's address is recognised in place; only a sender
	// outside the view (discovery traffic) costs a site string.
	src := wire.PopKnownEndpointID(ev.Msg, c.members)
	kind := ev.Msg.PopUint8()
	ev.Source = src
	switch kind {
	case kindCast:
		ev.Type = core.UCast
	case kindSend:
		ev.Type = core.USend
	case kindLocate:
		ev.Type = core.ULocate
		c.stats.Received++
		c.Ctx.Up(ev)
		return
	default:
		// Garbled kind byte; indistinguishable from line noise.
		c.stats.Filtered++
		return
	}
	if c.filter && !c.inView(src) {
		c.stats.Filtered++
		return
	}
	c.stats.Received++
	c.Ctx.Up(ev)
}

// CompileCast implements core.CastCompiler. COM's cast header is fully
// static — [source endpoint][kindCast], with the source fixed at stack
// composition — and COM is the transmitting bottom of the plan: the
// destination set is read live at transmit time, so view installs keep
// working under a compiled stack.
func (c *Com) CompileCast() core.CompiledCast {
	probe := message.New(nil)
	probe.PushUint8(kindCast)
	wire.PushEndpointID(probe, c.Ctx.Self())
	static := append([]byte(nil), probe.Header()...)
	return core.CompiledCast{
		Static: static,
		Transmit: func(ev *core.Event, w []byte) {
			c.stats.Sent++
			c.Ctx.TransmitWire(c.members, w)
		},
	}
}

func (c *Com) inView(e core.EndpointID) bool {
	for _, m := range c.members {
		if m == e {
			return true
		}
	}
	return false
}

func (c *Com) dumpLine() string {
	return fmt.Sprintf("members=%d sent=%d received=%d filtered=%d",
		len(c.members), c.stats.Sent, c.stats.Received, c.stats.Filtered)
}

// NewMessage is a convenience for tests: a message with the given
// payload string.
func NewMessage(payload string) *message.Message {
	return message.New([]byte(payload))
}
