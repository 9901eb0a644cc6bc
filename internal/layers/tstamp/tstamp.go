// Package tstamp implements the TSTAMP layer: causal (vector)
// timestamps, property P13.
//
// Table 3 of the paper lists P13 as a requirement of ORDER(causal) but
// names no provider; this layer is the reconstruction (see DESIGN.md).
// On each outgoing multicast it pushes the sender's vector timestamp —
// indexed by the current view's ranks — and on delivery it pops the
// vector into the event's Timestamp field for the ordering layer above
// to consume. The vector follows the standard causal-broadcast
// convention: entry r counts the messages from rank r that causally
// precede this one, and the sender's own entry is the 1-based index of
// this message in its stream.
//
// Properties: requires P3, P4, P9, P15; provides P13.
package tstamp

import (
	"fmt"

	"horus/internal/core"
	"horus/internal/wire"
)

// Wire kinds.
const (
	kData = 1
	kSend = 2
)

// Tstamp is one TSTAMP layer instance.
type Tstamp struct {
	core.Base
	view   *core.View
	vector []uint64 // deliveries seen per rank; own entry counts our sends
	myRank int
	stats  Stats
}

// Stats counts TSTAMP activity.
type Stats struct {
	Stamped int
}

// New returns a TSTAMP layer.
func New() core.Layer { return &Tstamp{myRank: -1} }

// Name implements core.Layer.
func (t *Tstamp) Name() string { return "TSTAMP" }

// Stats returns a snapshot of the layer's counters.
func (t *Tstamp) Stats() Stats { return t.stats }

// Down implements core.Layer.
func (t *Tstamp) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		if t.myRank < 0 {
			// No view yet: cannot stamp; the causal layer above will
			// reject unstamped data, so fail loudly.
			t.Ctx.Up(&core.Event{Type: core.USystemError,
				Detail: &core.Detail{Reason: "tstamp: cast before first view installation"}})
			return
		}
		t.vector[t.myRank]++
		t.stats.Stamped++
		wire.PushCounts(ev.Msg, t.vector)
		ev.Msg.PushUint8(kData)
		t.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		t.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("TSTAMP: rank=%d vector=%v", t.myRank, t.vector))
		t.Ctx.Down(ev)
	default:
		t.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (t *Tstamp) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		kind := ev.Msg.PopUint8()
		if kind != kData {
			return
		}
		ev.Timestamp = wire.PopCounts(ev.Msg)
		t.noteDelivery(ev)
		t.Ctx.Up(ev)
	case core.USend:
		kind := ev.Msg.PopUint8()
		if kind != kSend {
			return
		}
		t.Ctx.Up(ev)
	case core.UView:
		t.view = ev.View
		t.vector = make([]uint64, ev.View.Size())
		t.myRank = ev.View.Rank(t.Ctx.Self())
		t.Ctx.Up(ev)
	default:
		t.Ctx.Up(ev)
	}
}

// noteDelivery advances the local vector for a peer's message so later
// sends carry the causal dependency. Our own loop-back copy is skipped
// (our entry counts sends, already incremented at cast time).
func (t *Tstamp) noteDelivery(ev *core.Event) {
	if t.view == nil {
		return
	}
	r := t.view.Rank(ev.Source)
	if r < 0 || r == t.myRank || r >= len(t.vector) {
		return
	}
	if r < len(ev.Timestamp) && ev.Timestamp[r] > t.vector[r] {
		t.vector[r] = ev.Timestamp[r]
	}
}
