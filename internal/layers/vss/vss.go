// Package vss implements the VSS layer of Table 3: virtually
// synchronous *sending*. Like FLUSH it upgrades a BMS layer's
// semi-synchrony toward virtual synchrony (P9), but with the cheaper
// sender-driven discipline: during a view change each member
// retransmits only its *own* unstable multicasts (known from the
// stability information of a STABLE layer below, property P14),
// rather than everything it has delivered.
//
// The saving has a price the name is honest about: messages whose
// sender is among the failed cannot be recovered by anyone, so the
// guarantee is virtual synchrony for messages from surviving senders.
// For full recovery of failed senders' messages use MBRSHIP or
// BMS+FLUSH; Table 3's multiple membership rows exist precisely
// because these disciplines trade cost against strength.
//
// Stack order: VSS above STABLE above BMS. VSS relies on the message
// identities STABLE attaches to deliveries and on BMS waiting for
// flush_ok.
//
// Properties: requires P3, P8, P10, P11, P12, P14, P15; provides P9
// (for surviving senders).
package vss

import (
	"fmt"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/vslog"
)

// Wire kinds.
const (
	kSend = 1 // subset send pass-through
	kFwd  = 2 // own-message retransmission {seq, wire}
	kDone = 3 // retransmission complete
)

// Vss is one VSS layer instance.
type Vss struct {
	core.Base

	view *core.View

	sendSeq   uint64          // our casts, aligned with STABLE's stamps
	sent      vslog.Log       // our unstable casts
	delivered vslog.Delivered // by the identities STABLE attaches

	flushing  bool
	failed    map[core.EndpointID]bool
	doneFrom  map[core.EndpointID]bool
	consented bool

	stats Stats
}

// Stats counts VSS activity.
type Stats struct {
	Resent  int
	Flushes int
}

// New returns a VSS layer.
func New() core.Layer { return &Vss{} }

// Name implements core.Layer.
func (v *Vss) Name() string { return "VSS" }

// Stats returns a snapshot of the layer's counters.
func (v *Vss) Stats() Stats { return v.stats }

// Init implements core.Layer.
func (v *Vss) Init(c *core.Context) error {
	if err := v.Base.Init(c); err != nil {
		return err
	}
	v.failed = make(map[core.EndpointID]bool)
	v.doneFrom = make(map[core.EndpointID]bool)
	return nil
}

// Down implements core.Layer.
func (v *Vss) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		// STABLE below will stamp this cast with our next sequence
		// number; mirror the count so the retransmission buffer is
		// keyed identically.
		v.sendSeq++
		v.sent.Add(v.Ctx.Self(), v.sendSeq, ev.Msg)
		v.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		v.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("VSS: buffered=%d resent=%d flushes=%d",
			v.sent.Len(), v.stats.Resent, v.stats.Flushes))
		v.Ctx.Down(ev)
	default:
		v.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (v *Vss) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		if ev.ID.Origin.IsZero() {
			v.Ctx.Up(&core.Event{Type: core.USystemError,
				Detail: &core.Detail{Reason: "vss: CAST without message identity (no stability layer below?)"}})
			return
		}
		if v.delivered.Has(ev.ID.Origin, ev.ID.Seq) {
			return
		}
		v.delivered.Add(ev.ID.Origin, ev.ID.Seq)
		v.Ctx.Up(ev)
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			v.Ctx.Up(ev)
		case kFwd:
			v.receiveFwd(ev)
		case kDone:
			v.doneFrom[ev.Source] = true
			v.checkComplete()
		}
	case core.UStable:
		v.sent.Trim(ev.Stability)
		v.Ctx.Up(ev)
	case core.UFlush:
		v.startFlush(ev)
		v.Ctx.Up(ev)
	case core.UView:
		v.applyView(ev.View)
		v.Ctx.Up(ev)
	default:
		v.Ctx.Up(ev)
	}
}

// startFlush retransmits our own unstable casts and announces
// completion.
func (v *Vss) startFlush(ev *core.Event) {
	v.stats.Flushes++
	v.flushing = true
	v.consented = false
	for _, e := range ev.Failed {
		v.failed[e] = true
	}
	dests := v.survivorsExceptSelf()
	v.sent.Each(func(_ core.EndpointID, seq uint64, msg *message.Message) {
		v.stats.Resent++
		if len(dests) > 0 {
			fwd := core.NewSendToAll(dests, 0)
			fwd.Msg.SetBody(msg.Marshal())
			fwd.Msg.PushUint(seq)
			fwd.Msg.PushUint8(kFwd)
			v.Ctx.Down(fwd)
		}
	})
	if len(dests) > 0 {
		done := core.NewSendToAll(dests, 0)
		done.Msg.PushUint8(kDone)
		v.Ctx.Down(done)
	}
	v.doneFrom[v.Ctx.Self()] = true
	v.checkComplete()
}

// receiveFwd delivers a retransmitted cast if new.
func (v *Vss) receiveFwd(ev *core.Event) {
	seq := ev.Msg.PopUint()
	id := core.MsgID{Origin: ev.Source, Seq: seq}
	if v.delivered.Has(id.Origin, id.Seq) {
		return
	}
	inner, err := message.Unmarshal(ev.Msg.Body())
	if err != nil {
		return
	}
	v.delivered.Add(id.Origin, id.Seq)
	v.Ctx.Up(&core.Event{Type: core.UCast, Msg: inner, Source: ev.Source, ID: id})
}

func (v *Vss) checkComplete() {
	if !v.flushing || v.consented || v.view == nil {
		return
	}
	for _, m := range v.view.Members {
		if v.failed[m] {
			continue
		}
		if !v.doneFrom[m] {
			return
		}
	}
	v.consented = true
	v.Ctx.Down(&core.Event{Type: core.DFlushOK})
}

func (v *Vss) survivorsExceptSelf() []core.EndpointID {
	if v.view == nil {
		return nil
	}
	out := make([]core.EndpointID, 0, len(v.view.Members))
	for _, m := range v.view.Members {
		if m != v.Ctx.Self() && !v.failed[m] {
			out = append(out, m)
		}
	}
	return out
}

func (v *Vss) applyView(view *core.View) {
	v.view = view
	v.flushing = false
	v.consented = false
	v.failed = make(map[core.EndpointID]bool)
	v.doneFrom = make(map[core.EndpointID]bool)
}
