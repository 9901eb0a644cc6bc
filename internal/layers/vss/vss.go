// Package vss implements the VSS layer of Table 3: virtually
// synchronous *sending*. Like FLUSH it upgrades a BMS layer's
// semi-synchrony toward virtual synchrony (P9), but with the cheaper
// sender-driven discipline: during a view change each member
// retransmits only its *own* unstable multicasts (known from the
// stability information of a STABLE layer below, property P14),
// rather than everything it has delivered. The flush exchange itself
// is FLUSH's (vslog.Exchange); only what enters the log differs.
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
	"horus/internal/vslog"
)

// Vss is one VSS layer instance.
type Vss struct {
	core.Base

	x       vslog.Exchange // the flush exchange and what was delivered
	sendSeq uint64         // our casts, aligned with STABLE's stamps
	sent    vslog.Log      // our unstable casts
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
func (v *Vss) Stats() Stats { return Stats{Resent: v.x.Forwarded, Flushes: v.x.Flushes} }

// Init implements core.Layer.
func (v *Vss) Init(c *core.Context) error {
	if err := v.Base.Init(c); err != nil {
		return err
	}
	v.x.Init(c, "vss", nil)
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
		v.x.Send(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("VSS: buffered=%d resent=%d flushes=%d",
			v.sent.Len(), v.x.Forwarded, v.x.Flushes))
		v.Ctx.Down(ev)
	default:
		v.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (v *Vss) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		v.x.Cast(ev)
	case core.USend:
		v.x.Receive(ev)
	case core.UStable:
		v.sent.Trim(ev.Stability)
		v.Ctx.Up(ev)
	case core.UFlush:
		v.x.Start(ev.Failed, &v.sent)
		v.Ctx.Up(ev)
	case core.UView:
		v.x.View(ev.View)
		v.Ctx.Up(ev)
	default:
		v.Ctx.Up(ev)
	}
}
