// Package flush implements the FLUSH layer of Table 3: it upgrades the
// virtually *semi*-synchronous delivery of a BMS layer below it
// (property P8) to full virtual synchrony (P9) by redistributing
// unstable messages during view changes. BMS+FLUSH decomposes the
// monolithic MBRSHIP layer, which is exactly the modularity §11 of the
// paper advertises ("in the past, our work on Isis was clouded by an
// architecture in which protocols for group communication were mixed
// with protocols for membership agreement").
//
// Operation: the layer logs every multicast it delivers, named by the
// MsgID the stability layer below (property P14) attaches; it pushes no
// header of its own on a cast. When BMS reports a flush (the FLUSH
// upcall), every member forwards its unstable log to the surviving
// members, follows it with a DONE marker, and sends the flush_ok
// downcall only after collecting DONE from every survivor — the flush
// exchange it shares with VSS (vslog.Exchange), which differs only in
// logging its own casts rather than every delivery.
//
// STABLE upcalls trim the log so only genuinely unstable messages are
// redistributed.
//
// Properties: requires P3, P4, P8, P10, P11, P12, P14, P15;
// provides P9.
package flush

import (
	"fmt"

	"horus/internal/core"
	"horus/internal/vslog"
)

// Flush is one FLUSH layer instance.
type Flush struct {
	core.Base

	x   vslog.Exchange // the flush exchange and what was delivered
	log vslog.Log      // this view's unstable deliveries
}

// Stats counts FLUSH activity.
type Stats struct {
	FwdsSent      int
	FwdsDelivered int
	Flushes       int
}

// New returns a FLUSH layer.
func New() core.Layer { return &Flush{} }

// Name implements core.Layer.
func (f *Flush) Name() string { return "FLUSH" }

// Stats returns a snapshot of the layer's counters.
func (f *Flush) Stats() Stats {
	return Stats{FwdsSent: f.x.Forwarded, FwdsDelivered: f.x.FwdsDelivered, Flushes: f.x.Flushes}
}

// Init implements core.Layer.
func (f *Flush) Init(c *core.Context) error {
	if err := f.Base.Init(c); err != nil {
		return err
	}
	f.x.Init(c, "flush", f.logDelivery)
	return nil
}

// logDelivery logs every cast delivered, forwarded ones too.
func (f *Flush) logDelivery(ev *core.Event) { f.log.Add(ev.ID.Origin, ev.ID.Seq, ev.Msg) }

// Down implements core.Layer.
func (f *Flush) Down(ev *core.Event) {
	switch ev.Type {
	case core.DSend:
		f.x.Send(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("FLUSH: logged=%d flushes=%d fwds=%d",
			f.log.Len(), f.x.Flushes, f.x.Forwarded))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (f *Flush) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		f.x.Cast(ev)
	case core.USend:
		f.x.Receive(ev)
	case core.UFlush:
		f.x.Start(ev.Failed, &f.log)
		f.Ctx.Up(ev)
	case core.UView:
		// Message identities are continuous across views, so what was
		// delivered is kept; the log starts over.
		f.x.View(ev.View)
		f.log.Reset()
		f.Ctx.Up(ev)
	case core.UStable:
		f.log.Trim(ev.Stability)
		f.Ctx.Up(ev)
	default:
		f.Ctx.Up(ev)
	}
}
