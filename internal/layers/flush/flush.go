// Package flush implements the FLUSH layer of Table 3: it upgrades the
// virtually *semi*-synchronous delivery of a BMS layer below it
// (property P8) to full virtual synchrony (P9) by redistributing
// unstable messages during view changes. BMS+FLUSH decomposes the
// monolithic MBRSHIP layer, which is exactly the modularity §11 of the
// paper advertises ("in the past, our work on Isis was clouded by an
// architecture in which protocols for group communication were mixed
// with protocols for membership agreement").
//
// Operation: the layer stamps and logs every multicast it delivers.
// When BMS reports a flush (the FLUSH upcall), every member multicasts
// its unstable log to the surviving members, follows it with a DONE
// marker, and sends the flush_ok downcall only after collecting DONE
// from every survivor. FIFO channels below guarantee that a member's
// forwarded messages precede its DONE, so when everyone has consented,
// everyone has everything — and BMS may install the view. A DONE names
// the failure set it was sent under, and counts only toward a flush
// whose failures it names all of: a survivor that forwarded before it
// knew of a failure may since have delivered more of the failed
// member's casts, and forwards again when the wider flush reaches it.
//
// If a stability layer sits below (property P14), STABLE upcalls trim
// the log so only genuinely unstable messages are redistributed.
//
// Properties: requires P3, P4, P8, P10, P11, P12, P14, P15;
// provides P9.
package flush

import (
	"fmt"
	"slices"
	"sort"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// Wire kinds.
const (
	kData = 1 // stamped multicast {seq}
	kSend = 2 // subset send pass-through
	kFwd  = 3 // unstable redistribution {origin, seq, wire}
	kDone = 4 // this member's redistribution is complete {failed}
)

// Flush is one FLUSH layer instance.
type Flush struct {
	core.Base

	view    *core.View
	sendSeq uint64

	delivered vslog.Delivered // kept across views: message identities are continuous
	log       vslog.Log       // this view's unstable deliveries

	flushing  bool
	failed    map[core.EndpointID]bool
	doneFrom  map[core.EndpointID][]core.EndpointID // per member, the failure set of its latest DONE
	consented bool

	stats Stats
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
func (f *Flush) Stats() Stats { return f.stats }

// Init implements core.Layer.
func (f *Flush) Init(c *core.Context) error {
	if err := f.Base.Init(c); err != nil {
		return err
	}
	f.failed = make(map[core.EndpointID]bool)
	f.doneFrom = make(map[core.EndpointID][]core.EndpointID)
	return nil
}

// Down implements core.Layer.
func (f *Flush) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		f.sendSeq++
		ev.Msg.PushUint(f.sendSeq)
		ev.Msg.PushUint8(kData)
		f.Ctx.Down(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		f.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("FLUSH: logged=%d flushes=%d fwds=%d",
			f.log.Len(), f.stats.Flushes, f.stats.FwdsSent))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (f *Flush) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kData:
			f.receiveData(ev)
		}
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			f.Ctx.Up(ev)
		case kFwd:
			f.receiveFwd(ev)
		case kDone:
			f.receiveDone(ev)
		}
	case core.UFlush:
		f.startFlush(ev)
		f.Ctx.Up(ev)
	case core.UView:
		f.applyView(ev.View)
		f.Ctx.Up(ev)
	case core.UStable:
		f.log.Trim(ev.Stability)
		f.Ctx.Up(ev)
	default:
		f.Ctx.Up(ev)
	}
}

// receiveData delivers a stamped multicast once.
func (f *Flush) receiveData(ev *core.Event) {
	seq := ev.Msg.PopUint()
	if f.delivered.Has(ev.Source, seq) {
		return
	}
	f.delivered.Add(ev.Source, seq)
	f.log.Add(ev.Source, seq, ev.Msg)
	f.Ctx.Up(ev)
}

// startFlush redistributes the unstable log and announces completion.
// A wider failure set restarts the exchange: everything is forwarded
// again, and the DONE that follows names the wider set.
func (f *Flush) startFlush(ev *core.Event) {
	f.stats.Flushes++
	f.flushing = true
	f.consented = false
	for _, e := range ev.Failed {
		f.failed[e] = true
	}
	failed := make([]core.EndpointID, 0, len(f.failed))
	for e := range f.failed {
		failed = append(failed, e)
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i].Older(failed[j]) })
	dests := f.survivorsExceptSelf()
	f.log.Each(func(origin core.EndpointID, seq uint64, msg *message.Message) {
		f.stats.FwdsSent++
		if len(dests) > 0 {
			fwd := core.NewSendToAll(dests, 0)
			fwd.Msg.SetBody(msg.Marshal())
			fwd.Msg.PushUint(seq)
			wire.PushEndpointID(fwd.Msg, origin)
			fwd.Msg.PushUint8(kFwd)
			f.Ctx.Down(fwd)
		}
	})
	if len(dests) > 0 {
		done := core.NewSendToAll(dests, 0)
		wire.PushIDList(done.Msg, failed)
		done.Msg.PushUint8(kDone)
		f.Ctx.Down(done)
	}
	f.doneFrom[f.Ctx.Self()] = failed
	f.checkComplete()
}

// receiveFwd delivers a redistributed message if it is new.
func (f *Flush) receiveFwd(ev *core.Event) {
	origin := wire.PopEndpointID(ev.Msg)
	seq := ev.Msg.PopUint()
	if f.delivered.Has(origin, seq) {
		return
	}
	inner, err := message.Unmarshal(ev.Msg.Body())
	if err != nil {
		return
	}
	f.delivered.Add(origin, seq)
	f.log.Add(origin, seq, inner)
	f.stats.FwdsDelivered++
	f.Ctx.Up(&core.Event{Type: core.UCast, Msg: inner, Source: origin})
}

// receiveDone collects redistribution completions. A member's failure
// set only grows within a view, so its latest DONE names the widest.
func (f *Flush) receiveDone(ev *core.Event) {
	f.doneFrom[ev.Source] = wire.PopIDList(ev.Msg)
	f.checkComplete()
}

// checkComplete consents to the flush once every survivor's DONE for it
// has arrived — by FIFO, after that survivor's forwards. A DONE is for
// this flush when it names every member this one counts as failed.
func (f *Flush) checkComplete() {
	if !f.flushing || f.consented || f.view == nil {
		return
	}
	for _, m := range f.view.Members {
		if f.failed[m] {
			continue
		}
		done, ok := f.doneFrom[m]
		if !ok {
			return
		}
		for e := range f.failed {
			if !slices.Contains(done, e) {
				return
			}
		}
	}
	f.consented = true
	f.Ctx.Down(&core.Event{Type: core.DFlushOK})
}

func (f *Flush) survivorsExceptSelf() []core.EndpointID {
	if f.view == nil {
		return nil
	}
	out := make([]core.EndpointID, 0, len(f.view.Members))
	for _, m := range f.view.Members {
		if m != f.Ctx.Self() && !f.failed[m] {
			out = append(out, m)
		}
	}
	return out
}

// applyView resets flush state; message identities are continuous
// across views, so delivery dedup state persists.
func (f *Flush) applyView(v *core.View) {
	f.view = v
	f.flushing = false
	f.consented = false
	f.failed = make(map[core.EndpointID]bool)
	f.doneFrom = make(map[core.EndpointID][]core.EndpointID)
	f.log.Reset()
}
