package vslog

import (
	"slices"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

// Wire kinds of the exchange: every send of FLUSH and VSS carries one.
const (
	kSend = 1 // an application send, passed through
	kDone = 3 // this member's forwards, complete {failed, batch} (PushBatch)
)

// Exchange is the flush exchange FLUSH and VSS share (§11). Each
// upgrades the semi-synchrony of a BMS layer below it to virtual
// synchrony: when BMS reports a flush, every member sends the surviving
// members a DONE that carries what it logged, and consents to the flush
// (flush_ok) only once every survivor's DONE is in. A DONE's forwards
// are delivered before it counts, so when everyone has consented,
// everyone has everything, and BMS may install the view. The two layers
// differ only in what enters the log they forward: FLUSH logs every
// delivery, VSS its own casts.
//
// A DONE names the failure set it was sent under, and counts only
// toward a flush whose failures it names all of: a survivor that
// forwarded before it knew of a failure may since have delivered more
// of the failed member's casts, and forwards again when the wider flush
// reaches it.
//
// A cast is named by the MsgID the stability layer below (P14)
// attaches; the exchange delivers each once, forwarded or not, with
// that identity.
type Exchange struct {
	// Activity counters.
	Flushes       int // flushes started, restarts included
	Forwarded     int // log entries forwarded
	FwdsDelivered int // forwards delivered here
	Malformed     int // DONEs refused by PopBatch

	ctx       *core.Context
	layer     string            // the layer's name in a SYSTEM_ERROR reason
	logged    func(*core.Event) // sees each delivery before it goes up, or nil
	view      *core.View
	delivered Delivered // kept across views: message identities are continuous

	flushing  bool
	consented bool
	failed    []core.EndpointID                     // this flush's failure set, oldest first
	doneFrom  map[core.EndpointID][]core.EndpointID // per member, the failure set of its latest DONE
}

// Init binds the exchange to its layer's context. layer names the layer
// in error reports; logged, when set, sees every delivery before it
// goes up.
func (x *Exchange) Init(c *core.Context, layer string, logged func(*core.Event)) {
	x.ctx, x.layer, x.logged = c, layer, logged
	x.doneFrom = make(map[core.EndpointID][]core.EndpointID)
}

// Send passes an application send down, marked as one.
func (x *Exchange) Send(ev *core.Event) {
	ev.Msg.PushUint8(kSend)
	x.ctx.Down(ev)
}

// Cast delivers a cast unless it was delivered before. A cast without
// an identity is reported as a SYSTEM_ERROR: there is no stability layer
// below to name it.
func (x *Exchange) Cast(ev *core.Event) {
	switch {
	case ev.ID.Origin.IsZero():
		x.ctx.Up(&core.Event{Type: core.USystemError,
			Detail: &core.Detail{Reason: x.layer + ": CAST without message identity (no stability layer below?)"}})
	case !x.delivered.Has(ev.ID.Origin, ev.ID.Seq):
		x.deliver(ev)
	}
}

// Receive handles a send from a peer: an application send goes up; a
// DONE has each forward it carries delivered if new, and is counted.
func (x *Exchange) Receive(ev *core.Event) {
	switch ev.Msg.PopUint8() {
	case kSend:
		x.ctx.Up(ev)
	case kDone:
		x.receiveDone(ev)
	}
}

func (x *Exchange) deliver(ev *core.Event) {
	x.delivered.Add(ev.ID.Origin, ev.ID.Seq)
	if x.logged != nil {
		x.logged(ev)
	}
	x.ctx.Up(ev)
}

// receiveDone delivers the forwards a DONE carries, then counts it. A
// DONE whose batch PopBatch refuses is dropped whole.
func (x *Exchange) receiveDone(ev *core.Event) {
	var known []core.EndpointID
	if x.view != nil {
		known = x.view.Members
	}
	dir := x.ctx.Directory()
	failed := wire.PopIDList(ev.Msg, known, dir)
	batch, ok := PopBatch(ev.Msg, known, dir)
	if !ok {
		x.Malformed++
		return
	}
	batch.Each(func(origin core.EndpointID, seq uint64, image []byte) {
		if x.delivered.Has(origin, seq) {
			return
		}
		inner, _ := message.Unmarshal(image) // PopBatch checked every image
		x.FwdsDelivered++
		x.deliver(&core.Event{Type: core.UCast, Msg: inner, Source: origin, ID: core.MsgID{Origin: origin, Seq: seq}})
	})
	x.doneFrom[ev.Source] = failed
	x.checkComplete()
}

// Start begins a flush that counts failed as failed, sending the
// survivors a DONE that carries every entry of log. A wider failure set
// restarts the exchange: everything is forwarded again, in a DONE that
// names the wider set.
func (x *Exchange) Start(failed []core.EndpointID, log *Log) {
	x.Flushes++
	x.flushing = true
	x.consented = false
	for _, e := range failed {
		if !slices.Contains(x.failed, e) {
			x.failed = append(x.failed, e)
		}
	}
	slices.SortFunc(x.failed, byAge)
	x.Forwarded += log.Len()
	if dests := x.survivorsExceptSelf(); len(dests) > 0 {
		dir := x.ctx.Directory()
		done := x.ctx.NewDowncall(core.DSend, dests, wire.IDListLen(x.failed, dir))
		PushBatch(done.Msg, log, dir)
		wire.PushIDList(done.Msg, x.failed, dir)
		done.Msg.PushUint8(kDone)
		x.ctx.Down(done)
	}
	x.doneFrom[x.ctx.Self()] = slices.Clone(x.failed)
	x.checkComplete()
}

// checkComplete consents to the flush once every survivor's DONE for it
// has arrived — by FIFO, after that survivor's forwards. A DONE is for
// this flush when it names every member this one counts as failed.
func (x *Exchange) checkComplete() {
	if !x.flushing || x.consented || x.view == nil {
		return
	}
	for _, m := range x.view.Members {
		if slices.Contains(x.failed, m) {
			continue
		}
		done, ok := x.doneFrom[m]
		if !ok {
			return
		}
		for _, e := range x.failed {
			if !slices.Contains(done, e) {
				return
			}
		}
	}
	x.consented = true
	x.ctx.Down(&core.Event{Type: core.DFlushOK})
}

func (x *Exchange) survivorsExceptSelf() []core.EndpointID {
	if x.view == nil {
		return nil
	}
	out := make([]core.EndpointID, 0, len(x.view.Members))
	for _, m := range x.view.Members {
		if m != x.ctx.Self() && !slices.Contains(x.failed, m) {
			out = append(out, m)
		}
	}
	return out
}

// View ends the flush at a new view: nothing is failed and no DONE is
// counted. What was delivered is kept.
func (x *Exchange) View(v *core.View) {
	x.view = v
	x.flushing = false
	x.consented = false
	x.failed = nil
	clear(x.doneFrom)
}
