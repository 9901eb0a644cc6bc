// Package fc implements the flow-control layer (Figure 1: "preventing
// network congestion") with a credit-based window, the scheme the NAK
// layer's status traffic is said to enable ("window-based flow control
// may be implemented", §7).
//
// Each receiver grants the sender a window of credits; a multicast
// consumes one credit per receiver, and sends beyond the window queue
// at the sender until credit returns. Receivers replenish credit in
// half-window batches as they deliver.
package fc

import (
	"fmt"

	"horus/internal/core"
)

// Wire kinds.
const (
	kData   = 1
	kSend   = 2
	kCredit = 3 // {granted cumulative count}
)

// DefaultWindow is the default number of outstanding multicasts a
// sender may have toward any one receiver.
const DefaultWindow = 32

// Fc is one flow-control layer instance.
type Fc struct {
	core.Base
	window int

	sent    uint64                      // multicasts sent (total, for diagnostics)
	members map[core.EndpointID]*member // the view's members, and anyone a cast or a grant has come from since
	others  []*member                   // the view's members except self; replaced, never edited, by applyView
	views   uint64                      // views applied; a member record is stamped with the last it was in
	queue   core.Queue                  // casts awaiting credit
	stats   Stats
}

// member is both sides of the credit protocol with one other endpoint.
// sentTo counts the casts actually addressed to it — the sender-side
// frame of the protocol. It is per receiver, not global: a cast launched
// while a member was out of the view never reaches that member's stream,
// so it must not count against the window the member grants. Both sides
// drop a departed member's record on a view change (applyView), so after
// a re-admission the frames restart at zero in lockstep instead of
// drifting by the casts the member missed — the drift that used to wedge
// the window permanently (grants forever below the raised credit).
type member struct {
	sentTo  uint64 // casts addressed to it
	credit  uint64 // cumulative window end it granted us
	recvd   uint64 // its casts received
	granted uint64 // cumulative window end we granted it
	view    uint64 // the last view it was in
}

// Stats counts flow-control activity.
type Stats struct {
	Queued  int // casts that had to wait for credit
	Credits int // credit messages sent
}

// New returns a flow-control layer with the default window.
func New() core.Layer { return &Fc{window: DefaultWindow} }

// NewWithWindow returns a factory with the given window size.
func NewWithWindow(w int) core.Factory {
	return func() core.Layer { return &Fc{window: w} }
}

// Name implements core.Layer.
func (f *Fc) Name() string { return "FC" }

// Stats returns a snapshot of the layer's counters.
func (f *Fc) Stats() Stats { return f.stats }

// QueueLen reports how many casts are waiting for credit.
func (f *Fc) QueueLen() int { return f.queue.Len() }

// Init implements core.Layer.
func (f *Fc) Init(c *core.Context) error {
	if err := f.Base.Init(c); err != nil {
		return err
	}
	if f.window < 1 {
		return fmt.Errorf("fc: window %d < 1", f.window)
	}
	f.members = make(map[core.EndpointID]*member)
	return nil
}

// Down implements core.Layer.
func (f *Fc) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		f.queue.Put(f.Ctx, ev)
		if f.queue.Len() > 1 || !f.drain() {
			f.stats.Queued++
		}
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		f.Ctx.Down(ev)
	case core.DView:
		f.applyView(ev)
		f.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf("FC: window=%d sent=%d queued=%d credits=%d",
			f.window, f.sent, f.queue.Len(), f.stats.Credits))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// drain sends queued casts while credit allows; reports whether the
// queue emptied.
func (f *Fc) drain() bool {
	for f.queue.Len() > 0 {
		if !f.mayLaunch() {
			return false
		}
		ev := f.queue.Remove(0)
		f.sent++
		for _, m := range f.others {
			m.sentTo++
		}
		ev.Msg.PushUint8(kData)
		f.Ctx.Down(ev)
	}
	return true
}

// mayLaunch reports whether one more multicast fits every receiver's
// window.
func (f *Fc) mayLaunch() bool {
	for _, m := range f.others {
		if m.sentTo >= m.credit {
			return false
		}
	}
	return true
}

// Up implements core.Layer.
func (f *Fc) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		kind := ev.Msg.PopUint8()
		if kind != kData {
			return
		}
		m := f.memberFor(ev.Source)
		m.recvd++
		f.maybeGrant(ev.Source, m)
		f.Ctx.Up(ev)
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			f.Ctx.Up(ev)
		case kCredit:
			grant := ev.Msg.PopUint()
			if m := f.memberFor(ev.Source); grant > m.credit {
				m.credit = grant
				f.drain()
			}
		}
	case core.UView:
		// FC may sit above a membership layer (views arrive from
		// below) or above a static stack (views install from above via
		// the view downcall); both paths reset the windows.
		f.applyView(ev)
		f.Ctx.Up(ev)
	default:
		f.Ctx.Up(ev)
	}
}

// maybeGrant replenishes the sender's window after half of it is
// consumed.
func (f *Fc) maybeGrant(sender core.EndpointID, m *member) {
	newEnd := m.recvd + uint64(f.window)
	if newEnd < m.granted+uint64(f.window)/2 {
		return
	}
	m.granted = newEnd
	ev := f.Ctx.NewSendTo(sender, 0)
	ev.Msg.PushUint(newEnd)
	ev.Msg.PushUint8(kCredit)
	f.stats.Credits++
	f.Ctx.Down(ev)
}

// memberFor returns id's record, made on first use.
func (f *Fc) memberFor(id core.EndpointID) *member {
	m := f.members[id]
	if m == nil {
		m = new(member)
		f.members[id] = m
	}
	return m
}

// applyView resets windows for the new membership: every member
// restarts with one full window toward every other (the view change
// is a synchronization point), endpoints no longer in the view lose
// their record entirely, and the blocked-cast queue is re-evaluated.
// Dropping a removed member's record matters twice over: casts stalled
// on a failed receiver's exhausted credit drain instead of wedging, and
// a stale generous grant cannot bypass flow control (or permanently
// wedge the window, see member) if the member is later re-admitted
// under the same identity.
func (f *Fc) applyView(ev *core.Event) {
	if ev.View == nil {
		return
	}
	f.views++
	f.others = make([]*member, 0, len(ev.View.Members))
	for _, id := range ev.View.Members {
		m := f.memberFor(id)
		m.view = f.views
		m.credit = max(m.credit, m.sentTo+uint64(f.window))
		m.granted = max(m.granted, m.recvd+uint64(f.window))
		if id != f.Ctx.Self() {
			f.others = append(f.others, m)
		}
	}
	for id, m := range f.members {
		if m.view != f.views {
			delete(f.members, id)
		}
	}
	f.drain()
}
