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

	view *core.View
	sent uint64 // multicasts sent (total, for diagnostics)
	// sentTo counts the casts actually addressed to each receiver —
	// the sender-side frame of the credit protocol. It is per receiver,
	// not global: a cast launched while a member was out of the view
	// never reaches that member's stream, so it must not count against
	// the window the member grants. Both sides drop a departed member's
	// state on a view change (applyView), so after a re-admission the
	// frames restart at zero in lockstep instead of drifting by the
	// casts the member missed — the drift that used to wedge the
	// window permanently (grants forever below the raised credit).
	sentTo  map[core.EndpointID]uint64
	credit  map[core.EndpointID]uint64 // cumulative window end granted by each receiver
	queue   []*core.Event              // casts awaiting credit
	recvd   map[core.EndpointID]uint64 // multicasts received per sender
	granted map[core.EndpointID]uint64 // cumulative grant we sent to each sender
	stats   Stats
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
func (f *Fc) QueueLen() int { return len(f.queue) }

// Init implements core.Layer.
func (f *Fc) Init(c *core.Context) error {
	if err := f.Base.Init(c); err != nil {
		return err
	}
	if f.window < 1 {
		return fmt.Errorf("fc: window %d < 1", f.window)
	}
	f.sentTo = make(map[core.EndpointID]uint64)
	f.credit = make(map[core.EndpointID]uint64)
	f.recvd = make(map[core.EndpointID]uint64)
	f.granted = make(map[core.EndpointID]uint64)
	return nil
}

// Down implements core.Layer.
func (f *Fc) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		f.queue = append(f.queue, ev)
		if len(f.queue) > 1 || !f.drain() {
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
			f.window, f.sent, len(f.queue), f.stats.Credits))
		f.Ctx.Down(ev)
	default:
		f.Ctx.Down(ev)
	}
}

// drain sends queued casts while credit allows; reports whether the
// queue emptied.
func (f *Fc) drain() bool {
	for len(f.queue) > 0 {
		if !f.mayLaunch() {
			return false
		}
		ev := f.queue[0]
		f.queue = f.queue[1:]
		f.sent++
		if f.view != nil {
			for _, m := range f.view.Members {
				if m != f.Ctx.Self() {
					f.sentTo[m]++
				}
			}
		}
		ev.Msg.PushUint8(kData)
		f.Ctx.Down(ev)
	}
	return true
}

// mayLaunch reports whether one more multicast fits every receiver's
// window.
func (f *Fc) mayLaunch() bool {
	if f.view == nil {
		return true
	}
	for _, m := range f.view.Members {
		if m == f.Ctx.Self() {
			continue
		}
		if f.sentTo[m] >= f.credit[m] {
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
		f.recvd[ev.Source]++
		f.maybeGrant(ev.Source)
		f.Ctx.Up(ev)
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			f.Ctx.Up(ev)
		case kCredit:
			grant := ev.Msg.PopUint64()
			if grant > f.credit[ev.Source] {
				f.credit[ev.Source] = grant
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
func (f *Fc) maybeGrant(sender core.EndpointID) {
	newEnd := f.recvd[sender] + uint64(f.window)
	if newEnd < f.granted[sender]+uint64(f.window)/2 {
		return
	}
	f.granted[sender] = newEnd
	ev := core.NewSendTo(sender, 0)
	ev.Msg.PushUint64(newEnd)
	ev.Msg.PushUint8(kCredit)
	f.stats.Credits++
	f.Ctx.Down(ev)
}

// applyView resets windows for the new membership: every member
// restarts with one full window toward every other (the view change
// is a synchronization point), members no longer in the view lose
// their credit and grant state entirely, and the blocked-cast queue
// is re-evaluated. Dropping a removed member's state matters twice
// over: casts stalled on a failed receiver's exhausted credit drain
// instead of wedging, and a stale generous grant cannot bypass flow
// control (or permanently wedge the window, see sentTo) if the member
// is later re-admitted under the same identity.
func (f *Fc) applyView(ev *core.Event) {
	if ev.View == nil {
		return
	}
	f.view = ev.View
	alive := make(map[core.EndpointID]bool, len(f.view.Members))
	for _, m := range f.view.Members {
		alive[m] = true
		if f.credit[m] < f.sentTo[m]+uint64(f.window) {
			f.credit[m] = f.sentTo[m] + uint64(f.window)
		}
		if f.granted[m] < f.recvd[m]+uint64(f.window) {
			f.granted[m] = f.recvd[m] + uint64(f.window)
		}
	}
	for m := range f.credit {
		if !alive[m] {
			delete(f.credit, m)
			delete(f.sentTo, m)
		}
	}
	for m := range f.recvd {
		if !alive[m] {
			delete(f.recvd, m)
		}
	}
	for m := range f.granted {
		if !alive[m] {
			delete(f.granted, m)
		}
	}
	f.drain()
}
