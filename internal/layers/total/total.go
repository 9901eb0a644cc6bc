// Package total implements the TOTAL layer: totally ordered multicast
// within group memberships, using a rotating token (paper §7).
//
// During normal operation a single token circulates; only the token
// holder stamps messages with global order numbers, and receivers
// deliver strictly in stamp order. An "oracle" at each member decides
// who should get the token next — here, the holder grants the token to
// the longest-waiting requester, and requests chase the token through
// last-known-holder forwarding. The token cannot always be placed
// optimally ("the oracle cannot always make the optimal decision for
// minimal overhead, but ... comes close in many cases").
//
// On failure the token may be lost, but "this is not a problem": the
// layer relies on the virtually synchronous view changes of MBRSHIP
// below it. When a new view installs, every surviving member holds the
// same set of delivered messages; buffered stamped messages drain
// deterministically, and a deterministic rule (the lowest-ranked
// member) chooses the first token holder of the new view. Messages
// cast while the sender lacked the token across a view change are
// re-submitted in the new view (the paper instead floods them
// unordered during the flush and sorts by sender rank; the observable
// guarantee — one total order among survivors — is the same, see
// DESIGN.md).
//
// As the paper notes, TOTAL needs no direct failure-detector
// interaction: failure information arrives as view updates from
// MBRSHIP, which is how it sidesteps the FLP impossibility argument.
//
// Properties: requires P3, P8, P9, P15; provides P6.
package total

import (
	"fmt"
	"time"

	"horus/internal/core"
	"horus/internal/wire"
)

// Wire kinds.
const (
	kData  = 1 // ordered multicast {ord}
	kToken = 2 // token grant {view, nextOrd, waiting queue}
	kReq   = 3 // token request (forwarded toward the holder)
	kSend  = 4 // application subset send pass-through
)

// defaultReqRetry re-sends an unanswered token request; requests can
// be lost only by chasing a stale holder, so this is a safety net.
const defaultReqRetry = 100 * time.Millisecond

// Option configures the layer.
type Option func(*Total)

// WithRequestRetry sets the token-request retry interval.
func WithRequestRetry(d time.Duration) Option { return func(t *Total) { t.reqRetry = d } }

// New returns a TOTAL layer with default configuration.
func New() core.Layer { return newTotal() }

// NewWith returns a factory with options applied.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		t := newTotal()
		for _, o := range opts {
			o(t)
		}
		return t
	}
}

func newTotal() *Total {
	return &Total{reqRetry: defaultReqRetry}
}

// Total is one TOTAL layer instance.
type Total struct {
	core.Base

	view *core.View

	holder    bool
	lastKnown core.EndpointID // best guess at the current token holder
	nextOrd   uint64          // next order stamp (holder) / high-water mark (others)
	delivered uint64          // last order stamp delivered

	pendingOut core.Queue               // cast downcalls awaiting the token
	buffer     core.OrderedQueue        // stamped messages awaiting their turn, all beyond delivered
	queue      []core.EndpointID        // waiting requesters (holder only)
	queued     map[core.EndpointID]bool // dedup for queue
	requesting bool
	retry      core.Timer[Total] // repeats an unanswered request
	flushing   bool              // membership flush in progress: stamping is paused
	primary    bool              // current view is primary: stamping allowed

	reqRetry time.Duration
	stats    Stats
}

// Stats counts TOTAL activity.
type Stats struct {
	Stamped   int // messages this member ordered while holding the token
	Delivered int // ordered messages delivered
	TokenOps  int // token grants sent
	Requests  int // token requests sent (including retries)
	Resubmits int // casts re-submitted after a view change
}

// Name implements core.Layer.
func (t *Total) Name() string { return "TOTAL" }

// Stats returns a snapshot of the layer's counters.
func (t *Total) Stats() Stats { return t.stats }

// Holder reports whether this member currently holds the token.
func (t *Total) Holder() bool { return t.holder }

// Quiescent implements core.Quiescer for the SWITCH reconfiguration
// protocol: on the sending side the layer is quiescent when no cast is
// still waiting for the token; on the delivery side, when the reorder
// buffer has drained (every stamped cast delivered in order).
func (t *Total) Quiescent(down bool) bool {
	if down {
		return t.pendingOut.Len() == 0
	}
	return t.buffer.Len() == 0
}

// Init implements core.Layer.
func (t *Total) Init(c *core.Context) error {
	if err := t.Base.Init(c); err != nil {
		return err
	}
	t.queued = make(map[core.EndpointID]bool)
	t.retry.Bind(c, t, (*Total).retryRequest)
	return nil
}

// Down implements core.Layer.
func (t *Total) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		t.pendingOut.Put(t.Ctx, ev)
		if t.holder {
			t.flushPending()
		} else {
			t.requestToken()
		}
	case core.DSend:
		ev.Msg.PushUint8(kSend)
		t.Ctx.Down(ev)
	case core.DView:
		// An externally decided view (Table 1 view downcall /
		// Group.InstallView, the §5 external membership service). The
		// service's views are authoritative and agreed at every member
		// — the property.ExternalViews contract — so the view is
		// primary by definition: there is no partition-minority twin
		// installing a competing order space. Apply before passing
		// down so the holder election sees the view the lower layers
		// are about to adopt; resubmit only after the descent, when
		// COM's destination set and NAK's streams match the new view.
		if ev.View != nil {
			t.primary = true
			t.applyView(ev.View)
		}
		t.Ctx.Down(ev)
		t.resubmitPending()
	case core.DDump:
		ev.Dump = append(ev.Dump, "TOTAL: "+t.dumpLine())
		t.Ctx.Down(ev)
	default:
		t.Ctx.Down(ev)
	}
}

// Up implements core.Layer.
func (t *Total) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		kind := ev.Msg.PopUint8()
		if kind != kData {
			// Only ordered data travels by multicast.
			return
		}
		t.receiveData(ev)
	case core.USend:
		kind := ev.Msg.PopUint8()
		switch kind {
		case kSend:
			t.Ctx.Up(ev)
		case kToken:
			t.receiveToken(ev)
		case kReq:
			t.receiveReq(ev)
		}
	case core.UFlush:
		t.flushing = true
		t.Ctx.Up(ev)
	case core.UView:
		t.primary = ev.Primary
		t.applyView(ev.View)
		t.Ctx.Up(ev)
		// Resubmit only after the view has gone up: casting down can
		// self-deliver synchronously through the membership layer, and
		// a delivery emitted before the UView upcall would reach the
		// application in the old view while remote members deliver the
		// same cast in the new one — a view-agreement violation.
		t.resubmitPending()
	default:
		t.Ctx.Up(ev)
	}
}

// flushPending stamps and sends everything waiting, then considers
// passing the token on. While the membership layer is flushing a view
// change, stamping is paused: a cast stamped mid-flush would be
// deferred below and released into the NEXT view still carrying this
// view's order stamp, colliding with the fresh order space. The pause
// makes the cut communication-closed; applyView resumes stamping.
// The same hazard exists in a non-primary view under the
// primary-partition restriction: the membership layer parks every
// cast until the member rejoins a primary view, so a stamp issued now
// would be released into a future view's fresh order space — and the
// other side of the partition would release its own identically
// numbered stamps, colliding with ours. Stamping waits for primacy;
// the casts queue in pendingOut and resubmit on the primary install.
func (t *Total) flushPending() {
	if t.flushing || !t.primary {
		return
	}
	t.pendingOut.Drain(func(ev *core.Event) {
		t.nextOrd++
		ev.Msg.PushUint(t.nextOrd)
		ev.Msg.PushUint8(kData)
		t.stats.Stamped++
		t.Ctx.Down(ev)
	})
	t.serveQueue()
}

// requestToken asks the presumed holder for the token.
func (t *Total) requestToken() {
	if t.requesting || t.view == nil {
		return
	}
	t.requesting = true
	t.sendReq()
	t.armReqTimer()
}

func (t *Total) sendReq() {
	target := t.lastKnown
	if target.IsZero() || target == t.Ctx.Self() || (t.view != nil && !t.view.Contains(target)) {
		if t.view == nil || t.view.Size() == 0 {
			return
		}
		target = t.view.Members[0]
	}
	if target == t.Ctx.Self() {
		return
	}
	t.stats.Requests++
	t.sendReqTo(target, t.Ctx.Self())
}

// sendReqTo sends target a token request on behalf of from: the
// original requester travels in the message, so it survives forwarding.
func (t *Total) sendReqTo(target, from core.EndpointID) {
	ev := t.Ctx.NewSendTo(target, 0)
	wire.PushEndpointID(ev.Msg, from, t.Ctx.Directory())
	ev.Msg.PushUint8(kReq)
	t.Ctx.Down(ev)
}

func (t *Total) armReqTimer() {
	if t.reqRetry > 0 {
		t.retry.Reset(t.reqRetry)
	}
}

// retryRequest repeats a request the token has not answered.
func (t *Total) retryRequest() {
	if !t.requesting || t.holder {
		return
	}
	t.sendReq()
	t.armReqTimer()
}

// receiveReq queues a request at the holder, or forwards it toward the
// holder (the chasing step of the oracle). The requester's identity is
// carried in the message so it survives forwarding; the requester's
// retry timer bounds the imprecision of a stale chase.
func (t *Total) receiveReq(ev *core.Event) {
	from := wire.PopEndpointID(ev.Msg, t.members(), t.Ctx.Directory())
	if t.holder {
		if !t.queued[from] && from != t.Ctx.Self() {
			t.queued[from] = true
			t.queue = append(t.queue, from)
		}
		t.serveQueue()
		return
	}
	// Not the holder: forward toward our best guess, unless that
	// would bounce the request straight back.
	if t.lastKnown.IsZero() || t.lastKnown == from ||
		t.lastKnown == t.Ctx.Self() || t.lastKnown == ev.Source {
		return
	}
	t.sendReqTo(t.lastKnown, from)
}

// members returns the current view's members, against which the
// identifiers in requests and tokens are resolved.
func (t *Total) members() []core.EndpointID {
	if t.view == nil {
		return nil
	}
	return t.view.Members
}

// serveQueue passes the token to the next waiting requester, provided
// we have nothing left to send.
func (t *Total) serveQueue() {
	if !t.holder || t.pendingOut.Len() > 0 {
		return
	}
	for len(t.queue) > 0 {
		next := t.queue[0]
		t.queue = t.queue[:copy(t.queue, t.queue[1:])] // keeps the array; a queue is a few members
		delete(t.queued, next)
		if next == t.Ctx.Self() || t.view == nil || !t.view.Contains(next) {
			continue
		}
		dir := t.Ctx.Directory()
		ev := t.Ctx.NewSendTo(next, wire.IDListLen(t.queue, dir))
		wire.PushIDList(ev.Msg, t.queue, dir)
		ev.Msg.PushUint(t.nextOrd)
		wire.PushViewID(ev.Msg, t.view.ID, dir)
		ev.Msg.PushUint8(kToken)
		t.stats.TokenOps++
		t.holder = false
		t.lastKnown = next
		t.queue = t.queue[:0]
		clear(t.queued)
		t.Ctx.Down(ev)
		return
	}
}

// receiveToken makes this member the holder. A token carries the view
// it was granted in; one from any other view belongs to that view's
// order space and is dropped, whether its sender has not yet learned of
// the view that excluded it or granted it before the current view and
// it was delayed across the change: this view's token lives with the
// member the view elected.
func (t *Total) receiveToken(ev *core.Event) {
	if t.view == nil {
		return
	}
	seq := ev.Msg.PopUint()
	if coord := wire.PopEndpointID(ev.Msg, t.members(), t.Ctx.Directory()); seq != t.view.ID.Seq || coord != t.view.ID.Coord {
		return
	}
	nextOrd := ev.Msg.PopUint()
	waiting := wire.PopIDList(ev.Msg, t.members(), t.Ctx.Directory())
	t.holder = true
	t.lastKnown = t.Ctx.Self()
	if nextOrd > t.nextOrd {
		t.nextOrd = nextOrd
	}
	t.requesting = false
	t.retry.Stop()
	for _, w := range waiting {
		if !t.queued[w] && w != t.Ctx.Self() {
			t.queued[w] = true
			t.queue = append(t.queue, w)
		}
	}
	t.flushPending()
}

// receiveData delivers a stamped message whose turn it is, and what
// that releases; one ahead of its turn is buffered. A stamp seen before,
// delivered or buffered, is dropped.
func (t *Total) receiveData(ev *core.Event) {
	ord := ev.Msg.PopUint()
	t.lastKnown = ev.Source
	if ord >= t.nextOrd {
		t.nextOrd = ord
	}
	switch {
	case ord == t.delivered+1:
		t.deliver(ord, ev)
		for next, ok := t.buffer.Pop(t.delivered + 1); ok; next, ok = t.buffer.Pop(t.delivered + 1) {
			t.deliver(t.delivered+1, next)
		}
	case ord > t.delivered:
		t.buffer.Put(t.Ctx, ord, ev)
	}
}

func (t *Total) deliver(ord uint64, ev *core.Event) {
	t.delivered = ord
	t.stats.Delivered++
	t.Ctx.Up(ev)
}

// applyView handles a virtually synchronous view change: drain every
// buffered stamped message (virtual synchrony made the buffered sets
// identical at all survivors, so gap-skipping drain order is
// deterministic), reset the order space, and elect the lowest-ranked
// member as first holder. Re-submission of casts that never obtained
// the token is deferred to resubmitPending.
func (t *Total) applyView(v *core.View) {
	// Deliver leftovers in ascending stamp order; any gaps belong to
	// messages no survivor delivered.
	for low, ok := t.buffer.Lowest(); ok; low, ok = t.buffer.Lowest() {
		ev, _ := t.buffer.Pop(low)
		t.deliver(low, ev)
	}

	t.view = v
	t.flushing = false
	t.delivered = 0
	t.nextOrd = 0
	t.buffer.Reset()
	t.queue = t.queue[:0]
	clear(t.queued)
	t.requesting = false
	t.retry.Stop()
	if v.Size() > 0 {
		t.holder = v.Members[0] == t.Ctx.Self()
		t.lastKnown = v.Members[0]
	}
}

// resubmitPending re-submits casts that never obtained the token in
// the previous view. Kept separate from applyView so the caller can
// forward the UView upcall first; see the UView case in Up.
func (t *Total) resubmitPending() {
	if t.pendingOut.Len() > 0 {
		t.stats.Resubmits += t.pendingOut.Len()
		if t.holder {
			t.flushPending()
		} else {
			t.requestToken()
		}
	}
}

func (t *Total) dumpLine() string {
	return fmt.Sprintf("holder=%v nextOrd=%d delivered=%d pending=%d buffered=%d tokens=%d reqs=%d",
		t.holder, t.nextOrd, t.delivered, t.pendingOut.Len(), t.buffer.Len(), t.stats.TokenOps, t.stats.Requests)
}
