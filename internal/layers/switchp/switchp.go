// Package switchp implements SWITCH, the run-time stack
// reconfiguration protocol — the paper's promise that layers "can be
// stacked on top of each other like LEGO blocks" *at run time* (§1),
// made failure-tolerant.
//
// A SWITCH layer sits directly above a virtually synchronous base
// (MBRSHIP:…:COM) and privately owns a *segment* — a core.Stack of the
// reconfigurable layers (TOTAL, COMPRESS, CRYPT, ADAPT, …) built by
// Context.NewSegment. The outer stack never mutates: reconfiguration
// replaces the segment behind SWITCH's fence, so contexts and the
// membership machinery below stay frozen while the protocol
// personality above changes.
//
// A reconfiguration is two rounds of ordinary casts through the VS
// base, so delivery is FIFO per sender and all-or-nothing within a
// view:
//
//	PROPOSE   the coordinator (oldest view member) validates the
//	          target against Table 3 (property.Derive over the layers
//	          actually beneath the fence) and casts PROPOSE{epoch+1,
//	          target, view}. Every member closes its gate: new
//	          application casts buffer above the segment.
//	QUIESCED  each member waits until its segment is down-quiescent (no
//	          unsent output) and casts its marker QUIESCED{epoch, view}.
//	          FIFO beneath keeps a marker behind the data it fences, so
//	          the markers delimit a communication-closed cut. A member
//	          that cannot build the target casts a refusal instead.
//
// A member commits on its own as soon as it has delivered the marker
// of every proposal member and its segment is up-quiescent (every
// fenced cast delivered). It retires the old segment behind a detach
// fence, builds the new one, bumps the epoch, replays the current view
// into it (swallowed at the top), reopens the gate through it, and
// reports "committed <target>" in a SWITCH upcall.
//
// Aborts are decided at the view edge. Markers are casts, so members
// that reach the same next view have delivered the same markers: a
// member still pending there commits if every marker is in and aborts
// if not, and they all decide alike. A delivered refusal aborts at
// once. An abort reopens the gate through the *old* segment and emits
// "aborted: …"; nothing is lost and nothing moved. There are no
// deadlines: a silent member is the membership layer's to exclude.
//
// Data crossing the fence is epoch-stamped, because members commit at
// different instants. Matching-epoch traffic enters the segment;
// future-epoch traffic (sender committed first) buffers until the local
// swap; stale traffic from a retired *empty* segment is delivered
// directly (it carries no headers), while stale traffic bearing
// retired-segment headers is surfaced as an explicit LOST_MESSAGE —
// graceful degradation, never corruption. Future-epoch data still held
// when the view changes belongs to the view that ended and is dropped
// the same way. Divergence across a partition (one side committed, the
// other aborted) heals on merge: every member announces its epoch after
// each view install, a behind member catches up with a local drain and
// swap, and no member casts in a view before it has heard every other
// member's epoch there — nor during a flush or in a non-primary view,
// where the membership layer would park a cast stamped with an epoch
// the next view may have left behind.
package switchp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/property"
	"horus/internal/wire"
)

// Wire kinds at the SWITCH level, popped from the top of every
// CAST/SEND that reaches the layer from below.
const (
	kData     = 1 // epoch-stamped cast leaving the segment: {epoch} + inner
	kSendApp  = 2 // epoch-stamped subset send leaving the segment: {epoch} + inner
	kPropose  = 3 // coordinator: begin a switch {epoch, target, viewID}
	kQuiesced = 4 // member: marker at the cut {epoch, viewID, refusal}; refusal "" unless the member cannot build the target
	kRequest  = 5 // member → coordinator: please propose {target} (send)
	kEpoch    = 6 // post-view epoch announcement {epoch, desc}
)

// Protocol tuning; see DESIGN.md §10 for the rationale.
const (
	// pollEvery is the quiescence polling period.
	pollEvery = 15 * time.Millisecond
	// pendingHighCap bounds the future-epoch buffer; beyond it a cast
	// is surfaced as LOST_MESSAGE rather than growing without bound.
	pendingHighCap = 1024
	// catchUpDrain bounds a post-merge catch-up's local drain; past it
	// the swap happens regardless.
	catchUpDrain = 400 * time.Millisecond
)

// Resolver maps a Table 3 layer name to the factory the switch engine
// instantiates it with. stackreg supplies its registry; tests and the
// chaos harness supply curated, tuned factories.
type Resolver func(name string) (core.Factory, bool)

// Option configures a Switch.
type Option func(*Switch)

// WithResolver sets the factory resolver for segment targets.
func WithResolver(r Resolver) Option { return func(s *Switch) { s.resolver = r } }

// WithOpaqueBase declares everything beneath the SWITCH layer an
// opaque transport already delivering p, so target validation derives
// only the segment (plus SWITCH's own row) over p instead of
// re-deriving through the below layers' Table 3 rows. Stacks whose
// base is hand-tuned off the Table 3 grid — the chaos harness's
// MBRSHIP:HBEAT:NAK:COM, which runs without FRAG — use this to state
// what the base actually provides.
func WithOpaqueBase(p property.Set) Option {
	return func(s *Switch) { s.netProps, s.opaqueBase = p, true }
}

// New returns a SWITCH factory with default options and no resolver —
// only the empty segment is then reachable. Compose real deployments
// with NewWith(WithResolver(...)).
func New() core.Layer { return NewWith()() }

// NewWith returns a SWITCH factory with the given options.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		s := &Switch{
			netProps:    property.P1,
			descByEpoch: map[uint64]string{0: ""},
			marks:       map[mark]string{},
			unheard:     map[core.EndpointID]bool{},
		}
		for _, o := range opts {
			o(s)
		}
		return s
	}
}

// Stats counts protocol outcomes for tests and the chaos CLI.
type Stats struct {
	Proposed     int // proposals this member accepted (gate closed)
	Committed    int // swaps completed by the marker round
	SyncCommits  int // swaps completed by post-merge epoch catch-up
	Aborted      int // proposals rolled back
	StaleDropped int // stale-epoch arrivals not deliverable through a segment
}

// proposal is one reconfiguration, identical on every member that
// accepted the PROPOSE cast (virtual synchrony: same view, same
// members).
type proposal struct {
	epoch   uint64
	desc    string
	spec    core.StackSpec
	view    core.ViewID // the view the proposal was made in
	members []core.EndpointID
}

// mark keys a delivered marker: who cast it, for which epoch. Only
// markers naming the current view are kept, so the view is implied.
type mark struct {
	from  core.EndpointID
	epoch uint64
}

// Switch is the reconfiguration fence layer.
type Switch struct {
	core.Base

	resolver   Resolver
	netProps   property.Set
	opaqueBase bool

	view    *core.View
	primary bool
	epoch   uint64
	desc    string
	seg     *core.Stack

	descByEpoch map[uint64]string

	gateClosed bool
	gateHeld   bool // until the next view upcall has passed: delay gate dumps
	flushing   bool // a FLUSH upcall has passed since the last view
	gated      []*core.Event

	// unheard holds the view's other members whose epoch announcement
	// has not been delivered in it yet; the gate holds until it is empty.
	unheard map[core.EndpointID]bool

	prop         *proposal
	sentQuiesced bool
	// marks holds the markers delivered in the current view for epochs
	// not yet reached, mapped to the refusal they carry ("" for none).
	// A marker may arrive before the PROPOSE it answers, since FIFO
	// orders only one sender's casts.
	marks map[mark]string
	// next is a PROPOSE delivered while a switch was still in flight
	// here (a faster member committed and the coordinator proposed
	// again); it is taken up after the local swap.
	next *proposal

	// sync is a post-merge catch-up to an epoch another partition side
	// committed: a local drain and swap with no group handshake.
	sync *proposal

	pendingHigh []*core.Event // future-epoch arrivals, epoch stamp kept

	gateTimer  core.Timer[Switch] // the zero-delay gate release after a view (releaseHeldGate)
	drainTimer core.Timer[Switch] // a catch-up's drain bound (forceSync)
	pollTimer  core.Timer[Switch] // the progress poll while switching (poll)

	replaying bool
	destroyed bool

	stats Stats
}

// Name implements core.Layer.
func (sw *Switch) Name() string { return "SWITCH" }

// Segment implements core.SegmentHolder, so Stack.Focus and
// Stack.Names descend into the managed segment.
func (sw *Switch) Segment() *core.Stack { return sw.seg }

// Init composes the initial segment, which is empty: the plain FIFO
// personality of the base.
func (sw *Switch) Init(c *core.Context) error {
	if err := sw.Base.Init(c); err != nil {
		return err
	}
	sw.gateTimer.Bind(c, sw, (*Switch).releaseHeldGate)
	sw.drainTimer.Bind(c, sw, (*Switch).forceSync)
	sw.pollTimer.Bind(c, sw, (*Switch).poll)
	var err error
	sw.seg, err = c.NewSegment(nil, sw.fromSegTop, sw.fromSegBottom)
	return err
}

// Epoch returns the current reconfiguration epoch.
func (sw *Switch) Epoch() uint64 { return sw.epoch }

// Desc returns the current segment description ("" when empty).
func (sw *Switch) Desc() string { return sw.desc }

// Stats returns a snapshot of the protocol counters.
func (sw *Switch) Stats() Stats { return sw.stats }

// Switching reports whether a proposal or catch-up is in flight.
func (sw *Switch) Switching() bool { return sw.prop != nil || sw.sync != nil }

// RequestSwitch asks the group to reconfigure the managed segment to
// target (a ":"-joined layer list, top first; "" empties the
// segment). Must run on the endpoint's executor (Endpoint.Do). The
// target is validated — factories resolvable, Table 3 well-formedness
// re-derived over the layers actually beneath the fence — before
// anything is sent; the outcome itself is asynchronous and reported
// by a SWITCH upcall.
func (sw *Switch) RequestSwitch(target string) error {
	if sw.destroyed {
		return errors.New("switch: stack destroyed")
	}
	if sw.view == nil {
		return errors.New("switch: no view installed yet")
	}
	if sw.Switching() {
		return errors.New("switch: reconfiguration already in progress")
	}
	norm, spec, err := sw.validate(target)
	if err != nil {
		return err
	}
	if norm == sw.desc {
		return nil // already configured; nothing to do
	}
	if coord := sw.view.Oldest(); coord != sw.Ctx.Self() {
		ev := core.NewSendTo(coord, 0)
		ev.Msg.PushString(norm)
		ev.Msg.PushUint8(kRequest)
		sw.Ctx.Down(ev)
		return nil
	}
	sw.propose(norm, spec)
	return nil
}

// validate parses, resolves and property-checks a target, returning
// the normalized description and the resolved factories.
func (sw *Switch) validate(target string) (string, core.StackSpec, error) {
	full := append(property.ParseStack(target), "SWITCH")
	// Re-derive over the layers actually beneath the fence. Layers
	// without a Table 3 row (test instrumentation, say) are treated as
	// transparent — they cannot be checked, but they also add nothing.
	// An opaque base skips the walk: netProps already states what
	// arrives at the fence.
	if !sw.opaqueBase {
		for _, n := range sw.Ctx.BelowNames() {
			if _, err := property.Spec(n); err == nil {
				full = append(full, n)
			}
		}
	}
	if _, err := property.Derive(sw.netProps, full); err != nil {
		return "", nil, err
	}
	return sw.resolve(target)
}

// resolve normalizes a target and resolves its factories, without the
// property derivation: the coordinator derived before proposing, and
// members must not diverge on a check of identical inputs.
func (sw *Switch) resolve(desc string) (string, core.StackSpec, error) {
	names := property.ParseStack(desc)
	spec := make(core.StackSpec, 0, len(names))
	for _, n := range names {
		if sw.resolver == nil {
			return "", nil, fmt.Errorf("switch: no resolver for segment layer %q", n)
		}
		f, ok := sw.resolver(n)
		if !ok {
			return "", nil, fmt.Errorf("switch: no factory for segment layer %q", n)
		}
		spec = append(spec, f)
	}
	return strings.Join(names, ":"), spec, nil
}

// propose starts a reconfiguration with the local member as
// coordinator: accept the proposal first, then cast PROPOSE — the
// self-delivered copy finds the proposal already pending and is
// ignored.
func (sw *Switch) propose(desc string, spec core.StackSpec) {
	sw.begin(&proposal{epoch: sw.epoch + 1, desc: desc, spec: spec, view: sw.view.ID})
	m := message.New(nil)
	wire.PushViewID(m, sw.view.ID)
	m.PushString(desc)
	m.PushUint(sw.prop.epoch)
	m.PushUint8(kPropose)
	sw.Ctx.Down(&core.Event{Type: core.DCast, Msg: m})
	sw.checkProgress()
}

// begin makes p the pending proposal among the current view's members
// and closes the gate.
func (sw *Switch) begin(p *proposal) {
	p.members = append([]core.EndpointID(nil), sw.view.Members...)
	sw.prop = p
	sw.stats.Proposed++
	sw.gateClosed = true
	sw.sentQuiesced = false
	sw.armPoll()
}

// ---- downward path ---------------------------------------------------

// Down implements core.Layer.
func (sw *Switch) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		// Queue behind earlier gated casts even when the gate itself has
		// reopened but its dump is still held (len check): overtaking
		// them would break FIFO. A held gate also holds new casts: the
		// segment may not have seen the flush they would be cast into.
		if sw.held() || len(sw.gated) > 0 {
			sw.gated = append(sw.gated, ev)
			return
		}
		sw.seg.Down(ev)
	case core.DDestroy:
		sw.destroyed = true
		sw.seg.Down(ev) // falls out of the segment and continues below
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf(
			"SWITCH epoch=%d segment=%q switching=%v gated=%d stats=%+v",
			sw.epoch, sw.desc, sw.Switching(), len(sw.gated), sw.stats))
		sw.seg.Down(ev)
	default:
		sw.seg.Down(ev)
	}
}

// fromSegBottom receives events falling off the bottom of the managed
// segment. Outbound data is epoch-stamped here — after the segment's
// own headers, so the stamp is what a receiving SWITCH pops first.
func (sw *Switch) fromSegBottom(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		ev.Msg.PushUint(sw.epoch)
		ev.Msg.PushUint8(kData)
	case core.DSend:
		ev.Msg.PushUint(sw.epoch)
		ev.Msg.PushUint8(kSendApp)
	}
	sw.Ctx.Down(ev)
}

// fromSegTop receives events emerging from the top of the managed
// segment and forwards them to the application, stamping deliveries
// with the epoch they were delivered under.
func (sw *Switch) fromSegTop(ev *core.Event) {
	if sw.replaying && ev.Type == core.UView {
		return // synthetic view replay into a fresh segment; not for the app
	}
	if ev.Type == core.UCast || ev.Type == core.USend {
		ev.Epoch = sw.epoch
	}
	sw.Ctx.Up(ev)
}

// ---- upward path -----------------------------------------------------

// Up implements core.Layer.
func (sw *Switch) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast:
		if ev.Msg == nil {
			sw.seg.Up(ev)
			return
		}
		switch ev.Msg.PopUint8() {
		case kData:
			sw.routeData(ev, false)
		case kPropose:
			sw.onPropose(ev)
		case kQuiesced:
			sw.onMarker(ev)
		case kEpoch:
			sw.onEpochAnnounce(ev)
		default:
			// Unknown control kind: drop (forward compatibility).
		}
	case core.USend:
		if ev.Msg == nil {
			sw.seg.Up(ev)
			return
		}
		switch ev.Msg.PopUint8() {
		case kSendApp:
			sw.routeData(ev, true)
		case kRequest:
			sw.onRequest(ev)
		default:
		}
	case core.UFlush:
		sw.flushing = true
		sw.seg.Up(ev)
	case core.UView:
		sw.onView(ev)
	default:
		sw.seg.Up(ev)
	}
}

// routeData routes an epoch-stamped arrival.
func (sw *Switch) routeData(ev *core.Event, send bool) {
	e := ev.Msg.PopUint()
	switch {
	case e == sw.epoch:
		sw.seg.Up(ev)
		if sw.prop != nil {
			sw.checkProgress() // an arrival may complete up-quiescence
		}
	case e > sw.epoch:
		// The sender already committed an epoch we have not reached —
		// hold the data for after our own swap.
		if len(sw.pendingHigh) < pendingHighCap {
			ev.Msg.PushUint(e)
			sw.pendingHigh = append(sw.pendingHigh, ev)
			return
		}
		sw.dropStale(ev, send, fmt.Sprintf("switch: future-epoch buffer full (epoch %d, at %d)", e, sw.epoch))
	default: // e < sw.epoch: the sender had not switched yet
		if d, known := sw.descByEpoch[e]; known && d == "" && !send {
			// The retired segment was empty: the payload is bare.
			// Deliver it directly — the loss-free path that makes a
			// FIFO→TOTAL upgrade seamless for stragglers.
			ev.Epoch = e
			sw.Ctx.Up(ev)
			return
		}
		sw.dropStale(ev, send, fmt.Sprintf("switch: stale cast from epoch %d (segment retired)", e))
		// Stale segment-internal sends (an old TOTAL's token, say) die
		// silently: the segment that understood them is gone.
	}
}

func (sw *Switch) onPropose(ev *core.Event) {
	p := &proposal{epoch: ev.Msg.PopUint(), desc: ev.Msg.PopString(), view: wire.PopViewID(ev.Msg)}
	switch {
	case sw.prop != nil && sw.prop.epoch == p.epoch:
		// Our own proposal looping back.
	case sw.Switching():
		sw.next = p
	default:
		sw.accept(p)
	}
}

// accept takes up a proposal made in the current view for the next
// epoch: close the gate and start quiescing, or refuse it when its
// layers cannot be built here.
func (sw *Switch) accept(p *proposal) {
	if sw.view == nil || p.view != sw.view.ID || p.epoch != sw.epoch+1 {
		return // proposed in a view we left, or for an epoch we are not at
	}
	_, spec, err := sw.resolve(p.desc)
	if err != nil {
		// Resolver asymmetry between members would be a deployment bug:
		// surface it, and refuse in place of the marker so every member
		// aborts.
		refusal := fmt.Sprintf("%s: %v", sw.Ctx.Self(), err)
		sw.Ctx.Up(&core.Event{Type: core.USystemError, Detail: &core.Detail{Reason: refusal}})
		sw.castMarker(p.epoch, p.view, refusal)
		return
	}
	p.spec = spec
	sw.begin(p)
	sw.checkProgress()
}

// checkProgress advances the pending proposal: cast the marker once
// the segment is down-quiescent, abort on a refusal, and commit once
// every marker is in and the segment is up-quiescent.
func (sw *Switch) checkProgress() {
	if sw.prop == nil {
		return
	}
	if !sw.sentQuiesced && sw.seg.Quiescent(true) {
		sw.sentQuiesced = true
		sw.castMarker(sw.prop.epoch, sw.prop.view, "")
	}
	if sw.prop == nil { // the self-delivery above may have completed the round
		return
	}
	all, refusal := sw.tally()
	switch {
	case refusal != "":
		sw.abortLocal(refusal)
	case all && sw.seg.Quiescent(false):
		sw.commit()
	}
}

// tally reports whether the marker of every proposal member has been
// delivered, and the first refusal among them.
func (sw *Switch) tally() (all bool, refusal string) {
	all = true
	for _, m := range sw.prop.members {
		r, ok := sw.marks[mark{from: m, epoch: sw.prop.epoch}]
		if r != "" {
			return false, r
		}
		all = all && ok
	}
	return all, ""
}

func (sw *Switch) onMarker(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	view := wire.PopViewID(ev.Msg)
	refusal := ev.Msg.PopString()
	// A marker counts only toward a proposal of the view it names: one
	// parked by the membership layer across a flush reaches the next
	// view, where it fences nothing.
	if sw.view == nil || view != sw.view.ID || epoch <= sw.epoch {
		return
	}
	sw.marks[mark{from: ev.Source, epoch: epoch}] = refusal
	sw.checkProgress()
}

func (sw *Switch) onRequest(ev *core.Event) {
	desc := ev.Msg.PopString()
	if sw.view == nil || sw.view.Oldest() != sw.Ctx.Self() || sw.Switching() {
		return // not the coordinator (any more), or busy; the requester retries
	}
	if norm, spec, err := sw.validate(desc); err == nil && norm != sw.desc {
		sw.propose(norm, spec)
	}
}

func (sw *Switch) onView(ev *core.Event) {
	// The gate stays held until the view has been forwarded up. A swap
	// or abort on this edge reopens the gate, and dumping the gated
	// casts earlier would let the membership layer — which has already
	// installed the new view below us — cast and self-deliver them
	// synchronously into an application still sitting in the old view,
	// while every remote member delivers them in the new one: a
	// view-agreement violation on both sides of the edge.
	sw.gateHeld = true
	sw.next = nil
	// A pending catch-up must complete before the new view reaches the
	// application: forcing the sync here swaps segments and drains the
	// buffered higher-epoch casts while the old view is still current,
	// so a member that fell behind across a merge delivers them in the
	// same view its peers did — the virtual-synchrony cut stays exact.
	sw.checkSync(true)
	if sw.prop != nil {
		// Virtual synchrony makes this uniform per view edge: everyone
		// sharing it delivered the same markers, so all commit or all
		// abort.
		if all, _ := sw.tally(); all {
			// Fenced casts the segment still holds (TOTAL's reorder buffer)
			// go up in the old view before the swap retires it.
			sw.replaying = true
			sw.seg.Up(&core.Event{Type: core.UView, Detail: &core.Detail{View: ev.View, Primary: ev.Primary}})
			sw.replaying = false
			sw.commit()
		} else {
			sw.abortLocal("view change during switch")
		}
	}
	// Future-epoch data still held was cast in the view now ending, by
	// members that committed an epoch this member did not reach in it
	// (a commit or catch-up above would have drained it): every member
	// moving on with this one left it undelivered too, and delivered in
	// the next view it would cross the view's cut.
	for _, held := range sw.pendingHigh {
		sw.dropStale(held, held.Type == core.USend, "switch: future-epoch cast from a view that has ended")
	}
	sw.pendingHigh = nil
	sw.view = ev.View
	sw.primary = ev.Primary
	sw.flushing = false
	clear(sw.marks)
	sw.seg.Up(ev)
	// The dump must also wait for the membership layer to finish its
	// install: casts it deferred during the flush are older than
	// anything in the gate (they passed the gate before it closed) and
	// are re-cast only after the view upcall returns. A zero-delay
	// timer runs after the whole install chain at the same instant, so
	// the gated casts follow them and per-sender FIFO order survives
	// the edge. A second edge before it fires moves it past that edge's
	// chain too.
	sw.gateTimer.Reset(0)
	// Epoch gossip: every member announces its epoch in every view, so
	// members that aborted on the other side of a partition discover
	// what this side committed, and the gate holds until every other
	// member's announcement is in. A member behind the rest then
	// catches up before it casts in the view: a cast from the retired
	// segment would be delivered here and dropped as stale everywhere
	// else.
	clear(sw.unheard)
	for _, id := range ev.View.Members {
		if id != sw.Ctx.Self() {
			sw.unheard[id] = true
		}
	}
	m := message.New(nil)
	m.PushString(sw.desc)
	m.PushUint(sw.epoch)
	m.PushUint8(kEpoch)
	sw.Ctx.Down(&core.Event{Type: core.DCast, Msg: m})
}

// onEpochAnnounce takes a member's epoch announcement: a later epoch
// starts a catch-up, and the announcement releases the gate's hold on
// its sender.
func (sw *Switch) onEpochAnnounce(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	desc := ev.Msg.PopString()
	sw.catchUp(epoch, desc)
	if sw.unheard[ev.Source] {
		delete(sw.unheard, ev.Source)
		sw.releaseGate()
	}
}

// catchUp starts or retargets a catch-up to an epoch another member
// announced, when it is later than ours.
func (sw *Switch) catchUp(epoch uint64, desc string) {
	if epoch <= sw.epoch || (sw.sync != nil && epoch <= sw.sync.epoch) {
		return
	}
	_, spec, err := sw.resolve(desc)
	if err != nil {
		sw.Ctx.Tracef("switch %s: cannot catch up to epoch %d: %v", sw.Ctx.Self(), epoch, err)
		return
	}
	if sw.sync != nil {
		sw.sync.epoch, sw.sync.desc, sw.sync.spec = epoch, desc, spec
		return
	}
	sw.abortLocal("superseded by a committed epoch on the other partition side")
	sw.sync = &proposal{epoch: epoch, desc: desc, spec: spec}
	sw.gateClosed = true
	sw.armPoll()
	// Bounded local drain, then swap regardless: the retired traffic
	// still in flight is handled by the stale-epoch rules.
	sw.drainTimer.Reset(catchUpDrain)
	sw.checkSync(false)
}

// forceSync completes a catch-up whose drain bound has passed. Only a
// catch-up arms the bound, and it ends in a swap, which stops it.
func (sw *Switch) forceSync() { sw.checkSync(true) }

// checkSync completes a catch-up when the local segment drains (or
// when forced by the drain bound or a view edge).
func (sw *Switch) checkSync(force bool) {
	if sw.sync == nil {
		return
	}
	if !force && !(sw.seg.Quiescent(true) && sw.seg.Quiescent(false)) {
		return
	}
	st := sw.sync
	sw.sync = nil
	sw.stats.SyncCommits++
	sw.swapTo(st.epoch, st.desc, st.spec)
}

// ---- swap / abort ----------------------------------------------------

func (sw *Switch) commit() {
	p := sw.prop
	sw.prop = nil
	sw.stats.Committed++
	sw.swapTo(p.epoch, p.desc, p.spec)
}

// swapTo atomically replaces the segment: detach the old one (its
// layers get no destroy; Detach alone stops their timers and output),
// build fresh, bump the epoch, replay the view, reopen the gate. Runs only at a communication-closed cut (every marker in) or
// after a local drain (catch-up).
func (sw *Switch) swapTo(epoch uint64, desc string, spec core.StackSpec) {
	sw.clearTimers()
	sw.seg.Detach()

	seg, err := sw.Ctx.NewSegment(spec, sw.fromSegTop, sw.fromSegBottom)
	if err != nil {
		// Factories were resolved at propose time, so this is a layer
		// Init failure — fall back to the empty segment rather than
		// leaving the stack headless.
		sw.Ctx.Up(&core.Event{Type: core.USystemError,
			Detail: &core.Detail{Reason: "switch: new segment failed to initialize: " + err.Error()}})
		seg, _ = sw.Ctx.NewSegment(nil, sw.fromSegTop, sw.fromSegBottom)
		desc = ""
	}
	sw.seg = seg
	sw.epoch = epoch
	sw.desc = desc
	sw.descByEpoch[epoch] = desc
	for k := range sw.marks {
		if k.epoch <= epoch {
			delete(sw.marks, k)
		}
	}

	if sw.view != nil {
		// The fresh segment must adopt the membership, but the
		// application already has this view: swallow the replay at the
		// segment top.
		sw.replaying = true
		seg.Up(&core.Event{Type: core.UView, Detail: &core.Detail{View: sw.view, Primary: sw.primary}})
		sw.replaying = false
	}
	sw.Ctx.Up(&core.Event{Type: core.USwitch, Epoch: epoch,
		Detail: &core.Detail{Reason: strings.TrimSpace("committed " + desc)}})
	sw.openGate()
	sw.drainPendingHigh()
	if p := sw.next; p != nil {
		sw.next = nil
		sw.accept(p)
	}
}

// abortLocal rolls a pending proposal back: the old segment never
// moved, so reopening the gate through it is the whole rollback.
func (sw *Switch) abortLocal(reason string) {
	prop := sw.prop
	if prop == nil {
		return
	}
	sw.prop, sw.next = nil, nil
	sw.clearTimers()
	sw.stats.Aborted++
	sw.Ctx.Up(&core.Event{Type: core.USwitch, Epoch: prop.epoch,
		Detail: &core.Detail{Reason: "aborted: " + reason}})
	sw.openGate()
}

// held reports whether the gate keeps application casts above the
// segment: closed for a switch or a catch-up, held across a view edge,
// while a flush runs or the view is not primary (the membership layer
// would park them below, stamped with an epoch the next view may have
// left behind), and until every member's epoch in the view is known.
func (sw *Switch) held() bool {
	return sw.gateClosed || sw.gateHeld || sw.flushing || (sw.view != nil && !sw.primary) || len(sw.unheard) > 0
}

func (sw *Switch) openGate() {
	sw.gateClosed = false
	sw.releaseGate()
}

// releaseHeldGate ends the hold a view edge put on the gate, once the
// install chain that delivered the view has run (see onView).
func (sw *Switch) releaseHeldGate() {
	sw.gateHeld = false
	sw.releaseGate()
}

// releaseGate dumps the gated casts once the gate is open and not held
// (see held and onView for why the hold matters).
func (sw *Switch) releaseGate() {
	if sw.held() || len(sw.gated) == 0 {
		return
	}
	gated := sw.gated
	sw.gated = nil
	for _, ev := range gated {
		sw.seg.Down(ev)
	}
}

// drainPendingHigh re-routes buffered future-epoch data after a swap:
// data of the new epoch enters the segment, data of a later one buffers
// again, and data of an epoch a catch-up skipped is stale.
func (sw *Switch) drainPendingHigh() {
	held := sw.pendingHigh
	sw.pendingHigh = nil
	for _, ev := range held {
		sw.routeData(ev, ev.Type == core.USend)
	}
}

// ---- helpers ---------------------------------------------------------

// dropStale discards an arrival no segment here can deliver; a cast's
// loss is reported upward as LOST_MESSAGE.
func (sw *Switch) dropStale(ev *core.Event, send bool, reason string) {
	sw.stats.StaleDropped++
	if !send {
		sw.Ctx.Up(&core.Event{Type: core.ULostMessage, Source: ev.Source,
			Detail: &core.Detail{Reason: reason}})
	}
}

// castMarker casts this member's marker for the proposal of epoch in
// view: QUIESCED, or a refusal when refusal is not empty.
func (sw *Switch) castMarker(epoch uint64, view core.ViewID, refusal string) {
	m := message.New(nil)
	m.PushString(refusal)
	wire.PushViewID(m, view)
	m.PushUint(epoch)
	m.PushUint8(kQuiesced)
	sw.Ctx.Down(&core.Event{Type: core.DCast, Msg: m})
}

func (sw *Switch) armPoll() {
	if !sw.pollTimer.Armed() {
		sw.pollTimer.Reset(pollEvery)
	}
}

func (sw *Switch) poll() {
	sw.checkProgress()
	sw.checkSync(false)
	if sw.Switching() {
		sw.armPoll()
	}
}

func (sw *Switch) clearTimers() {
	sw.drainTimer.Stop()
	sw.pollTimer.Stop()
}
