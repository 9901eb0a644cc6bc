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
// A switch is a view change. Segments are swapped only where a view
// begins, and each view runs exactly one segment, named by the view's
// oldest member: on every view it installs, that member casts
// CONFIG{view, desc}. Until a member has delivered its view's CONFIG
// it holds the VIEW upcall, its gate (application casts buffer above
// the segment) and the data that arrives in the view. On the CONFIG it
// passes the view through the old segment with that segment's output
// dropped (TOTAL's reorder buffer drains in the old view), builds the
// segment desc names if it differs, and releases the VIEW upcall, the
// held data and the gate, in that order. A view that ends without its
// CONFIG — its oldest member failed first — is never reported to the
// application, and the data held in it is reported lost. A non-primary
// view (the membership layer's primary-partition restriction) gets no
// CONFIG: every cast in it is parked and every send dropped, so nothing
// is delivered or switched there; its VIEW goes up at once and the gate
// stays held. A segment swapped at a member outside the proposal may
// still hold casts; they are reported lost, never sent.
//
// A reconfiguration is two rounds of ordinary casts through the VS
// base, so delivery is FIFO per sender and all-or-nothing within a
// view:
//
//	PROPOSE   the coordinator (oldest view member) validates the
//	          target against Table 3 (property.Derive over the layers
//	          actually beneath the fence) and casts PROPOSE{target,
//	          view}. Every member closes its gate.
//	QUIESCED  each member waits until its segment is down-quiescent (no
//	          unsent output) and casts its marker QUIESCED{view}. FIFO
//	          beneath keeps a marker behind the data it fences. A member
//	          that cannot build the target casts a refusal instead.
//
// Once the coordinator has delivered every proposal member's marker it
// issues Table 1's flush downcall with nobody failed, and the view the
// flush installs carries the target in its CONFIG. A delivered refusal
// aborts at once; any other switch still pending at a view edge is
// decided by that view's CONFIG — "committed <desc>" when it names the
// target, "aborted: view change during switch" when it does not. A
// SWITCH upcall follows the VIEW upcall of the view it takes effect in.
// There are no deadlines: a silent member is the membership layer's to
// exclude.
//
// Casts leaving the segment carry no stamp of their own: the membership
// layer delivers a cast only in the view it was cast in, and a view
// runs one segment. Subset sends are not view-tagged below, so SWITCH
// tags them with the sender's view and drops one that names another.
package switchp

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"horus/internal/core"
	"horus/internal/property"
	"horus/internal/wire"
)

// Wire kinds at the SWITCH level, popped from the top of every
// CAST/SEND that reaches the layer from below.
const (
	kData     = 1 // cast leaving the segment: the segment's own headers follow
	kSendApp  = 2 // subset send leaving the segment: {viewID} + inner
	kPropose  = 3 // coordinator: begin a switch {target, viewID}
	kQuiesced = 4 // member: marker at the cut {viewID, refusal}; refusal "" unless the member cannot build the target
	kRequest  = 5 // member → coordinator: please propose {target} (send)
	kConfig   = 6 // the view's oldest member: the segment the view runs {viewID, desc}
)

// Protocol tuning; see DESIGN.md §10 for the rationale.
const (
	// pollEvery is the quiescence polling period.
	pollEvery = 15 * time.Millisecond
	// arrivalCap bounds the data held until a view's CONFIG; beyond it
	// a cast is surfaced as LOST_MESSAGE rather than growing without
	// bound.
	arrivalCap = 1024
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
			netProps: property.P1,
			marks:    map[core.EndpointID]string{},
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
	Committed    int // segment swaps, one per view edge that changed the segment
	Aborted      int // proposals rolled back
	StaleDropped int // arrivals no segment here can deliver
}

// proposal is one reconfiguration, identical on every member that
// accepted the PROPOSE cast (virtual synchrony: same view, same
// members).
type proposal struct {
	desc    string
	view    core.ViewID // the view the proposal was made in
	members []core.EndpointID
}

// Switch is the reconfiguration fence layer.
type Switch struct {
	core.Base

	resolver   Resolver
	netProps   property.Set
	opaqueBase bool

	view    *core.View  // the membership layer's current view
	primary bool        // view is primary
	segView core.ViewID // the view the segment runs in: the last one configured
	desc    string
	seg     *core.Stack

	// edge is the VIEW upcall of the current view, held until the view's
	// CONFIG is delivered; arrivals is the data delivered in the view
	// meanwhile, and out the casts the segment emitted while the
	// membership layer would have parked them.
	edge     *core.Event
	arrivals core.Queue
	out      core.Queue

	gateClosed bool
	flushing   bool // a FLUSH upcall has passed since the last view
	gated      core.Queue

	prop         *proposal
	sentQuiesced bool
	// marks holds the markers delivered in the current view, mapped to
	// the refusal they carry ("" for none). A marker may arrive before
	// the PROPOSE it answers, since FIFO orders only one sender's casts.
	marks map[core.EndpointID]string

	pollTimer core.Timer[Switch] // the progress poll while switching (poll)

	retiring  bool // the segment is draining into a view it will not run in
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
	sw.pollTimer.Bind(c, sw, (*Switch).poll)
	var err error
	sw.seg, err = c.NewSegment(nil, sw.fromSegTop, sw.fromSegBottom)
	return err
}

// Desc returns the current segment description ("" when empty).
func (sw *Switch) Desc() string { return sw.desc }

// Stats returns a snapshot of the protocol counters.
func (sw *Switch) Stats() Stats { return sw.stats }

// Switching reports whether a proposal is in flight.
func (sw *Switch) Switching() bool { return sw.prop != nil }

// RequestSwitch asks the group to reconfigure the managed segment to
// target (a ":"-joined layer list, top first; "" empties the
// segment). Must run on the endpoint's executor (Endpoint.Do). The
// target is validated — factories resolvable, Table 3 well-formedness
// re-derived over the layers actually beneath the fence — before
// anything is sent. At the coordinator the outcome is asynchronous and
// reported by a SWITCH upcall. Elsewhere the request is sent to the
// coordinator, which drops it without any upcall if it is busy with
// another switch or no longer the oldest member when the request
// arrives; nothing retries it.
func (sw *Switch) RequestSwitch(target string) error {
	if sw.destroyed {
		return errors.New("switch: stack destroyed")
	}
	if sw.view == nil || sw.edge != nil {
		return errors.New("switch: no view installed yet")
	}
	if sw.Switching() {
		return errors.New("switch: reconfiguration already in progress")
	}
	norm, err := sw.validate(target)
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
	sw.propose(norm)
	return nil
}

// validate parses, resolves and property-checks a target, returning
// the normalized description.
func (sw *Switch) validate(target string) (string, error) {
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
		return "", err
	}
	norm, _, err := sw.resolve(target)
	return norm, err
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
func (sw *Switch) propose(desc string) {
	sw.begin(&proposal{desc: desc, view: sw.view.ID})
	ev := core.NewDowncall(core.DCast, nil, len(desc))
	wire.PushViewID(ev.Msg, sw.view.ID)
	ev.Msg.PushString(desc)
	ev.Msg.PushUint8(kPropose)
	sw.Ctx.Down(ev)
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
		// reopened but its dump has not run yet (len check): overtaking
		// them would break FIFO.
		if sw.held() || sw.gated.Len() > 0 {
			sw.gated.Put(sw.Ctx, ev)
			return
		}
		sw.seg.Down(ev)
	case core.DDestroy:
		sw.destroyed = true
		sw.seg.Down(ev) // falls out of the segment and continues below
	case core.DDump:
		ev.Dump = append(ev.Dump, fmt.Sprintf(
			"SWITCH view=%v segment=%q switching=%v gated=%d stats=%+v",
			sw.segView, sw.desc, sw.Switching(), sw.gated.Len(), sw.stats))
		sw.seg.Down(ev)
	default:
		sw.seg.Down(ev)
	}
}

// fromSegBottom receives events falling off the bottom of the managed
// segment. A cast the membership layer would park, or a retiring
// segment's, waits in out for the view's CONFIG; a send is tagged with
// the segment's view. A retiring segment's sends are dropped, and so
// are sends outside a primary view, where the segment may not be the
// one its peers run.
func (sw *Switch) fromSegBottom(ev *core.Event) {
	switch {
	case ev.Type == core.DCast:
		if sw.retiring || sw.parking() || sw.out.Len() > 0 {
			sw.out.Put(sw.Ctx, ev)
			return
		}
		ev.Msg.PushUint8(kData)
	case sw.retiring:
		return
	case ev.Type == core.DSend:
		if !sw.primary {
			return
		}
		wire.PushViewID(ev.Msg, sw.segView)
		ev.Msg.PushUint8(kSendApp)
	}
	sw.Ctx.Down(ev)
}

// fromSegTop receives events emerging from the top of the managed
// segment and forwards them to the application — all but a retiring
// segment's VIEW, which the application gets from the segment that
// runs in the view.
func (sw *Switch) fromSegTop(ev *core.Event) {
	if sw.retiring && ev.Type == core.UView {
		return
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
			sw.arrive(ev)
		case kPropose:
			sw.onPropose(ev)
		case kQuiesced:
			sw.onMarker(ev)
		case kConfig:
			sw.onConfig(ev)
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
			sw.arrive(ev)
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

// arrive routes data from below: held until the view's CONFIG, then
// into the segment. A send enters only in the primary view it was sent
// in: members reach a non-primary view from views that may have run
// different segments, and keep them there.
func (sw *Switch) arrive(ev *core.Event) {
	if sw.edge != nil {
		if sw.arrivals.Len() == arrivalCap {
			sw.dropStale(ev, "switch: arrivals held past the cap before the view's CONFIG")
			return
		}
		sw.arrivals.Put(sw.Ctx, ev)
		return
	}
	if ev.Type == core.USend && (!sw.primary || wire.PopViewID(ev.Msg) != sw.segView) {
		sw.stats.StaleDropped++ // another segment sent it
		return
	}
	sw.seg.Up(ev)
}

func (sw *Switch) onPropose(ev *core.Event) {
	desc := ev.Msg.PopString()
	view := wire.PopViewID(ev.Msg)
	if sw.prop != nil || sw.view == nil || sw.edge != nil || view != sw.view.ID {
		return // our own proposal looping back, or proposed in a view we left
	}
	if _, _, err := sw.resolve(desc); err != nil {
		// Resolver asymmetry between members would be a deployment bug:
		// surface it, and refuse in place of the marker so every member
		// aborts.
		refusal := fmt.Sprintf("%s: %v", sw.Ctx.Self(), err)
		sw.Ctx.Up(&core.Event{Type: core.USystemError, Detail: &core.Detail{Reason: refusal}})
		sw.castMarker(view, refusal)
		return
	}
	sw.begin(&proposal{desc: desc, view: view})
	sw.checkProgress()
}

// checkProgress advances the pending proposal: cast the marker once
// the segment is down-quiescent, abort on a refusal, and — at the
// coordinator, once every marker is in — ask the membership layer for
// the view edge that will carry the switch. The request repeats each
// poll until the view changes: the membership layer starts no flush
// while it is busy with a merge.
func (sw *Switch) checkProgress() {
	if sw.prop == nil || sw.prop.view != sw.view.ID {
		return // decided by the CONFIG of the view that ended it
	}
	if !sw.sentQuiesced {
		if sw.seg.Quiescent(true) {
			sw.sentQuiesced = true
			// Its self-delivery comes back through onMarker.
			sw.castMarker(sw.prop.view, "")
		}
		return
	}
	all, refusal := sw.tally()
	switch {
	case refusal != "":
		sw.abort(refusal)
		sw.releaseGate()
	case all && sw.view.Oldest() == sw.Ctx.Self():
		sw.Ctx.Down(&core.Event{Type: core.DFlush, Detail: &core.Detail{}})
	}
}

// tally reports whether the marker of every proposal member has been
// delivered, and the first refusal among them.
func (sw *Switch) tally() (all bool, refusal string) {
	all = true
	for _, m := range sw.prop.members {
		r, ok := sw.marks[m]
		if r != "" {
			return false, r
		}
		all = all && ok
	}
	return all, ""
}

func (sw *Switch) onMarker(ev *core.Event) {
	view := wire.PopViewID(ev.Msg)
	refusal := ev.Msg.PopString()
	// A marker counts only toward a proposal of the view it names: one
	// parked by the membership layer across a flush reaches the next
	// view, where it fences nothing.
	if sw.view == nil || view != sw.view.ID {
		return
	}
	sw.marks[ev.Source] = refusal
	sw.checkProgress()
}

// onRequest proposes a member's forwarded request. A coordinator that
// is busy, or no longer the oldest member, drops it without an upcall
// here or at the requester.
func (sw *Switch) onRequest(ev *core.Event) {
	desc := ev.Msg.PopString()
	if sw.view == nil || sw.edge != nil || sw.view.Oldest() != sw.Ctx.Self() || sw.Switching() {
		return
	}
	if norm, err := sw.validate(desc); err == nil && norm != sw.desc {
		sw.propose(norm)
	}
}

// ---- view edges ------------------------------------------------------

// onView holds a primary view until its CONFIG. At the view's oldest
// member it decides the segment the view runs: the pending proposal's
// target if every marker of it was delivered and none refused, the
// current segment otherwise. Members that reach the view from the same
// predecessor delivered the same markers, but only the oldest member's
// verdict counts, so a merge of two sides is reconciled by it too.
//
// A non-primary view gets no CONFIG: the membership layer parks every
// cast there, so nothing is delivered in it and nothing is switched.
// Its VIEW goes up at once through the current segment, and the gate
// stays held until a primary view is configured.
func (sw *Switch) onView(ev *core.Event) {
	if sw.edge != nil {
		// The previous view ended before its CONFIG was delivered, so
		// at every member moving on with this one: what it held there
		// is delivered nowhere.
		sw.arrivals.Drain(func(held *core.Event) {
			sw.dropStale(held, "switch: cast from a view that ended before its CONFIG")
		})
	}
	desc := sw.desc
	if sw.prop != nil {
		if all, _ := sw.tally(); all {
			desc = sw.prop.desc
		}
	}
	sw.edge = ev //horus:hcpi-ok — a VIEW upcall is built by the membership layer below, never a receive record
	sw.view, sw.primary = ev.View, ev.Primary
	sw.flushing = false
	clear(sw.marks)
	switch {
	case !ev.Primary:
		sw.configure(sw.desc)
	case ev.View.Oldest() == sw.Ctx.Self():
		cfg := core.NewDowncall(core.DCast, nil, len(desc))
		cfg.Msg.PushString(desc)
		wire.PushViewID(cfg.Msg, ev.View.ID)
		cfg.Msg.PushUint8(kConfig)
		sw.Ctx.Down(cfg) // may self-deliver the CONFIG before returning
	}
}

// onConfig completes the view edge the CONFIG names.
func (sw *Switch) onConfig(ev *core.Event) {
	id := wire.PopViewID(ev.Msg)
	desc := ev.Msg.PopString()
	if sw.edge != nil && id == sw.view.ID {
		sw.configure(desc)
	} // else it names a view that has ended
}

// configure completes the held view edge with desc as the view's
// segment: drain and retire the old segment and build the new one if
// the segment changes, then release the VIEW upcall, the switch
// outcome, the held data and the gate, in that order.
func (sw *Switch) configure(desc string) {
	edge := sw.edge
	swapped := desc != sw.desc
	if swapped {
		sw.swap(edge, desc) // app casts during the drain stay gated: edge is still set
	}
	sw.edge, sw.segView = nil, edge.View.ID
	sw.seg.Up(edge)
	if p := sw.prop; p != nil && p.desc != sw.desc {
		sw.abort("view change during switch")
	}
	if swapped {
		sw.prop, sw.gateClosed = nil, false
		sw.Ctx.Up(&core.Event{Type: core.USwitch,
			Detail: &core.Detail{Reason: strings.TrimSpace("committed " + sw.desc)}})
	}
	sw.arrivals.Drain(sw.arrive)
	sw.out.Drain(sw.fromSegBottom)
	sw.releaseGate()
}

// swap retires the segment at a view edge and builds desc's in its
// place. The old segment sees the view first with its output dropped,
// so what it still holds for the application (TOTAL's reorder buffer)
// is delivered in the view that is ending; then it is detached (its
// layers get no destroy; Detach alone stops their timers and output).
// The retired segment's casts never reach the wire: each one in out is
// reported as LOST_MESSAGE from self, and one more report stands for
// any it still holds unsent (a member outside the proposal cast no
// marker, so nothing waited for its segment to drain).
func (sw *Switch) swap(edge *core.Event, desc string) {
	sw.retiring = true
	sw.seg.Up(&core.Event{Type: core.UView, Detail: edge.Detail})
	sw.retiring = false
	lost := 0
	sw.out.Drain(func(*core.Event) { lost++ })
	if !sw.seg.Quiescent(true) {
		lost++
	}
	sw.seg.Detach()
	for range lost {
		sw.Ctx.Up(&core.Event{Type: core.ULostMessage, Source: sw.Ctx.Self(),
			Detail: &core.Detail{Reason: "switch: cast of a retired segment never sent"}})
	}

	_, spec, err := sw.resolve(desc)
	var seg *core.Stack
	if err == nil {
		seg, err = sw.Ctx.NewSegment(spec, sw.fromSegTop, sw.fromSegBottom)
	}
	if err != nil {
		// A layer this member cannot build or initialize: fall back to
		// the empty segment rather than leaving the stack headless.
		sw.Ctx.Up(&core.Event{Type: core.USystemError,
			Detail: &core.Detail{Reason: "switch: new segment failed to initialize: " + err.Error()}})
		seg, _ = sw.Ctx.NewSegment(nil, sw.fromSegTop, sw.fromSegBottom)
		desc = ""
	}
	sw.seg, sw.desc = seg, desc
	sw.stats.Committed++
}

// abort rolls a pending proposal back: the old segment never moved, so
// reopening the gate through it is the whole rollback. The caller
// releases the gate.
func (sw *Switch) abort(reason string) {
	sw.prop, sw.gateClosed = nil, false
	sw.stats.Aborted++
	sw.Ctx.Up(&core.Event{Type: core.USwitch, Detail: &core.Detail{Reason: "aborted: " + reason}})
}

// parking reports whether the membership layer would park a cast now,
// or the view is not configured yet: before the first view, during a
// flush, before the view's CONFIG and in a non-primary view. A parked
// cast would be released into the next view, which may run another
// segment.
func (sw *Switch) parking() bool {
	return sw.view == nil || sw.flushing || sw.edge != nil || !sw.primary
}

// held reports whether the gate keeps application casts above the
// segment: closed for a switch, or parking.
func (sw *Switch) held() bool { return sw.gateClosed || sw.parking() }

// releaseGate dumps the gated casts once the gate is open.
func (sw *Switch) releaseGate() {
	if sw.held() || sw.gated.Len() == 0 {
		return
	}
	sw.gated.Drain(func(ev *core.Event) { sw.seg.Down(ev) }) // sw.seg read per cast
}

// ---- helpers ---------------------------------------------------------

// dropStale discards an arrival no segment here can deliver; a cast's
// loss is reported upward as LOST_MESSAGE.
func (sw *Switch) dropStale(ev *core.Event, reason string) {
	sw.stats.StaleDropped++
	if ev.Type == core.UCast {
		sw.Ctx.Up(&core.Event{Type: core.ULostMessage, Source: ev.Source,
			Detail: &core.Detail{Reason: reason}})
	}
}

// castMarker casts this member's marker for the proposal of view:
// QUIESCED, or a refusal when refusal is not empty.
func (sw *Switch) castMarker(view core.ViewID, refusal string) {
	ev := core.NewDowncall(core.DCast, nil, len(refusal))
	ev.Msg.PushString(refusal)
	wire.PushViewID(ev.Msg, view)
	ev.Msg.PushUint8(kQuiesced)
	sw.Ctx.Down(ev)
}

func (sw *Switch) armPoll() {
	if !sw.pollTimer.Armed() {
		sw.pollTimer.Reset(pollEvery)
	}
}

func (sw *Switch) poll() {
	sw.checkProgress()
	if sw.prop != nil && sw.prop.view == sw.view.ID {
		sw.armPoll()
	}
}
