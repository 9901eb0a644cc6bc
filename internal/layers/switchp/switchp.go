// Package switchp implements SWITCH, the run-time stack
// reconfiguration protocol — the paper's promise that layers "can be
// stacked on top of each other like LEGO blocks" *at run time* (§1),
// made failure-tolerant.
//
// A SWITCH layer sits directly above a virtually synchronous base
// (MBRSHIP:…:COM) and privately owns a *segment* — a core.SubStack of
// the reconfigurable layers (TOTAL, COMPRESS, CRYPT, ADAPT, …). The
// outer stack never mutates: reconfiguration replaces the segment
// behind SWITCH's fence, so contexts and the membership machinery
// below stay frozen while the protocol personality above
// changes.
//
// The protocol drives four phases, each a round of ordinary casts
// through the VS base (so delivery is FIFO per sender and
// all-or-nothing within a view):
//
//	PROPOSE   the coordinator (oldest view member) validates the
//	          target against Table 3 (property.Derive over the layers
//	          actually beneath the fence) and casts PROPOSE{epoch+1,
//	          target, view}. Every member closes its gate: new
//	          application casts buffer above the segment.
//	QUIESCE   each member polls its segment for down-quiescence (no
//	          unsent output) and then casts QUIESCED — FIFO beneath
//	          guarantees the marker cannot overtake the data it
//	          fences, so the markers delimit a communication-closed
//	          cut ("Causing Communication Closure"). When a member has
//	          seen QUIESCED from everyone *and* its segment is
//	          up-quiescent (every fenced cast delivered, e.g. TOTAL's
//	          reorder buffer drained), it casts READY.
//	SWAP      the coordinator, on READY from everyone, casts COMMIT.
//	          Each member atomically retires the old segment
//	          (DDestroy, then a detach fence that silences its
//	          timers), builds the new one from factories resolved at
//	          PROPOSE time, bumps the epoch, and replays the current
//	          view into the fresh segment (swallowed at the top — the
//	          application sees no duplicate VIEW).
//	RESUME    the gate reopens: buffered casts — which never entered
//	          the old segment, so they carry no retired headers — flow
//	          through the new segment. A SWITCH upcall ("committed
//	          <target>") reports the epoch fence to the application.
//
// ABORT edges: a phase deadline after bounded re-propose retries or —
// decisively — any view change while a proposal is pending. Virtual
// synchrony makes the view-change rule uniform: COMMIT is a cast, so
// members sharing a view edge either all delivered it before the new
// view or none did; whoever reaches the new view un-committed aborts,
// reopens the gate through the *old* segment, and emits "aborted: …".
// Nothing is lost and nothing moved.
//
// Data crossing the fence is epoch-stamped. Matching-epoch traffic
// enters the segment; future-epoch traffic (sender committed first)
// buffers until the local swap; stale traffic from a retired *empty*
// segment is delivered directly (it carries no headers), while stale
// traffic bearing retired-segment headers is surfaced as an explicit
// LOST_MESSAGE — graceful degradation, never corruption. Divergence
// across a partition (one side committed, the other aborted) heals on
// merge: every member announces its epoch after each view install,
// and a behind member catches up with a local quiesce-and-swap.
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
	kQuiesced = 4 // member: segment down-quiescent at the cut {epoch}
	kReady    = 5 // member: cut closed and segment drained {epoch}
	kCommit   = 6 // coordinator: swap now {epoch}
	kAbort    = 7 // coordinator: roll back {epoch, reason}
	kRequest  = 8 // member → coordinator: please propose {target} (send)
	kEpoch    = 9 // post-view epoch announcement {epoch, desc}
)

// Protocol tuning defaults; see DESIGN.md §10 for the rationale.
const (
	defaultQuiesceDeadline = 400 * time.Millisecond
	defaultReadyDeadline   = 400 * time.Millisecond
	// maxRetries is how many times the coordinator re-proposes after a
	// phase deadline before aborting.
	maxRetries = 2
	// pollEvery is the quiescence polling period.
	pollEvery = 15 * time.Millisecond
	// pendingHighCap bounds the future-epoch buffer; beyond it a cast
	// is surfaced as LOST_MESSAGE rather than growing without bound.
	pendingHighCap = 1024
)

// Resolver maps a Table 3 layer name to the factory the switch engine
// instantiates it with. stackreg supplies its registry; tests and the
// chaos harness supply curated, tuned factories.
type Resolver func(name string) (core.Factory, bool)

// Option configures a Switch.
type Option func(*Switch)

// WithResolver sets the factory resolver for segment targets.
func WithResolver(r Resolver) Option { return func(s *Switch) { s.resolver = r } }

// WithInitialSegment sets the segment composed at stack construction
// (default: empty — the plain FIFO personality of the base).
func WithInitialSegment(desc string) Option { return func(s *Switch) { s.initial = desc } }

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

// WithQuiesceDeadline bounds how long the coordinator waits for
// QUIESCED from everyone before a retry or abort.
func WithQuiesceDeadline(d time.Duration) Option { return func(s *Switch) { s.quiesceDeadline = d } }

// WithReadyDeadline bounds how long the coordinator waits for READY
// from everyone before a retry or abort.
func WithReadyDeadline(d time.Duration) Option { return func(s *Switch) { s.readyDeadline = d } }

// New returns a SWITCH factory with default options and no resolver —
// only the empty segment is then reachable. Compose real deployments
// with NewWith(WithResolver(...)).
func New() core.Layer { return NewWith()() }

// NewWith returns a SWITCH factory with the given options.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		s := &Switch{
			netProps:        property.P1,
			quiesceDeadline: defaultQuiesceDeadline,
			readyDeadline:   defaultReadyDeadline,
			descByEpoch:     map[uint64]string{},
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
	Committed    int // swaps completed by a COMMIT round
	SyncCommits  int // swaps completed by post-merge epoch catch-up
	Aborted      int // proposals rolled back
	Retries      int // coordinator re-propose rounds
	StaleDropped int // stale-epoch arrivals not deliverable through a segment
}

// proposal is one pending reconfiguration, identical on every member
// that accepted the PROPOSE cast (virtual synchrony: same view, same
// members).
type proposal struct {
	epoch       uint64
	desc        string
	spec        core.StackSpec
	members     []core.EndpointID
	coordinator core.EndpointID
}

// syncState is a post-merge catch-up to an epoch some other partition
// side committed: a local quiesce-and-swap with no group handshake.
type syncState struct {
	epoch uint64
	desc  string
	spec  core.StackSpec
}

type pendingData struct {
	epoch uint64
	ev    *core.Event
}

// Switch is the reconfiguration fence layer.
type Switch struct {
	core.Base

	resolver   Resolver
	initial    string
	netProps   property.Set
	opaqueBase bool

	quiesceDeadline time.Duration
	readyDeadline   time.Duration

	view    *core.View
	primary bool
	epoch   uint64
	desc    string
	seg     *core.SubStack

	descByEpoch map[uint64]string

	gateClosed bool
	gateHeld   bool // view upcall in flight: delay gate dumps until it is forwarded
	gated      []*core.Event

	prop         *proposal
	sentQuiesced bool
	sentReady    bool
	quiescedFrom map[core.EndpointID]bool
	readyFrom    map[core.EndpointID]bool
	retries      int

	sync *syncState

	pendingHigh []pendingData

	deadlineCancel func()
	pollCancel     func()

	replaying bool
	tearing   bool
	destroyed bool

	stats Stats
}

// Name implements core.Layer.
func (sw *Switch) Name() string { return "SWITCH" }

// Segment implements core.SegmentHolder, so Stack.Focus and
// Stack.Names descend into the managed segment.
func (sw *Switch) Segment() *core.SubStack { return sw.seg }

// Init composes the initial segment.
func (sw *Switch) Init(c *core.Context) error {
	if err := sw.Base.Init(c); err != nil {
		return err
	}
	norm, spec, err := sw.validate(sw.initial)
	if err != nil {
		return fmt.Errorf("switch: initial segment: %w", err)
	}
	sw.desc = norm
	sw.descByEpoch[0] = sw.desc
	sw.seg, err = c.NewSubStack(spec, sw.fromSegTop, sw.fromSegBottom)
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
	norm, _, err := sw.validate(target)
	if err != nil {
		return err
	}
	if norm == sw.desc {
		return nil // already configured; nothing to do
	}
	coord := sw.view.Oldest()
	if coord != sw.Ctx.Self() {
		ev := core.NewSendTo(coord, 0)
		ev.Msg.PushString(norm)
		ev.Msg.PushUint8(kRequest)
		sw.Ctx.Down(ev)
		return nil
	}
	return sw.propose(norm)
}

// validate parses, resolves and property-checks a target, returning
// the normalized description and the resolved factories.
func (sw *Switch) validate(target string) (string, core.StackSpec, error) {
	names := property.ParseStack(target)
	full := append([]string{}, names...)
	full = append(full, "SWITCH")
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
// coordinator: build the pending-proposal state first, then cast
// PROPOSE — the self-delivered copy finds the proposal already
// pending and is ignored (the idempotent re-confirm path).
func (sw *Switch) propose(desc string) error {
	_, spec, err := sw.validateNames(desc)
	if err != nil {
		return fmt.Errorf("switch: %v", err)
	}
	sw.prop = &proposal{
		epoch:       sw.epoch + 1,
		desc:        desc,
		spec:        spec,
		members:     append([]core.EndpointID(nil), sw.view.Members...),
		coordinator: sw.Ctx.Self(),
	}
	sw.stats.Proposed++
	sw.gateClosed = true
	sw.sentQuiesced, sw.sentReady = false, false
	sw.quiescedFrom = map[core.EndpointID]bool{}
	sw.readyFrom = map[core.EndpointID]bool{}
	sw.retries = 0
	sw.armDeadline(sw.quiesceDeadline)
	sw.armPoll()
	sw.castPropose(sw.prop.epoch, desc)
	sw.checkProgress()
	return nil
}

// ---- downward path ---------------------------------------------------

// Down implements core.Layer.
func (sw *Switch) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast, core.DSend:
		// Queue behind earlier gated casts even when the gate itself has
		// reopened but its dump is still held by an in-flight view
		// upcall (len check): overtaking them would break FIFO.
		if sw.gateClosed || len(sw.gated) > 0 {
			sw.gated = append(sw.gated, ev)
			return
		}
		sw.seg.Down(ev)
	case core.DDestroy:
		sw.destroyed = true
		sw.clearTimers()
		sw.gated = nil
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
	if sw.tearing {
		return // DDestroy driven through a retiring segment stops here
	}
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
			sw.onQuiesced(ev)
		case kReady:
			sw.onReady(ev)
		case kCommit:
			sw.onCommit(ev)
		case kAbort:
			sw.onAbort(ev)
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
			sw.pendingHigh = append(sw.pendingHigh, pendingData{epoch: e, ev: ev})
			return
		}
		sw.stats.StaleDropped++
		if !send {
			sw.Ctx.Up(&core.Event{Type: core.ULostMessage, Source: ev.Source,
				Detail: &core.Detail{Reason: fmt.Sprintf("switch: future-epoch buffer full (epoch %d, at %d)", e, sw.epoch)}})
		}
	default: // e < sw.epoch: the sender had not switched yet
		if d, known := sw.descByEpoch[e]; known && d == "" && !send {
			// The retired segment was empty: the payload is bare.
			// Deliver it directly — the loss-free path that makes a
			// FIFO→TOTAL upgrade seamless for stragglers.
			ev.Epoch = e
			sw.Ctx.Up(ev)
			return
		}
		sw.stats.StaleDropped++
		if !send {
			sw.Ctx.Up(&core.Event{Type: core.ULostMessage, Source: ev.Source,
				Detail: &core.Detail{Reason: fmt.Sprintf("switch: stale cast from epoch %d (segment retired)", e)}})
		}
		// Stale segment-internal sends (an old TOTAL's token, say) die
		// silently: the segment that understood them is gone.
	}
}

func (sw *Switch) onPropose(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	desc := ev.Msg.PopString()
	viewID := wire.PopViewID(ev.Msg)
	if sw.view == nil || viewID != sw.view.ID {
		return // proposed in a view we are not in; VS aborts it anyway
	}
	if sw.prop != nil {
		if epoch == sw.prop.epoch {
			// A coordinator retry nudge: idempotently re-confirm
			// whatever we already reported.
			if sw.sentQuiesced {
				sw.castCtl(kQuiesced, epoch)
			}
			if sw.sentReady {
				sw.castCtl(kReady, epoch)
			}
		}
		return
	}
	if epoch != sw.epoch+1 || sw.sync != nil {
		return
	}
	_, spec, err := sw.validateNames(desc)
	if err != nil {
		// Resolver asymmetry between members would be a deployment
		// bug; surface it and let the coordinator's deadline abort.
		sw.Ctx.Up(&core.Event{Type: core.USystemError,
			Detail: &core.Detail{Reason: "switch: cannot resolve proposed segment: " + err.Error()}})
		return
	}
	sw.prop = &proposal{
		epoch:       epoch,
		desc:        desc,
		spec:        spec,
		members:     append([]core.EndpointID(nil), sw.view.Members...),
		coordinator: sw.view.Oldest(),
	}
	sw.stats.Proposed++
	sw.gateClosed = true
	sw.sentQuiesced, sw.sentReady = false, false
	sw.quiescedFrom = map[core.EndpointID]bool{}
	sw.readyFrom = map[core.EndpointID]bool{}
	if sw.prop.coordinator == sw.Ctx.Self() {
		sw.retries = 0
		sw.armDeadline(sw.quiesceDeadline)
	}
	sw.armPoll()
	sw.checkProgress()
}

// validateNames resolves factories without the property re-derivation
// (the coordinator derived before proposing; members must not diverge
// on a check of identical inputs).
func (sw *Switch) validateNames(desc string) (string, core.StackSpec, error) {
	names := property.ParseStack(desc)
	spec := make(core.StackSpec, 0, len(names))
	for _, n := range names {
		if sw.resolver == nil {
			return "", nil, fmt.Errorf("no resolver for %q", n)
		}
		f, ok := sw.resolver(n)
		if !ok {
			return "", nil, fmt.Errorf("no factory for %q", n)
		}
		spec = append(spec, f)
	}
	return strings.Join(names, ":"), spec, nil
}

// checkProgress advances the member-side quiesce machine.
func (sw *Switch) checkProgress() {
	if sw.prop == nil {
		return
	}
	if !sw.sentQuiesced && sw.seg.Quiescent(true) {
		sw.sentQuiesced = true
		sw.castCtl(kQuiesced, sw.prop.epoch)
	}
	if sw.prop == nil { // the self-delivery above may have completed the round
		return
	}
	if sw.sentQuiesced && !sw.sentReady && sw.allFrom(sw.quiescedFrom) && sw.seg.Quiescent(false) {
		sw.sentReady = true
		sw.castCtl(kReady, sw.prop.epoch)
	}
}

func (sw *Switch) onQuiesced(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	if sw.prop == nil || epoch != sw.prop.epoch {
		return
	}
	sw.quiescedFrom[ev.Source] = true
	if sw.isCoordinator() && sw.allFrom(sw.quiescedFrom) {
		// Phase advance: the cut is closed; now wait for drains.
		sw.retries = 0
		sw.armDeadline(sw.readyDeadline)
	}
	sw.checkProgress()
}

func (sw *Switch) onReady(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	if sw.prop == nil || epoch != sw.prop.epoch {
		return
	}
	sw.readyFrom[ev.Source] = true
	if sw.isCoordinator() && sw.allFrom(sw.readyFrom) {
		sw.castCtl(kCommit, epoch)
	}
}

func (sw *Switch) onCommit(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	if sw.prop == nil || epoch != sw.prop.epoch {
		return
	}
	prop := sw.prop
	sw.prop = nil
	sw.clearTimers()
	sw.stats.Committed++
	sw.swapTo(prop.epoch, prop.desc, prop.spec)
}

func (sw *Switch) onAbort(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	reason := ev.Msg.PopString()
	if sw.prop == nil || epoch != sw.prop.epoch {
		return
	}
	sw.abortLocal(reason)
}

func (sw *Switch) onRequest(ev *core.Event) {
	desc := ev.Msg.PopString()
	if sw.view == nil || sw.view.Oldest() != sw.Ctx.Self() {
		return // not the coordinator (any more); the requester retries
	}
	if sw.Switching() {
		return
	}
	if norm, _, err := sw.validate(desc); err == nil && norm != sw.desc {
		if err := sw.propose(norm); err != nil {
			sw.Ctx.Tracef("switch %s: relayed proposal refused: %v", sw.Ctx.Self(), err)
		}
	}
}

func (sw *Switch) onView(ev *core.Event) {
	// A pending catch-up must complete before the new view reaches the
	// application: forcing the sync here swaps segments and drains the
	// buffered higher-epoch casts while the old view is still current,
	// so a member that fell behind across a merge delivers them in the
	// same view its peers did — the virtual-synchrony cut stays exact.
	//
	// The gate stays held until the view has been forwarded up. A swap
	// or abort on this edge reopens the gate, and dumping the gated
	// casts earlier would let the membership layer — which has already
	// installed the new view below us — cast and self-deliver them
	// synchronously into an application still sitting in the old view,
	// while every remote member delivers them in the new one: a
	// view-agreement violation on both sides of the edge.
	sw.gateHeld = true
	sw.checkSync(true)
	sw.view = ev.View
	sw.primary = ev.Primary
	if sw.prop != nil {
		// Virtual synchrony makes this uniform per view edge: COMMIT
		// either reached everyone sharing this edge before the view,
		// or no one — so whoever gets here un-committed aborts, and
		// they all do.
		sw.abortLocal("view change during switch")
	}
	sw.seg.Up(ev)
	// The dump must also wait for the membership layer to finish its
	// install: casts it deferred during the flush are older than
	// anything in the gate (they passed the gate before it closed) and
	// are re-cast only after the view upcall returns. A zero-delay
	// timer runs after the whole install chain at the same instant, so
	// the gated casts follow them and per-sender FIFO order survives
	// the edge.
	sw.Ctx.SetTimer(0, func() {
		sw.gateHeld = false
		sw.releaseGate()
	})
	if sw.epoch > 0 {
		// Epoch gossip: let members that aborted on the other side of
		// a partition discover what this side committed.
		m := message.New(nil)
		m.PushString(sw.desc)
		m.PushUint(sw.epoch)
		m.PushUint8(kEpoch)
		sw.Ctx.Down(&core.Event{Type: core.DCast, Msg: m})
	}
}

func (sw *Switch) onEpochAnnounce(ev *core.Event) {
	epoch := ev.Msg.PopUint()
	desc := ev.Msg.PopString()
	if epoch <= sw.epoch {
		return
	}
	if sw.sync != nil {
		if epoch > sw.sync.epoch {
			if _, spec, err := sw.validateNames(desc); err == nil {
				sw.sync.epoch, sw.sync.desc, sw.sync.spec = epoch, desc, spec
			}
		}
		return
	}
	_, spec, err := sw.validateNames(desc)
	if err != nil {
		sw.Ctx.Tracef("switch %s: cannot catch up to epoch %d: %v", sw.Ctx.Self(), epoch, err)
		return
	}
	if sw.prop != nil {
		sw.abortLocal("superseded by a committed epoch on the other partition side")
	}
	sw.sync = &syncState{epoch: epoch, desc: desc, spec: spec}
	sw.gateClosed = true
	sw.armPoll()
	// Bounded local drain, then swap regardless: the retired traffic
	// still in flight is handled by the stale-epoch rules.
	sw.armDeadline(sw.quiesceDeadline)
	sw.checkSync(false)
}

// checkSync completes a catch-up when the local segment drains (or
// when forced by the deadline).
func (sw *Switch) checkSync(force bool) {
	if sw.sync == nil {
		return
	}
	if !force && !(sw.seg.Quiescent(true) && sw.seg.Quiescent(false)) {
		return
	}
	st := sw.sync
	sw.sync = nil
	sw.clearTimers()
	sw.stats.SyncCommits++
	sw.swapTo(st.epoch, st.desc, st.spec)
}

// ---- swap / abort ----------------------------------------------------

// swapTo atomically replaces the segment: retire behind a detach
// fence, build fresh, bump the epoch, replay the view, reopen the
// gate. Runs only at a communication-closed cut (COMMIT) or a bounded
// local drain (catch-up).
func (sw *Switch) swapTo(epoch uint64, desc string, spec core.StackSpec) {
	old := sw.seg
	sw.tearing = true
	old.Down(&core.Event{Type: core.DDestroy})
	sw.tearing = false
	old.Detach()

	seg, err := sw.Ctx.NewSubStack(spec, sw.fromSegTop, sw.fromSegBottom)
	if err != nil {
		// Factories were resolved at propose time, so this is a layer
		// Init failure — fall back to the empty segment rather than
		// leaving the stack headless.
		sw.Ctx.Up(&core.Event{Type: core.USystemError,
			Detail: &core.Detail{Reason: "switch: new segment failed to initialize: " + err.Error()}})
		seg, _ = sw.Ctx.NewSubStack(nil, sw.fromSegTop, sw.fromSegBottom)
		desc = ""
	}
	sw.seg = seg
	sw.epoch = epoch
	sw.desc = desc
	sw.descByEpoch[epoch] = desc

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
}

// abortLocal rolls a pending proposal back: the old segment never
// moved, so reopening the gate through it is the whole rollback.
func (sw *Switch) abortLocal(reason string) {
	prop := sw.prop
	if prop == nil {
		return
	}
	sw.prop = nil
	sw.clearTimers()
	sw.stats.Aborted++
	sw.Ctx.Up(&core.Event{Type: core.USwitch, Epoch: prop.epoch,
		Detail: &core.Detail{Reason: "aborted: " + reason}})
	sw.openGate()
}

func (sw *Switch) openGate() {
	sw.gateClosed = false
	sw.releaseGate()
}

// releaseGate dumps the gated casts once the gate is open and no view
// upcall is mid-flight (see onView for why the hold matters).
func (sw *Switch) releaseGate() {
	if sw.gateClosed || sw.gateHeld || len(sw.gated) == 0 {
		return
	}
	gated := sw.gated
	sw.gated = nil
	for _, ev := range gated {
		sw.seg.Down(ev)
	}
}

// drainPendingHigh re-routes buffered future-epoch data after a swap.
func (sw *Switch) drainPendingHigh() {
	if len(sw.pendingHigh) == 0 {
		return
	}
	held := sw.pendingHigh
	sw.pendingHigh = nil
	for _, p := range held {
		switch {
		case p.epoch == sw.epoch:
			p.ev.Msg.PushUint(p.epoch) // re-stamp for routeData
			send := p.ev.Type == core.USend
			sw.routeData(p.ev, send)
		case p.epoch > sw.epoch:
			sw.pendingHigh = append(sw.pendingHigh, p)
		default:
			sw.stats.StaleDropped++
			if p.ev.Type == core.UCast {
				sw.Ctx.Up(&core.Event{Type: core.ULostMessage, Source: p.ev.Source,
					Detail: &core.Detail{Reason: fmt.Sprintf("switch: buffered cast from skipped epoch %d", p.epoch)}})
			}
		}
	}
}

// ---- helpers ---------------------------------------------------------

func (sw *Switch) isCoordinator() bool {
	return sw.prop != nil && sw.prop.coordinator == sw.Ctx.Self()
}

func (sw *Switch) allFrom(set map[core.EndpointID]bool) bool {
	if sw.prop == nil {
		return false
	}
	for _, m := range sw.prop.members {
		if !set[m] {
			return false
		}
	}
	return true
}

func (sw *Switch) castPropose(epoch uint64, desc string) {
	m := message.New(nil)
	wire.PushViewID(m, sw.view.ID)
	m.PushString(desc)
	m.PushUint(epoch)
	m.PushUint8(kPropose)
	sw.Ctx.Down(&core.Event{Type: core.DCast, Msg: m})
}

func (sw *Switch) castCtl(kind uint8, epoch uint64) {
	m := message.New(nil)
	m.PushUint(epoch)
	m.PushUint8(kind)
	sw.Ctx.Down(&core.Event{Type: core.DCast, Msg: m})
}

func (sw *Switch) castAbort(reason string) {
	if sw.prop == nil {
		return
	}
	m := message.New(nil)
	m.PushString(reason)
	m.PushUint(sw.prop.epoch)
	m.PushUint8(kAbort)
	sw.Ctx.Down(&core.Event{Type: core.DCast, Msg: m})
	// The coordinator's own abort takes effect immediately; the
	// self-delivered copy of the cast then finds no pending proposal
	// and is ignored, so this is idempotent under VS loopback.
	sw.abortLocal(reason)
}

// armDeadline (re)arms the coordinator phase deadline — also used as
// the bounded catch-up drain. On expiry the coordinator re-proposes
// up to maxRetries times, then aborts.
func (sw *Switch) armDeadline(d time.Duration) {
	if sw.deadlineCancel != nil {
		sw.deadlineCancel()
	}
	sw.deadlineCancel = sw.Ctx.SetTimer(d, func() {
		sw.deadlineCancel = nil
		sw.onDeadline(d)
	})
}

func (sw *Switch) onDeadline(d time.Duration) {
	if sw.sync != nil {
		sw.checkSync(true)
		return
	}
	if sw.prop == nil || !sw.isCoordinator() {
		return
	}
	if sw.retries < maxRetries {
		sw.retries++
		sw.stats.Retries++
		sw.castPropose(sw.prop.epoch, sw.prop.desc)
		sw.armDeadline(d)
		return
	}
	phase := "quiesce"
	if sw.allFrom(sw.quiescedFrom) {
		phase = "ready"
	}
	sw.castAbort(phase + " deadline expired")
}

func (sw *Switch) armPoll() {
	if sw.pollCancel != nil {
		return
	}
	sw.pollCancel = sw.Ctx.SetTimer(pollEvery, func() {
		sw.pollCancel = nil
		sw.checkProgress()
		sw.checkSync(false)
		if sw.Switching() {
			sw.armPoll()
		}
	})
}

func (sw *Switch) clearTimers() {
	if sw.deadlineCancel != nil {
		sw.deadlineCancel()
		sw.deadlineCancel = nil
	}
	if sw.pollCancel != nil {
		sw.pollCancel()
		sw.pollCancel = nil
	}
}
