// Package mbrship implements the MBRSHIP layer (paper §5): group
// membership with the flush protocol, providing virtual synchrony.
//
// MBRSHIP "simulates an environment for the members of a group in
// which members can only fail (they cannot be slow or get
// disconnected) and messages do not get lost". Each member holds a
// view — an ordered list of members. Every member of the current view
// either accepts the same next view or is removed from it, and a
// message delivered in a view is delivered to all surviving members of
// that view before the next view installs.
//
// At the heart of the layer is the flush protocol (Figure 2). When a
// member crash is detected (a PROBLEM upcall from NAK, a flush
// downcall from the application, or a verdict from an external failure
// detector) the oldest surviving member of the oldest view becomes
// coordinator — an election that needs no messages. The coordinator
// broadcasts FLUSH; every member returns the messages that are not yet
// known to be stable (all members log all unstable messages), then
// replies FLUSH_OK and ignores further traffic from the failed
// members. Once all FLUSH_OK replies are in, the coordinator
// rebroadcasts the still-unstable messages and installs the new view.
// If members fail during the flush, a new round starts immediately.
//
// View merging (the merge downcall / MERGE_REQUEST upcall) joins two
// concurrent views: each side flushes its own view, then the contacted
// coordinator installs the union. Joining a group is the degenerate
// case — a fresh endpoint starts in a singleton view and merges in
// (paper §11: "member join (actually, view merge)").
//
// MBRSHIP relies only on reliable FIFO channels from the layer below
// (NAK). Properties: requires P3, P4, P10, P11, P12; provides P8, P9
// (virtual synchrony) and P15 (consistent views).
package mbrship

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/vslog"
	"horus/internal/wire"
)

// Wire kinds. A message that belongs to a view carries the view's whole
// ID (wire.PushViewID), coordinator and all: concurrent partitioned views
// can share a sequence number, and a cast tagged with the number alone
// would leak into a same-seq view across a partition and break virtually
// synchronous delivery.
const (
	kData       = 1  // multicast data {view ID, seq}
	kSendData   = 2  // subset send pass-through
	kSuspect    = 3  // suspicion report to coordinator {failed}
	kFlush      = 4  // coordinator starts flush {round, failed}
	kFwd        = 5  // the unstable messages of a log {round, view ID, batch} (vslog.PushBatch)
	kFlushOK    = 6  // member completed flushing {round}
	kView       = 7  // coordinator installs view {view}
	kGossip     = 8  // stability gossip {delivered counts in view order}
	kMergeReq   = 9  // merge request {requester view}
	kMergeGrant = 10 // merge granted
	kMergeDeny  = 11 // merge denied {reason}
	kMergeReady = 12 // requester side flushed {survivors}
	kLeave      = 13 // voluntary departure announcement
	kPoolMark   = 14 // end-of-rebroadcast marker {round}, merge flushes
	kPoolAck    = 15 // survivor confirms pool receipt {round}
	kViewNack   = 16 // member refuses a view it cannot install {view id}
)

// states of the layer.
const (
	stNormal = iota
	stFlushing
	stMergingOut // we requested a merge and are flushing our view
	stMergingIn  // we granted a merge and are flushing our view
)

// Defaults; override with Options.
const (
	defaultGossipPeriod = 100 * time.Millisecond
	defaultFlushTimeout = 2 * time.Second
)

const (
	// mergeRetry is how often a requester resends an unanswered merge
	// request.
	mergeRetry = 500 * time.Millisecond

	// maxMergeTries bounds retry-timer firings per merge attempt
	// before the requester gives up on an unresponsive target.
	maxMergeTries = 5

	// maxFutureBuffer bounds messages held because they were sent in a
	// view newer than ours (the sender outran the view announcement).
	maxFutureBuffer = 256

	// maxFwdStash bounds the forwarded messages held until the view
	// announcement that decides whether their flush is the one we
	// follow, counted in entries: a batch that would take the stash past
	// it is dropped whole.
	maxFwdStash = 4096
)

// Option configures the layer at construction.
type Option func(*Mbrship)

// WithGossipPeriod sets the stability-gossip interval.
func WithGossipPeriod(d time.Duration) Option { return func(m *Mbrship) { m.gossipPeriod = d } }

// WithFlushTimeout sets how long a member waits for flush progress
// before suspecting the flush coordinator.
func WithFlushTimeout(d time.Duration) Option { return func(m *Mbrship) { m.flushTimeout = d } }

// WithManualMergeGrant makes the layer surface MERGE_REQUEST upcalls
// and wait for merge_granted / merge_denied downcalls, instead of
// granting automatically.
func WithManualMergeGrant() Option { return func(m *Mbrship) { m.manualGrant = true } }

// WithExternalSuspicions makes the layer ignore PROBLEM upcalls from
// the layer below; only flush downcalls (e.g. fed by an external
// failure-detection service, §5) introduce suspicions.
func WithExternalSuspicions() Option { return func(m *Mbrship) { m.externalFD = true } }

// WithoutFlush disables unstable-message logging and forwarding: the
// layer still agrees on views (property P15) but delivers only
// *semi*-synchrony (P8) — messages in flight at a view change may be
// lost for some survivors. This is the BMS decomposition of Table 3;
// stack a FLUSH layer above to restore full virtual synchrony.
func WithoutFlush() Option { return func(m *Mbrship) { m.noFlush = true } }

// WithAppFlushOK makes the layer wait for a flush_ok downcall before
// consenting to a flush, instead of consenting automatically. A layer
// above (FLUSH, VSS) or the application uses the window between the
// FLUSH upcall and its flush_ok to redistribute unstable messages.
func WithAppFlushOK() Option { return func(m *Mbrship) { m.appFlushOK = true } }

// WithName overrides the layer's protocol name (the BMS package
// presents a renamed MBRSHIP variant).
func WithName(name string) Option { return func(m *Mbrship) { m.name = name } }

// WithPrimaryPartition enables the Isis-style primary-partition
// progress restriction (paper §9): among concurrent views of a group
// whose full membership counts total endpoints, only a view holding a
// strict majority is *primary*. Views still form in minority
// partitions (so healing by merge works unchanged), but VIEW upcalls
// carry Primary=false and application casts are deferred until the
// member is back in a primary view — the minority makes no progress.
// The default (total = 0) treats every view as primary, the paper's
// extended-virtual-synchrony configuration.
func WithPrimaryPartition(total int) Option { return func(m *Mbrship) { m.quorumOf = total } }

// New returns an MBRSHIP layer with default configuration.
func New() core.Layer { return newMbrship() }

// NewWith returns a factory with options applied.
func NewWith(opts ...Option) core.Factory {
	return func() core.Layer {
		m := newMbrship()
		for _, o := range opts {
			o(m)
		}
		return m
	}
}

func newMbrship() *Mbrship {
	return &Mbrship{
		gossipPeriod: defaultGossipPeriod,
		flushTimeout: defaultFlushTimeout,
	}
}

// Mbrship is one MBRSHIP layer instance.
type Mbrship struct {
	core.Base

	view   *core.View
	rank   int               // this member's place in view.Members
	epoch  uint64            // view.ID.Seq shorthand
	others []core.EndpointID // view members except self; replaced, never edited, by install

	state int

	// Data-path state, reset at each view installation.
	castSeq   uint64                // my casts in this view
	delivered vslog.Delivered       // what this member delivered in this view
	log       vslog.Log             // unstable messages, at MBRSHIP level (upper headers + body)
	stability *core.StabilityMatrix // what each member reported delivering, by gossip, by rank

	// Failure handling: suspected members, by rank.
	suspects []bool

	// Flush state.
	flushCoord   core.EndpointID
	flushRound   uint64
	roundFailed  string                            // failure-set signature of the current round
	answered     map[core.EndpointID]uint64        // highest round answered per coordinator
	okFrom       []bool                            // consents by rank in the round this member coordinates; nil outside one
	flushTimer   core.Timer[Mbrship]               // the flush watchdog (flushExpired)
	pendingCasts core.Queue                        // application casts deferred during flush
	future       core.Queue                        // data from views we have not installed yet
	fwdStash     map[core.EndpointID][]vslog.Batch // forwards per sender, awaiting that sender's view
	stashSize    int                               // entries in fwdStash

	// Merge state.
	mergeTarget     core.EndpointID // outgoing: contacted coordinator
	mergePeer       []core.EndpointID
	mergePeerView   core.ViewID              // incoming: the view the requester side sealed
	mergePeerSealer core.EndpointID          // incoming: the coordinator that sealed it
	mergeReady      bool                     // incoming: requester flushed; outgoing: grant received
	ownFlushDone    bool                     // incoming/outgoing: our side's flush finished
	poolWait        map[core.EndpointID]bool // outgoing: survivors owing a pool ack
	mergeTries      int                      // retry-timer firings for the current attempt
	mergeTimer      core.Timer[Mbrship]      // the merge request's retry (mergeExpired)
	pendingReqs     []*core.View             // manual grant: one request per requester, awaiting the application

	gossipTimer  core.Timer[Mbrship] // the stability round (gossipTick)
	installFirst core.Timer[Mbrship] // the singleton view's zero-delay install (installSingleton)

	// Config.
	gossipPeriod time.Duration
	flushTimeout time.Duration
	manualGrant  bool
	externalFD   bool
	noFlush      bool
	appFlushOK   bool
	name         string
	quorumOf     int // primary-partition mode: total membership; 0 = off

	// Deferred flush consent (appFlushOK mode): the round we owe a
	// flush_ok for, or nil.
	consentCoord core.EndpointID
	consentRound uint64
	consentOwed  bool

	gossipCounts []uint64 // the vector of the gossip round in progress, refilled each round
	stats        Stats
}

// Stats counts membership activity.
type Stats struct {
	ViewsInstalled int
	FlushRounds    int
	FwdsSent       int // logged messages forwarded, not batches
	FwdsDelivered  int
	StaleDropped   int // messages from old epochs or non-members dropped
	Malformed      int // forward batches refused by vslog.PopBatch
	ViewsRefused   int // announced views rejected for a predecessor mismatch
	MergesGranted  int
	MergesDenied   int
}

// Name implements core.Layer.
func (m *Mbrship) Name() string {
	if m.name != "" {
		return m.name
	}
	return "MBRSHIP"
}

// Stats returns a snapshot of the layer's counters.
func (m *Mbrship) Stats() Stats { return m.stats }

// View returns the current view (for Focus-based inspection).
func (m *Mbrship) View() *core.View { return m.view }

// Init implements core.Layer: the member starts in a singleton view
// and begins gossiping. The initial view installs via a zero-delay
// timer so the application's Join call has returned by then.
func (m *Mbrship) Init(c *core.Context) error {
	if err := m.Base.Init(c); err != nil {
		return err
	}
	m.answered = make(map[core.EndpointID]uint64)
	m.flushTimer.Bind(c, m, (*Mbrship).flushExpired)
	m.mergeTimer.Bind(c, m, (*Mbrship).mergeExpired)
	m.gossipTimer.Bind(c, m, (*Mbrship).gossipTick)
	m.installFirst.Bind(c, m, (*Mbrship).installSingleton)
	m.installFirst.Reset(0)
	if m.gossipPeriod > 0 {
		m.gossipTimer.Reset(m.gossipPeriod)
	}
	return nil
}

// installSingleton installs the member's first view, itself alone. Init
// arms it, once, so it runs after the application's Join has returned.
func (m *Mbrship) installSingleton() {
	m.install(core.NewView(core.ViewID{Seq: 1, Coord: m.Ctx.Self()}, m.Ctx.GroupAddr(),
		[]core.EndpointID{m.Ctx.Self()}))
}

// ---------------------------------------------------------------------------
// Downcalls

// Down implements core.Layer.
func (m *Mbrship) Down(ev *core.Event) {
	switch ev.Type {
	case core.DCast:
		m.castDown(ev)
	case core.DSend:
		ev.Msg.PushUint8(kSendData)
		m.Ctx.Down(ev)
	case core.DFlush:
		for _, f := range ev.Failed {
			m.suspect(f)
		}
		if len(ev.Failed) == 0 && m.state == stNormal && m.view != nil && m.coordinator() == m.Ctx.Self() {
			// Nobody failed: the layer above asks for a view edge (SWITCH
			// swaps its segment at one). Only an idle coordinator starts
			// the round; a busy one starts nothing, and the layer above
			// asks again.
			m.startFlushRound()
			return
		}
		m.maybeStartFlush()
	case core.DFlushOK:
		m.appConsents()
	case core.DMerge:
		m.startMerge(ev.Contact)
	case core.DMergeGranted:
		m.grantPending(ev.Contact, true, "")
	case core.DMergeDenied:
		m.grantPending(ev.Contact, false, ev.Reason)
	case core.DLeave:
		m.announceLeave()
		m.Ctx.Down(ev)
	case core.DDump:
		ev.Dump = append(ev.Dump, "MBRSHIP: "+m.dumpLine())
		m.Ctx.Down(ev)
	default:
		m.Ctx.Down(ev)
	}
}

// Primary reports whether the current view may make progress: always
// true unless the primary-partition restriction is on and this view
// lacks a strict majority of the configured total membership.
func (m *Mbrship) Primary() bool {
	if m.quorumOf <= 0 {
		return true
	}
	return m.view != nil && m.view.Size()*2 > m.quorumOf
}

// castDown sends (or defers) an application multicast.
func (m *Mbrship) castDown(ev *core.Event) {
	// A merge request alone seals nothing: until the flush it leads to
	// begins, the current view is the one every member still holds, and
	// a cast goes out in it. Parking it instead would carry whatever a
	// layer above stamped in this view (TOTAL's order) into the next,
	// where the stamp collides with that view's own; the FLUSH upcall
	// that pauses such a layer comes with the flush, not the request.
	requesting := m.state == stMergingOut && m.flushCoord.IsZero()
	if m.view == nil || (m.state != stNormal && !requesting) || !m.Primary() {
		// New transmissions are blocked while a view change is in
		// progress — or, under the primary-partition restriction,
		// while this member sits in a minority partition. They go out
		// in the next (primary) view.
		m.pendingCasts.Put(m.Ctx, ev)
		return
	}
	m.castSeq++
	seq := m.castSeq
	// Log the message before pushing our header: if we survive a
	// flush, our own unstable messages must be forwardable.
	m.logClone(m.Ctx.Self(), seq, ev.Msg)
	// The sender is a destination of its own multicast: deliver
	// locally at once, from a copy taken before our header goes on, in
	// a receive record lent for the upcall (core.Context.UpParked).
	// This is the sender's only copy: the cast is addressed to the
	// other members alone, and a singleton's reaches no one.
	var local message.Message
	local.AttachClone(ev.Msg)
	m.delivered.Add(m.Ctx.Self(), seq)
	ev.Msg.PushUint(seq)
	if m.Ctx.Tracing() {
		m.Ctx.Tracef("mbrship %s: cast seq=%d epoch=%d", m.Ctx.Self(), seq, m.epoch)
	}
	wire.PushViewID(ev.Msg, m.view.ID, m.Ctx.Directory())
	ev.Msg.PushUint8(kData)
	ev.Dests = m.others
	m.Ctx.Down(ev)
	m.Ctx.UpParked(core.UCast, m.Ctx.Self(), &local)
}

// ---------------------------------------------------------------------------
// Upcalls

// Up implements core.Layer.
func (m *Mbrship) Up(ev *core.Event) {
	switch ev.Type {
	case core.UCast, core.USend:
		kind := ev.Msg.PopUint8()
		m.dispatch(kind, ev)
	case core.UProblem:
		if !m.externalFD {
			m.suspect(ev.Source)
			m.maybeStartFlush()
		}
		m.Ctx.Up(ev)
	case core.ULostMessage:
		// A lost message at this level means NAK's retransmission
		// buffer was trimmed. It is usually pre-join history a new
		// member asked about (harmless: old-epoch data is dropped
		// here anyway), so it is reported upward but not treated as a
		// failure; genuinely silent members are caught by PROBLEM.
		m.Ctx.Up(ev)
	default:
		m.Ctx.Up(ev)
	}
}

func (m *Mbrship) dispatch(kind uint8, ev *core.Event) {
	switch kind {
	case kData:
		m.receiveData(ev)
	case kSendData:
		m.Ctx.Up(ev)
	case kSuspect:
		id := wire.PopViewID(ev.Msg, m.members(), m.Ctx.Directory())
		list := wire.PopIDList(ev.Msg, m.members(), m.Ctx.Directory())
		if m.view == nil || id != m.view.ID {
			// A suspicion from a previous view — possibly seconds old,
			// replayed by NAK retransmission after a partition healed —
			// or from a concurrent same-seq view. Acting on it would
			// tear a freshly merged view apart.
			m.stats.StaleDropped++
			return
		}
		for _, f := range list {
			m.suspect(f)
		}
		m.maybeStartFlush()
	case kFlush:
		m.receiveFlush(ev)
	case kFwd:
		m.receiveFwd(ev)
	case kFlushOK:
		m.receiveFlushOK(ev)
	case kView:
		m.receiveView(ev)
	case kGossip:
		m.receiveGossip(ev)
	case kMergeReq:
		m.receiveMergeReq(ev)
	case kMergeGrant:
		m.receiveMergeGrant(ev)
	case kMergeDeny:
		m.receiveMergeDeny(ev)
	case kMergeReady:
		m.receiveMergeReady(ev)
	case kPoolMark:
		m.receivePoolMark(ev)
	case kPoolAck:
		m.receivePoolAck(ev)
	case kViewNack:
		m.receiveViewNack(ev)
	case kLeave:
		if id := wire.PopViewID(ev.Msg, m.members(), m.Ctx.Directory()); m.view == nil || id != m.view.ID {
			m.stats.StaleDropped++
			return
		}
		m.suspect(ev.Source)
		m.Ctx.Up(&core.Event{Type: core.ULeave, Source: ev.Source})
		m.maybeStartFlush()
	}
}

// receiveData delivers an in-view multicast, enforcing epoch and
// membership checks ("the members ignore messages that they may
// receive from supposedly failed members", §5).
func (m *Mbrship) receiveData(ev *core.Event) {
	id := wire.PopViewID(ev.Msg, m.members(), m.Ctx.Directory())
	seq := ev.Msg.PopUint()
	src := ev.Source
	if m.view != nil && id.Seq > m.epoch {
		// Sent in a view we have not installed yet: the view
		// announcement and the data travel on different FIFO channels,
		// so a prompt sender can outrun the coordinator's kView. Park
		// the message until our view catches up.
		if m.future.Len() < maxFutureBuffer {
			ev.Msg.PushUint(seq) // restore the header for replay
			wire.PushViewID(ev.Msg, id, m.Ctx.Directory())
			m.future.Put(m.Ctx, ev)
		} else {
			m.stats.StaleDropped++
		}
		return
	}
	if m.view == nil || id != m.view.ID {
		m.stats.StaleDropped++
		return
	}
	if r := m.view.Rank(src); r < 0 || m.suspects[r] {
		m.stats.StaleDropped++
		return
	}
	if m.delivered.Has(src, seq) {
		return
	}
	if seq != m.delivered.Count(src)+1 {
		// Beyond a gap: the layer below delivers each sender's casts in
		// order, so the ones missing were reported lost (a place holder,
		// typically from a sender that has moved to a view without us
		// and trimmed what we never got). FIFO within a view forbids
		// delivering past them, so src's casts in this view end here,
		// and src is suspected — unless suspicions come only from
		// outside (WithExternalSuspicions) — so that the flush that
		// closes the view forwards whatever the survivors hold.
		m.stats.StaleDropped++
		if !m.externalFD {
			m.suspect(src)
			m.maybeStartFlush()
		}
		return
	}
	m.logClone(src, seq, ev.Msg)
	m.delivered.Add(src, seq)
	if m.Ctx.Tracing() {
		m.Ctx.Tracef("mbrship %s: deliver %s/%d in %v", m.Ctx.Self(), src, seq, m.view.ID)
	}
	m.Ctx.Up(ev)
}

// logClone retains a clone of an unstable message for future flushes.
// In BMS mode (WithoutFlush) nothing is retained.
func (m *Mbrship) logClone(origin core.EndpointID, seq uint64, msg *message.Message) {
	if !m.noFlush {
		m.log.Add(origin, seq, msg)
	}
}

// ---------------------------------------------------------------------------
// Suspicion and flush

// suspect marks an endpoint faulty. Suspicions about non-members are
// ignored.
func (m *Mbrship) suspect(e core.EndpointID) {
	if m.view == nil {
		return
	}
	if r := m.view.Rank(e); r >= 0 && r != m.rank && !m.suspects[r] {
		m.Ctx.Tracef("mbrship %s: suspecting %s", m.Ctx.Self(), e)
		m.suspects[r] = true
	}
}

// survivors returns the current view minus suspects.
func (m *Mbrship) survivors() []core.EndpointID {
	if m.view == nil {
		return nil
	}
	out := make([]core.EndpointID, 0, len(m.view.Members))
	for r, e := range m.view.Members {
		if !m.suspects[r] {
			out = append(out, e)
		}
	}
	return out
}

// coordinator returns the oldest surviving member — the paper's
// message-free election (§5 footnote 1). A view lists its members
// oldest first (receiveView refuses one that does not), so that is the
// first survivor.
func (m *Mbrship) coordinator() core.EndpointID {
	for r, e := range m.members() {
		if !m.suspects[r] {
			return e
		}
	}
	return m.Ctx.Self()
}

// maybeStartFlush starts (or restarts) a flush round if this member is
// the coordinator and there is something to flush.
func (m *Mbrship) maybeStartFlush() {
	if m.view == nil || !slices.Contains(m.suspects, true) {
		return
	}
	coord := m.coordinator()
	if coord != m.Ctx.Self() {
		// Not coordinator: report what we suspect and let the flush
		// timeout catch a dead coordinator.
		m.sendSuspects(coord)
		m.armFlushTimer()
		return
	}
	// A round for this exact failure set is already under way, as a
	// flush or as our side of a merge; starting another would only
	// churn, and would keep re-arming the flush timeout that ends a
	// merge whose requester has gone.
	if m.flushCoord == m.Ctx.Self() && m.state != stNormal &&
		m.roundFailed == fmt.Sprint(m.failedList()) {
		return
	}
	m.startFlushRound()
}

// sendSuspects reports our suspicion set to the coordinator.
func (m *Mbrship) sendSuspects(coord core.EndpointID) {
	ev := m.Ctx.NewSendTo(coord, 0)
	wire.PushIDList(ev.Msg, m.failedList(), m.Ctx.Directory())
	wire.PushViewID(ev.Msg, m.view.ID, m.Ctx.Directory())
	ev.Msg.PushUint8(kSuspect)
	m.Ctx.Down(ev)
}

// startFlushRound begins a flush with this member as coordinator.
func (m *Mbrship) startFlushRound() {
	m.flushRound++
	m.stats.FlushRounds++
	m.flushCoord = m.Ctx.Self()
	if m.state == stNormal {
		m.state = stFlushing
	}
	m.okFrom = make([]bool, len(m.view.Members))
	if m.appFlushOK {
		// The coordinator owes itself a consent too: the layer above
		// must flush before the round can complete.
		m.consentCoord = m.Ctx.Self()
		m.consentRound = m.flushRound
		m.consentOwed = true
	} else {
		m.okFrom[m.rank] = true
	}

	failed := m.failedList()
	m.roundFailed = fmt.Sprint(failed)
	m.Ctx.Tracef("mbrship %s: flush round %d, failed=%v", m.Ctx.Self(), m.flushRound, failed)
	m.Ctx.Up(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: failed}})

	if dests := m.othersOf(m.survivors()); len(dests) > 0 {
		ev := m.Ctx.NewDowncall(core.DSend, dests, 0)
		wire.PushIDList(ev.Msg, failed, m.Ctx.Directory())
		ev.Msg.PushUint(m.flushRound)
		wire.PushViewID(ev.Msg, m.view.ID, m.Ctx.Directory())
		ev.Msg.PushUint8(kFlush)
		m.Ctx.Down(ev)
	}
	m.armFlushTimer()
	m.checkFlushComplete()
}

// failedList returns the suspicion set in rank order, which is age
// order.
func (m *Mbrship) failedList() []core.EndpointID {
	ids := make([]core.EndpointID, 0, len(m.suspects))
	for r, e := range m.members() {
		if m.suspects[r] {
			ids = append(ids, e)
		}
	}
	return ids
}

// receiveFlush is a member's side of the flush: return all unstable
// messages, then consent.
func (m *Mbrship) receiveFlush(ev *core.Event) {
	id := wire.PopViewID(ev.Msg, m.members(), m.Ctx.Directory())
	round := ev.Msg.PopUint()
	failed := wire.PopIDList(ev.Msg, m.members(), m.Ctx.Directory())
	coord := ev.Source
	if m.view == nil || id != m.view.ID {
		m.stats.StaleDropped++
		return
	}
	if !m.view.Contains(coord) {
		return
	}
	if m.answered[coord] >= round {
		return
	}
	m.answered[coord] = round
	for _, f := range failed {
		m.suspect(f)
	}
	if m.state == stNormal {
		m.state = stFlushing
	}
	m.flushCoord = coord
	// Record the owed consent *before* the FLUSH upcall: a layer
	// above may complete its own exchange and send flush_ok down
	// synchronously from within the upcall.
	if m.appFlushOK {
		m.consentCoord = coord
		m.consentRound = round
		m.consentOwed = true
	}
	m.forwardLog([]core.EndpointID{coord}, round)
	m.Ctx.Up(&core.Event{Type: core.UFlush, Detail: &core.Detail{Failed: failed}})
	if !m.appFlushOK {
		m.sendConsent(coord, round)
	}
	m.armFlushTimer()
}

// sendConsent sends the FLUSH_OK reply.
func (m *Mbrship) sendConsent(coord core.EndpointID, round uint64) {
	m.sendRound(coord, kFlushOK, round)
}

// sendRound sends dst a control message that carries only a flush
// round number.
func (m *Mbrship) sendRound(dst core.EndpointID, kind uint8, round uint64) {
	ev := m.Ctx.NewSendTo(dst, 0)
	ev.Msg.PushUint(round)
	ev.Msg.PushUint8(kind)
	m.Ctx.Down(ev)
}

// appConsents resolves a deferred flush consent (flush_ok downcall).
func (m *Mbrship) appConsents() {
	if !m.consentOwed {
		return
	}
	m.consentOwed = false
	if m.consentCoord == m.Ctx.Self() {
		if m.okFrom != nil {
			m.okFrom[m.rank] = true
			m.checkFlushComplete()
		}
		return
	}
	m.sendConsent(m.consentCoord, m.consentRound)
}

// forwardLog sends dests every logged unstable message in one batch
// (vslog.PushBatch), each as its MBRSHIP-level wire image, stamped with
// the flush round: a member's answer to its coordinator's FLUSH (the
// round tells current answers from a previous round's stragglers), and
// the coordinator's rebroadcast once all have consented, which holds
// the members' forwards it delivered less what a gossip has since
// proved stable. Receivers deduplicate. With no one to send to, or
// nothing logged, it sends nothing.
func (m *Mbrship) forwardLog(dests []core.EndpointID, round uint64) {
	if len(dests) == 0 || m.log.Len() == 0 {
		return
	}
	ev := m.Ctx.NewDowncall(core.DSend, dests, 0)
	m.stats.FwdsSent += vslog.PushBatch(ev.Msg, &m.log, m.Ctx.Directory())
	wire.PushViewID(ev.Msg, m.view.ID, m.Ctx.Directory())
	ev.Msg.PushUint(round)
	ev.Msg.PushUint8(kFwd)
	m.Ctx.Down(ev)
}

// receiveFwd handles a batch of unstable-message forwards. Only the
// active coordinator of the batch's round delivers it on the spot: it
// is about to decide the pool everyone moving to the next view must
// agree on, and anything it delivers goes into its own log, which it
// rebroadcasts and a later capturing coordinator re-collects — no
// delivery can leak past a flush. Every other batch — a rebroadcast
// running ahead of its view announcement, or a collection answer to a
// coordinatorship we have since ceded — is *stashed* per sender: the
// stash holds forwards from a view this member may not follow, and
// delivering one now would adopt one flush's pool while we may yet
// install a different coordinator's successor, which is exactly how
// view agreement breaks. The stash is delivered when we install a view
// that sender sealed (receiveView) and discarded at any other
// installation.
func (m *Mbrship) receiveFwd(ev *core.Event) {
	round := ev.Msg.PopUint()
	id := wire.PopViewID(ev.Msg, m.members(), m.Ctx.Directory())
	if m.view == nil || id != m.view.ID {
		m.stats.StaleDropped++
		return
	}
	batch, ok := vslog.PopBatch(ev.Msg, m.members(), m.Ctx.Directory()) // views the body, which is read-only: safe to retain
	if !ok {
		m.stats.Malformed++
		return
	}
	if m.flushCoord == m.Ctx.Self() && m.okFrom != nil && round == m.flushRound {
		m.deliverFwds(batch, ev.Source)
		return
	}
	if !m.view.Contains(ev.Source) || m.stashSize+batch.Len() > maxFwdStash {
		m.stats.StaleDropped++
		return
	}
	if m.fwdStash == nil {
		m.fwdStash = make(map[core.EndpointID][]vslog.Batch)
	}
	m.fwdStash[ev.Source] = append(m.fwdStash[ev.Source], batch)
	m.stashSize += batch.Len()
}

// deliverFwds delivers a batch of forwarded unstable messages from a
// member, each once.
func (m *Mbrship) deliverFwds(batch vslog.Batch, from core.EndpointID) {
	batch.Each(func(origin core.EndpointID, seq uint64, image []byte) {
		m.deliverFwd(origin, seq, image, from)
	})
}

// deliverFwd delivers one forwarded unstable message, deduplicated.
func (m *Mbrship) deliverFwd(origin core.EndpointID, seq uint64, image []byte, from core.EndpointID) {
	if m.delivered.Has(origin, seq) {
		return
	}
	inner, _ := message.Unmarshal(image) // vslog.PopBatch checked every image
	m.logClone(origin, seq, inner)
	m.delivered.Add(origin, seq)
	m.stats.FwdsDelivered++
	if m.Ctx.Tracing() {
		m.Ctx.Tracef("mbrship %s: fwd-deliver %s/%d from %s in %v",
			m.Ctx.Self(), origin, seq, from, m.view.ID)
	}
	m.Ctx.Up(&core.Event{Type: core.UCast, Msg: inner, Source: origin})
}

// receiveFlushOK collects consents at the coordinator.
func (m *Mbrship) receiveFlushOK(ev *core.Event) {
	round := ev.Msg.PopUint()
	if m.flushCoord != m.Ctx.Self() || round != m.flushRound || m.okFrom == nil {
		return
	}
	if r := m.view.Rank(ev.Source); r >= 0 {
		m.okFrom[r] = true
	}
	m.checkFlushComplete()
}

// checkFlushComplete finishes the flush once every survivor consented:
// rebroadcast the logged unstable messages, then install the new view.
func (m *Mbrship) checkFlushComplete() {
	if m.flushCoord != m.Ctx.Self() || m.okFrom == nil {
		return
	}
	for r, ok := range m.okFrom {
		if !ok && !m.suspects[r] {
			return
		}
	}
	surv := m.survivors()
	// A merge flush waits for the requester side before installing.
	if m.state == stMergingIn && !m.mergeReady {
		m.ownFlushDone = true
		return
	}
	if m.state == stMergingOut {
		if !m.ownFlushDone {
			m.ownFlushDone = true
			// Our old view's unstable messages must reach our own
			// survivors before they move to the union view. The union
			// coordinator's VIEW is a different sender, so it can
			// overtake our forwards; hold merge_ready until every
			// survivor confirms it has the pool (the mark travels the
			// same FIFO channel as the forwards).
			m.forwardLog(m.othersOf(surv), m.flushRound)
			m.beginPoolSync(surv)
		} else if m.poolWait != nil {
			// A flush restart shrank the survivor set; stop waiting
			// for acks from the departed.
			for e := range m.poolWait {
				if !containsID(surv, e) {
					delete(m.poolWait, e)
				}
			}
			m.maybeFinishPoolSync()
		}
		return
	}
	m.forwardLog(m.othersOf(surv), m.flushRound)
	members := surv
	if m.state == stMergingIn {
		members = unionIDs(surv, m.mergePeer)
	}
	m.installNewView(members)
}

// installNewView multicasts and installs the successor view. The new
// view's sequence number exceeds both our epoch and (for merges) the
// peer view's epoch, so every member accepts it as younger.
func (m *Mbrship) installNewView(members []core.EndpointID) {
	seq := m.epoch
	if m.mergePeerView.Seq > seq {
		seq = m.mergePeerView.Seq
	}
	v := core.NewView(core.ViewID{Seq: seq + 1, Coord: m.Ctx.Self()},
		m.Ctx.GroupAddr(), members)
	// The announcement names the predecessor view(s) this successor
	// was flushed from — our own sealed view and, for a merge union,
	// the requester side's sealed view plus the coordinator that
	// sealed it. A receiver installs the view only from a predecessor
	// it is actually in, and delivers the sealing coordinator's
	// stashed forwards first (receiveView) — concurrent coordinators
	// of one view produce same-seq sibling successors, and a member
	// that consented to both must not hop from one sibling into the
	// other without a flush in between.
	if dests := m.othersOf(members); len(dests) > 0 {
		ev := m.Ctx.NewDowncall(core.DSend, dests, 0)
		wire.PushEndpointID(ev.Msg, m.mergePeerSealer, m.Ctx.Directory())
		wire.PushEndpointID(ev.Msg, m.mergePeerView.Coord, m.Ctx.Directory())
		ev.Msg.PushUint(m.mergePeerView.Seq)
		wire.PushEndpointID(ev.Msg, m.view.ID.Coord, m.Ctx.Directory())
		ev.Msg.PushUint(m.view.ID.Seq)
		wire.PushView(ev.Msg, v, m.Ctx.Directory())
		ev.Msg.PushUint8(kView)
		m.Ctx.Down(ev)
	}
	m.install(v)
}

// receiveView installs a view announced by a flush or merge
// coordinator — but only if this member is in one of the predecessor
// views the announcement was flushed from. Being in a predecessor
// means the coordinator sealed *our* view with our consent (the kView
// follows its kFlush on the same FIFO channel), so our delivery state
// matches its rebroadcast pool. Any other transition would carry
// deliveries the new view's members never agreed on.
func (m *Mbrship) receiveView(ev *core.Event) {
	v := wire.PopView(ev.Msg, m.members(), m.Ctx.Directory())
	pred1 := core.ViewID{Seq: ev.Msg.PopUint(), Coord: wire.PopEndpointID(ev.Msg, m.members(), m.Ctx.Directory())}
	pred2 := core.ViewID{Seq: ev.Msg.PopUint(), Coord: wire.PopEndpointID(ev.Msg, m.members(), m.Ctx.Directory())}
	sealer2 := wire.PopEndpointID(ev.Msg, m.members(), m.Ctx.Directory())
	for i := 1; i < len(v.Members); i++ {
		if !v.Members[i-1].Older(v.Members[i]) {
			// Every view lists its members oldest first, each once
			// (core.NewView): per-member state is indexed by that rank
			// and the coordinator is the first survivor. A list in any
			// other order is garbled.
			m.stats.StaleDropped++
			return
		}
	}
	if m.view != nil && m.view.ID == v.ID {
		return // duplicate announcement of the view we are in
	}
	if !v.Contains(m.Ctx.Self()) {
		// Excluded from the successor view; we keep our current view
		// and will eventually form a singleton and merge back.
		return
	}
	if m.view != nil && m.view.ID != pred1 && m.view.ID != pred2 {
		// Flushed from a view we are not in: a concurrent coordinator
		// sealed a sibling of our view (or the announcement is a stale
		// replay). Refuse, and say so — the announcer believes we are
		// a member of v and would wait on us forever; the nack lets it
		// flush us out instead (receiveViewNack). The views reunite
		// later by merge.
		m.stats.ViewsRefused++
		m.Ctx.Tracef("mbrship %s: refuse %v from %s (preds %v,%v; here %v)",
			m.Ctx.Self(), v.ID, ev.Source, pred1, pred2, m.view.ID)
		nack := m.Ctx.NewSendTo(ev.Source, 0)
		wire.PushEndpointID(nack.Msg, v.ID.Coord, m.Ctx.Directory())
		nack.Msg.PushUint(v.ID.Seq)
		nack.Msg.PushUint8(kViewNack)
		m.Ctx.Down(nack)
		return
	}
	if m.view != nil && v.ID.Seq <= m.epoch {
		// A successor is numbered above every view it was flushed from,
		// ours included, so this announcement is garbled. Installing it
		// would let our epoch fall and a view we coordinate later reuse
		// an ID, which receiveGossip relies on never happening.
		m.stats.StaleDropped++
		return
	}
	// We are moving to v: first deliver the pool of the flush that
	// sealed our view into it — the rebroadcast forwards stashed under
	// the sealing coordinator (the announcer itself on its own side of
	// a merge, the requester coordinator on the other). They traveled
	// the same FIFO channel as the flush that preceded this kView, so
	// the stash is complete; delivering them *here* is what makes
	// every member taking the v-edge agree on its deliveries.
	if m.view != nil {
		sealer := v.ID.Coord
		if m.view.ID == pred2 && m.view.ID != pred1 {
			sealer = sealer2
		}
		for _, batch := range m.fwdStash[sealer] {
			m.deliverFwds(batch, sealer)
		}
	}
	m.install(v)
}

// receiveViewNack handles a member's refusal of a view we announced.
// The refuser moved somewhere we cannot follow — typically into a
// concurrent same-seq sibling sealed by another coordinator — so it
// will never act as a member of our view. Treat it like a failure:
// flush it out so the rest of the view makes progress, and let the
// usual merge path reunite the two sides.
func (m *Mbrship) receiveViewNack(ev *core.Event) {
	refused := core.ViewID{Seq: ev.Msg.PopUint(), Coord: wire.PopEndpointID(ev.Msg, m.members(), m.Ctx.Directory())}
	if m.view == nil || m.view.ID != refused || !m.view.Contains(ev.Source) {
		return
	}
	m.Ctx.Tracef("mbrship %s: %s refused %v; expelling it",
		m.Ctx.Self(), ev.Source, refused)
	m.suspect(ev.Source)
	m.maybeStartFlush()
}

// install makes v the current view: upcall VIEW, downcall view, and
// reset all per-epoch state.
func (m *Mbrship) install(v *core.View) {
	m.view = v
	m.rank = v.Rank(m.Ctx.Self())
	m.others = m.othersOf(v.Members)
	m.epoch = v.ID.Seq
	m.state = stNormal
	m.castSeq = 0
	m.delivered.Reset()
	m.log.Reset()
	m.stability = core.NewStabilityMatrix(v.Members)
	m.suspects = make([]bool, len(v.Members))
	m.okFrom = nil
	m.flushCoord = core.EndpointID{}
	m.mergeTarget = core.EndpointID{}
	m.mergePeer = nil
	m.mergePeerView = core.ViewID{}
	m.mergePeerSealer = core.EndpointID{}
	m.fwdStash = nil
	m.stashSize = 0
	m.mergeReady = false
	m.ownFlushDone = false
	m.poolWait = nil
	m.pendingReqs = nil
	m.consentOwed = false
	m.flushTimer.Stop()
	m.mergeTimer.Stop()
	m.stats.ViewsInstalled++
	m.Ctx.Tracef("mbrship %s: install %v", m.Ctx.Self(), v)

	// Tell the layers below about the new destination set, tell the
	// application a flush (if any) completed, and install the view.
	m.Ctx.Down(&core.Event{Type: core.DView, Detail: &core.Detail{View: v}})
	if m.stats.ViewsInstalled > 1 {
		m.Ctx.Up(&core.Event{Type: core.UFlushOK})
	}
	m.Ctx.Up(&core.Event{Type: core.UView, Detail: &core.Detail{View: v, Primary: m.Primary()}})

	// Replay data that arrived for this view before we installed it
	// (senders can outrun the coordinator's view announcement).
	m.future.Drain(m.receiveData)

	// Release casts deferred during the view change — unless this is a
	// minority view under the primary-partition restriction, in which
	// case they stay deferred until the member rejoins a primary view.
	if !m.Primary() {
		return
	}
	m.releasePendingCasts()
}

// releasePendingCasts re-sends the casts parked while transmissions
// were blocked. It must run on EVERY transition back to stNormal —
// view installs, but also abandoned merges — or casts issued after the
// transition overtake the parked ones and per-sender FIFO breaks.
func (m *Mbrship) releasePendingCasts() {
	m.pendingCasts.Drain(m.castDown)
}

// abandonMerge gives up an outgoing merge (target unresponsive,
// denied, or absorbed into a symmetric attempt). If the merge flush
// never started, the view is untouched: back to stNormal, and the
// casts parked while merging resume in the current epoch. But once the
// grant arrived and the flush round is running, the old epoch is being
// sealed — members have forwarded their unstable logs — so new casts
// must NOT re-open it. The flush is demoted to a plain one instead: it
// completes, installs the successor view, and install() releases the
// pending casts into the new epoch.
func (m *Mbrship) abandonMerge() {
	m.mergeTarget = core.EndpointID{}
	m.mergeReady = false
	m.ownFlushDone = false
	m.poolWait = nil
	m.mergeTries = 0
	m.mergeTimer.Stop()
	if m.flushCoord == m.Ctx.Self() && m.okFrom != nil {
		m.state = stFlushing
		m.checkFlushComplete() // may already be complete: install now
		return
	}
	m.state = stNormal
	m.releasePendingCasts()
}

// armFlushTimer (re)arms the watchdog that suspects a dead flush
// coordinator, and, at the coordinator, the survivors that have not
// consented within a whole timeout. Such a survivor may be alive but in
// another view — one whose announcement reached it and not us, or ours
// that never reached it — where it drops this view's FLUSH as stale;
// waiting for its consent would hold the round up for good.
func (m *Mbrship) armFlushTimer() {
	if m.flushTimeout <= 0 {
		return
	}
	m.flushTimer.Reset(m.flushTimeout)
}

// flushExpired is the flush watchdog firing.
func (m *Mbrship) flushExpired() {
	if m.state == stNormal {
		return
	}
	if m.state == stMergingIn && m.ownFlushDone && !m.mergeReady {
		// The requester vanished between grant and merge_ready.
		// Our own flush is complete (everyone consented), so
		// finish it *as a flush*: installing the survivors view
		// releases the members who consented and are waiting —
		// leaving them hanging would make them suspect us.
		m.state = stFlushing
		m.mergePeer = nil
		m.mergePeerView = core.ViewID{}
		m.mergePeerSealer = core.EndpointID{}
		m.ownFlushDone = false
		m.forwardLog(m.othersOf(m.survivors()), m.flushRound)
		m.installNewView(m.survivors())
		return
	}
	if m.flushCoord != m.Ctx.Self() && !m.flushCoord.IsZero() {
		m.suspect(m.flushCoord)
	} else if m.flushCoord == m.Ctx.Self() && m.okFrom != nil {
		for r, ok := range m.okFrom {
			if !ok && !m.suspects[r] {
				m.suspect(m.view.Members[r])
			}
		}
	}
	// Whoever is now the oldest survivor restarts the flush.
	m.maybeStartFlush()
	m.armFlushTimer()
}

// ---------------------------------------------------------------------------
// Stability gossip

// gossipTick multicasts this member's delivery vector; peers merge it
// and trim their unstable logs (all members must log all unstable
// messages — and only unstable ones, §5).
func (m *Mbrship) gossipTick() {
	m.gossipTimer.Reset(m.gossipPeriod)
	if m.view != nil && m.view.Size() >= 2 && m.state == stNormal {
		m.gossip()
	}
}

// gossip is one round: the vector goes to the other members in one
// record, and into our own stability computation. It carries the counts
// alone, in view.Members order, under the view's ID (vslog.PushVector).
func (m *Mbrship) gossip() {
	counts := m.gossipCounts[:0]
	for _, o := range m.view.Members {
		counts = append(counts, m.delivered.Count(o))
	}
	m.gossipCounts = counts
	ev := m.Ctx.NewDowncall(core.DSend, m.others, wire.CountsLen(counts))
	vslog.PushVector(ev.Msg, m.view.ID, counts, m.Ctx.Directory())
	ev.Msg.PushUint8(kGossip)
	m.Ctx.Down(ev)
	// Our own vector participates in the stability computation, in our
	// column.
	for i, n := range counts {
		m.stability.Raise(i, m.rank, n)
	}
	m.log.Trim(m.stability)
}

// receiveGossip raises the sender's column to its delivery vector, read
// where it lies (vslog.RaiseVector), and trims the log by what that
// makes stable. A vector from another view raises and trims nothing. The
// counts are in rank order in our own view, which is the sender's: a
// ViewID names one view, members and all, because a coordinator never
// issues the same ViewID twice — installNewView numbers a view
// max(epoch, peer epoch)+1, and an endpoint's epoch only grows
// (receiveView refuses a successor that does not advance it).
func (m *Mbrship) receiveGossip(ev *core.Event) {
	if vslog.RaiseVector(ev.Msg, m.view, m.stability, ev.Source, m.Ctx.Directory()) {
		m.log.Trim(m.stability)
	}
}

// ---------------------------------------------------------------------------
// Merging

// startMerge contacts the coordinator of another view.
func (m *Mbrship) startMerge(contact core.EndpointID) {
	if m.view == nil || contact == m.Ctx.Self() || m.view.Contains(contact) {
		return
	}
	if m.coordinator() != m.Ctx.Self() || m.state != stNormal {
		// Only an idle coordinator merges; the MERGE layer retries.
		m.Ctx.Tracef("mbrship %s: merge->%s dropped (state=%d coord=%v)",
			m.Ctx.Self(), contact, m.state, m.coordinator())
		m.Ctx.Up(&core.Event{Type: core.UMergeDenied, Detail: &core.Detail{Contact: contact,
			Reason: "local member busy or not coordinator"}})
		return
	}
	m.Ctx.Tracef("mbrship %s: merge req -> %s from %v", m.Ctx.Self(), contact, m.view.ID)
	m.state = stMergingOut
	m.mergeTarget = contact
	m.mergeTries = 0
	m.sendMergeReq()
	m.armMergeTimer()
}

func (m *Mbrship) sendMergeReq() {
	ev := m.Ctx.NewSendTo(m.mergeTarget, 0)
	wire.PushView(ev.Msg, m.view, m.Ctx.Directory())
	ev.Msg.PushUint8(kMergeReq)
	m.Ctx.Down(ev)
}

// armMergeTimer retries or abandons an unanswered merge request.
func (m *Mbrship) armMergeTimer() {
	m.mergeTimer.Reset(mergeRetry)
}

// mergeExpired is the merge retry timer firing.
func (m *Mbrship) mergeExpired() {
	if m.state != stMergingOut {
		return
	}
	m.mergeTries++
	if m.mergeTries > maxMergeTries {
		// The target stopped responding (crashed, or abandoned
		// the merge). Give up; the MERGE layer or application
		// will try again from scratch.
		target := m.mergeTarget
		m.abandonMerge()
		m.Ctx.Up(&core.Event{Type: core.UMergeDenied, Detail: &core.Detail{Contact: target,
			Reason: "merge target unresponsive"}})
		return
	}
	if m.ownFlushDone {
		if len(m.poolWait) > 0 {
			// Still waiting for survivors to confirm the pool
			// rebroadcast; re-mark the laggards rather than
			// bypassing the gate with an early merge_ready.
			m.sendPoolMark()
		} else {
			// Grant received and our flush finished: the target
			// may have missed merge_ready; resend it.
			m.sendMergeReady()
		}
	} else if m.mergeReady {
		// Grant received; flush still in progress — keep waiting.
	} else {
		m.sendMergeReq()
	}
	m.armMergeTimer()
}

// receiveMergeReq handles a merge request from another view's
// coordinator.
func (m *Mbrship) receiveMergeReq(ev *core.Event) {
	reqView := wire.PopView(ev.Msg, m.members(), m.Ctx.Directory())
	requester := ev.Source
	deny := func(reason string) {
		m.Ctx.Tracef("mbrship %s: deny merge from %s: %s", m.Ctx.Self(), requester, reason)
		m.stats.MergesDenied++
		m.sendDeny(requester, reason)
	}
	if m.view == nil || m.view.Contains(requester) {
		return
	}
	if m.coordinator() != m.Ctx.Self() {
		deny("not coordinator")
		return
	}
	switch m.state {
	case stNormal:
		// Free to merge.
	case stMergingOut:
		// Symmetric merge attempt: we asked them while they asked us.
		// The older endpoint coordinates, so if the requester is
		// exactly our target and younger than us, abandon our own
		// attempt and absorb them instead. Requests from anyone else
		// while we are merging outward are denied — absorbing a third
		// party here would strand the coordinator we already asked.
		if requester == m.mergeTarget && m.Ctx.Self().Older(requester) {
			m.abandonMerge()
			if m.state != stNormal {
				// Our merge flush had already started; it must run to
				// a view install before we can absorb anyone.
				deny("busy finishing flush")
				return
			}
		} else {
			deny("busy merging elsewhere")
			return
		}
	default:
		deny("busy")
		return
	}
	if m.manualGrant {
		// The requester resends until answered: a resend refreshes its
		// entry and reaches the application only once.
		for i, rv := range m.pendingReqs {
			if rv.Contains(requester) {
				m.pendingReqs[i] = reqView
				return
			}
		}
		m.pendingReqs = append(m.pendingReqs, reqView)
		m.Ctx.Up(&core.Event{Type: core.UMergeRequest, Detail: &core.Detail{Contact: requester, View: reqView}})
		return
	}
	m.acceptMerge(reqView)
}

// grantPending resolves a manual-grant decision from the application.
func (m *Mbrship) grantPending(contact core.EndpointID, grant bool, reason string) {
	for i, rv := range m.pendingReqs {
		if rv.ID.Coord == contact || rv.Contains(contact) {
			m.pendingReqs = append(m.pendingReqs[:i], m.pendingReqs[i+1:]...)
			if grant {
				m.acceptMerge(rv)
			} else {
				m.stats.MergesDenied++
				m.sendDeny(rv.ID.Coord, reason)
			}
			return
		}
	}
}

// sendDeny tells a requesting coordinator that its merge is denied.
func (m *Mbrship) sendDeny(requester core.EndpointID, reason string) {
	ev := m.Ctx.NewSendTo(requester, 0)
	ev.Msg.PushString(reason)
	ev.Msg.PushUint8(kMergeDeny)
	m.Ctx.Down(ev)
}

// acceptMerge grants a merge and flushes our side.
func (m *Mbrship) acceptMerge(reqView *core.View) {
	if m.state != stNormal {
		return
	}
	m.stats.MergesGranted++
	m.state = stMergingIn
	m.mergePeer = append([]core.EndpointID(nil), reqView.Members...)
	m.mergeReady = false
	m.ownFlushDone = false
	grant := m.Ctx.NewSendTo(reqView.ID.Coord, 0)
	grant.Msg.PushUint8(kMergeGrant)
	m.Ctx.Down(grant)
	m.startFlushRound()
}

// receiveMergeGrant starts the requester side's flush.
func (m *Mbrship) receiveMergeGrant(ev *core.Event) {
	if m.state != stMergingOut || ev.Source != m.mergeTarget {
		return
	}
	m.mergeReady = true // grant received; flush next
	m.startFlushRound()
}

// receiveMergeDeny abandons the merge attempt and tells the
// application.
func (m *Mbrship) receiveMergeDeny(ev *core.Event) {
	reason := ev.Msg.PopString()
	if m.state != stMergingOut || ev.Source != m.mergeTarget {
		return
	}
	m.abandonMerge()
	m.Ctx.Up(&core.Event{Type: core.UMergeDenied, Detail: &core.Detail{Contact: ev.Source, Reason: reason}})
}

// sendMergeReady tells the target coordinator that our side is
// flushed, listing our survivors and our full view identity. The
// union view's sequence must outnumber both sides' epochs, and the
// union kView names our view as a predecessor so our survivors are
// entitled to install it (receiveView).
func (m *Mbrship) sendMergeReady() {
	ev := m.Ctx.NewSendTo(m.mergeTarget, 0)
	wire.PushEndpointID(ev.Msg, m.view.ID.Coord, m.Ctx.Directory())
	ev.Msg.PushUint(m.view.ID.Seq)
	wire.PushIDList(ev.Msg, m.survivors(), m.Ctx.Directory())
	ev.Msg.PushUint8(kMergeReady)
	m.Ctx.Down(ev)
}

// receiveMergeReady completes the merge at the granting coordinator.
// Only the requester granted counts: a merge_ready from outside its
// view is a stale retry of a merge this coordinator timed out, and
// completing that one would strand the requester it did grant. Any
// merge_ready that cannot complete a merge here — in whatever state it
// finds this coordinator — is answered with a deny, so that its sender
// asks again at once instead of resending merge_ready until its retry
// budget runs out. A requester that has already installed the union
// view ignores the deny: it arrives behind the view, on the same FIFO
// stream.
func (m *Mbrship) receiveMergeReady(ev *core.Event) {
	peers := wire.PopIDList(ev.Msg, m.members(), m.Ctx.Directory())
	peerView := core.ViewID{Seq: ev.Msg.PopUint(), Coord: wire.PopEndpointID(ev.Msg, m.members(), m.Ctx.Directory())}
	if m.state != stMergingIn || !containsID(m.mergePeer, ev.Source) {
		m.stats.MergesDenied++
		m.sendDeny(ev.Source, "stale merge_ready")
		return
	}
	m.mergePeer = peers
	m.mergePeerView = peerView
	m.mergePeerSealer = ev.Source
	m.mergeReady = true
	m.checkFlushComplete()
}

// beginPoolSync gates merge_ready behind a pool-acknowledgement round.
// The rebroadcast forwards and the union coordinator's VIEW come from
// different senders, so FIFO does not order them against each other; a
// survivor that installs the union view first would stale-drop the
// late forwards and virtual synchrony would break. The MARK travels
// the same FIFO channel as the forwards, so its ACK proves the whole
// pool arrived. With nothing logged (or nobody else surviving) there
// is nothing to race and merge_ready goes out at once.
func (m *Mbrship) beginPoolSync(surv []core.EndpointID) {
	others := m.othersOf(surv)
	if m.log.Len() == 0 || len(others) == 0 {
		m.sendMergeReady()
		return
	}
	m.poolWait = make(map[core.EndpointID]bool, len(others))
	for _, e := range others {
		m.poolWait[e] = true
	}
	m.sendPoolMark()
}

// sendPoolMark (re)sends the end-of-rebroadcast marker to every
// survivor whose ack is still outstanding.
func (m *Mbrship) sendPoolMark() {
	dests := make([]core.EndpointID, 0, len(m.poolWait))
	for e := range m.poolWait {
		dests = append(dests, e)
	}
	if len(dests) == 0 {
		return
	}
	sortIDs(dests)
	ev := m.Ctx.NewDowncall(core.DSend, dests, 0)
	ev.Msg.PushUint(m.flushRound)
	ev.Msg.PushUint8(kPoolMark)
	m.Ctx.Down(ev)
}

// receivePoolMark acknowledges a pool marker. The reply is
// unconditional: FIFO delivery below us guarantees every forward the
// coordinator sent before the mark has already been processed here,
// whatever state or epoch we have moved to since.
func (m *Mbrship) receivePoolMark(ev *core.Event) {
	m.sendRound(ev.Source, kPoolAck, ev.Msg.PopUint())
}

// receivePoolAck retires one survivor's outstanding pool ack. Round
// numbers are not matched: the forwards were all sent before the
// oldest mark, so any ack from the peer proves receipt.
func (m *Mbrship) receivePoolAck(ev *core.Event) {
	ev.Msg.PopUint()
	if m.state != stMergingOut || m.poolWait == nil {
		return
	}
	delete(m.poolWait, ev.Source)
	m.maybeFinishPoolSync()
}

// maybeFinishPoolSync sends merge_ready once the last pool ack is in.
func (m *Mbrship) maybeFinishPoolSync() {
	if m.poolWait == nil || len(m.poolWait) != 0 {
		return
	}
	if m.state != stMergingOut || !m.ownFlushDone {
		return
	}
	m.poolWait = nil
	m.sendMergeReady()
}

// ---------------------------------------------------------------------------
// Leave, destroy, helpers

// announceLeave tells the group we are going ("a failed process is
// automatically dropped; leaving is the polite version").
func (m *Mbrship) announceLeave() {
	if m.view == nil || m.view.Size() < 2 {
		return
	}
	ev := m.Ctx.NewDowncall(core.DSend, m.others, 0)
	wire.PushViewID(ev.Msg, m.view.ID, m.Ctx.Directory())
	ev.Msg.PushUint8(kLeave)
	m.Ctx.Down(ev)
}

// othersOf filters self out of a member list.
func (m *Mbrship) othersOf(members []core.EndpointID) []core.EndpointID {
	out := make([]core.EndpointID, 0, len(members))
	for _, e := range members {
		if e != m.Ctx.Self() {
			out = append(out, e)
		}
	}
	return out
}

func (m *Mbrship) dumpLine() string {
	view := "none"
	if m.view != nil {
		view = m.view.String()
	}
	return fmt.Sprintf("view=%s state=%d suspects=%d logged=%d views=%d flushes=%d",
		view, m.state, len(m.failedList()), m.log.Len(), m.stats.ViewsInstalled, m.stats.FlushRounds)
}

func sortIDs(ids []core.EndpointID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i].Older(ids[j]) })
}

// members returns the current view's members, against which the
// identifiers in received headers are resolved: the coordinator of
// nearly every view tag is one of them.
func (m *Mbrship) members() []core.EndpointID {
	if m.view == nil {
		return nil
	}
	return m.view.Members
}

func containsID(ids []core.EndpointID, e core.EndpointID) bool {
	for _, x := range ids {
		if x == e {
			return true
		}
	}
	return false
}

func unionIDs(a, b []core.EndpointID) []core.EndpointID {
	seen := make(map[core.EndpointID]bool, len(a)+len(b))
	out := make([]core.EndpointID, 0, len(a)+len(b))
	for _, e := range a {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, e := range b {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sortIDs(out)
	return out
}
