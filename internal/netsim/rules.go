// The fault vocabulary, once: the rule table every fabric consults and
// the per-packet walk that applies it. A fabric (Network on virtual
// time, chaosnet over real sockets on wall time) embeds a *Rules,
// which gives it the rule setters and the egress ledger, and
// hands each packet to Route; what is left to the fabric is a clock and
// a way to deliver later — the Carrier.

package netsim

import (
	"math/rand"
	"slices"
	"sync"
	"time"

	"horus/internal/core"
)

// Link describes the behaviour of the medium between two endpoints.
// The zero value is a perfect, zero-latency link.
type Link struct {
	// Delay is the base one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter); jitter
	// larger than the inter-send gap causes reordering.
	Jitter time.Duration
	// LossRate is the probability a packet is silently dropped.
	LossRate float64
	// DupRate is the probability a packet is delivered twice.
	DupRate float64
	// GarbleRate is the probability a random byte of the packet is
	// corrupted in flight.
	GarbleRate float64
	// Bandwidth, when positive, serializes packets on the directed
	// link at Bandwidth bytes per second: each packet occupies the
	// link for size/Bandwidth before propagating, and packets queue
	// behind each other. It makes wire volume observable in virtual
	// time — which is how the compression layer's "improve bandwidth
	// use" benefit is measured.
	Bandwidth int
	// ReorderRate is the probability a packet is held back and
	// released out of order: a held packet re-enters the link only
	// after ReorderDepth later packets have departed on the same
	// directed link (or after ReorderHold of link silence, whichever
	// comes first), so it arrives behind traffic sent after it. Unlike
	// Jitter — which only reorders when it exceeds the inter-send gap —
	// the explicit rule guarantees inversions at any send rate.
	ReorderRate float64
	// ReorderDepth is how many subsequent departures overtake a held
	// packet before it is released; zero means 3.
	ReorderDepth int
	// ReorderHold caps how long a held packet waits for followers on a
	// link that has gone quiet; zero means 250ms.
	ReorderHold time.Duration
}

// Reorder-rule defaults.
const (
	defaultReorderDepth = 3
	defaultReorderHold  = 250 * time.Millisecond
)

// Stats counts network-level activity, for tests and experiments: the
// ledger of rule firings Rules keeps, plus the deliveries its fabric
// adds.
type Stats struct {
	Sent       int // packets handed to the network (per destination)
	Delivered  int // packets delivered to an endpoint
	Lost       int // packets dropped by loss
	Garbled    int // packets corrupted in flight
	Duplicated int // extra deliveries due to duplication
	Blocked    int // packets dropped by partition or crash
	Bytes      int // wire bytes delivered
	Reordered  int // packets held back by the reorder rule
	Throttled  int // packets that queued behind earlier traffic (bandwidth)
	// Congested counts packets that queued behind earlier traffic in
	// their host's shared egress bucket (Host.EgressBudget) — the
	// per-host analogue of Throttled.
	Congested int
	// CollapseDropped counts packets dropped because the host's
	// bounded egress queue overflowed: offered load exceeded the
	// egress budget for long enough that delay turned into loss.
	CollapseDropped int
}

// Carrier is what a fabric supplies to its Rules, once, at
// construction: its clock, and the two things the pipeline can ask of
// it. All three are called with the fabric's lock held.
type Carrier interface {
	// Clock is the fabric's time: virtual on Network, wall time since
	// construction elsewhere.
	Clock() time.Duration
	// Emit delivers buf to dst (for group, where the fabric routes by
	// group) after delay. buf is read-only: one buffer may be emitted
	// toward several destinations.
	Emit(dst core.EndpointID, group core.GroupAddr, buf []byte, delay time.Duration)
	// Arm runs fn after d — the backstop of a reorder hold. fn takes
	// the lock itself. A fabric that has shut down may drop it.
	Arm(d time.Duration, fn func())
}

type pair struct{ a, b core.EndpointID }

// held is one packet parked by the reorder rule, waiting for
// `remaining` later departures on its directed link (or the hold
// backstop) before it transmits.
type held struct {
	remaining int
	released  bool
	group     core.GroupAddr
	buf       []byte
}

// endState is everything the table holds about one endpoint: the rules
// that name it and the egress flow state and ledger its host limits
// feed.
type endState struct {
	host       Host
	egressFree time.Duration // host egress busy-until
	crashed    bool
	component  int // partition component; 0 when not listed
	// The endpoint's slice of the egress ledger, feeding the
	// core.CongestionReporter hook; the Stats counters remain the sum
	// over hosts. History, not configuration: SetHost and ClearHost keep
	// it.
	congested, dropped uint64
}

// noEnd stands for an endpoint the table holds nothing about: no host
// limits, not crashed, in component 0. It is read, never written:
// transmitLocked charges only a host with an egress budget, and noEnd has
// none.
var noEnd endState

// linkState is everything the table holds about one directed link: its
// override of the default link, if any, its bandwidth busy-until horizon
// and the packets the reorder rule holds on it.
type linkState struct {
	override *Link
	free     time.Duration
	holds    []*held
}

// Rules is the fault vocabulary's state and its one decision procedure:
// the rule table (default link, directed overrides, per-host limits,
// crash set, partition map), the flow state those rules need (link and
// egress busy-until horizons, reorder holds), the seeded RNG every draw
// comes from, and the ledger of rule firings. What it holds about an
// endpoint is one record, and about a directed link another, so a packet
// finds what applies to it with a lookup per end and one for its link.
// It shares its fabric's lock: the fault vocabulary (setters, Stats,
// EgressFeedback) takes it; Route, MarkCrashed and Forget are what a
// fabric calls from inside its own Send, Crash and Detach and expect it
// held.
type Rules struct {
	lock *sync.Mutex
	out  Carrier
	rng  *rand.Rand

	def     Link
	ends    map[core.EndpointID]*endState
	links   map[pair]*linkState // by pair{from, to}
	crashed int                 // records marked crashed

	stats Stats
}

// NewRules builds an empty rule table over the fabric's lock and
// carrier. seed drives every fault draw.
func NewRules(lock *sync.Mutex, out Carrier, seed int64, def Link) *Rules {
	return &Rules{
		lock:  lock,
		out:   out,
		rng:   rand.New(rand.NewSource(seed)),
		def:   def,
		ends:  make(map[core.EndpointID]*endState),
		links: make(map[pair]*linkState),
	}
}

// end returns id's record, or noEnd. Every map here is keyed by (a pair
// of) EndpointIDs, whose Site strings make each lookup a string hash;
// a lookup in an empty map hashes nothing, so idle fault machinery does
// not tax the per-packet path — which is why a rule's clearing drops a
// record left holding nothing (tidyEnd, tidyLink).
func (r *Rules) end(id core.EndpointID) *endState {
	if e := r.ends[id]; e != nil {
		return e
	}
	return &noEnd
}

// tidyEnd drops id's record e once it holds nothing.
func (r *Rules) tidyEnd(id core.EndpointID, e *endState) {
	if *e == (endState{}) {
		delete(r.ends, id)
	}
}

// tidyLink drops dir's record d once it holds nothing: no override, no
// held packet, and a bandwidth horizon already past, which no later
// packet can queue behind.
func (r *Rules) tidyLink(dir pair, d *linkState) {
	if d.override == nil && len(d.holds) == 0 && d.free <= r.out.Clock() {
		delete(r.links, dir)
	}
}

// recordFor returns m's record for k, made on first use.
func recordFor[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// SetLink overrides the link between a and b in both directions — the
// symmetric wrapper around SetLinkDirected. Per-pair overrides take
// precedence over the default link; an explicit zero-value override
// means "perfect link", not "no override" (use ClearLink to fall back
// to the default).
func (r *Rules) SetLink(a, b core.EndpointID, l Link) {
	r.lock.Lock()
	defer r.lock.Unlock()
	recordFor(r.links, pair{a, b}).override = &l
	recordFor(r.links, pair{b, a}).override = &l
}

// SetLinkDirected overrides the link for packets travelling from a to
// b only; the reverse direction keeps its current behaviour. Chaos
// schedules use it to model asymmetric faults (a hears b while b is
// deaf to a). Precedence per direction: directed override, then the
// default link.
func (r *Rules) SetLinkDirected(a, b core.EndpointID, l Link) {
	r.lock.Lock()
	defer r.lock.Unlock()
	recordFor(r.links, pair{a, b}).override = &l
}

// ClearLink removes any override between a and b (both directions);
// the pair falls back to the default link.
func (r *Rules) ClearLink(a, b core.EndpointID) {
	r.lock.Lock()
	defer r.lock.Unlock()
	for _, dir := range [2]pair{{a, b}, {b, a}} {
		if d := r.links[dir]; d != nil {
			d.override = nil
			r.tidyLink(dir, d)
		}
	}
}

// SetDefaultLink replaces the default link applied to all pairs
// without an override.
func (r *Rules) SetDefaultLink(l Link) {
	r.lock.Lock()
	defer r.lock.Unlock()
	r.def = l
}

// SetHost overrides the per-host limits for the named endpoint. An
// explicit zero-value Host means "no limits", same as never calling
// SetHost; the distinction link overrides make (override vs default)
// does not arise because there is no default host rule.
func (r *Rules) SetHost(id core.EndpointID, h Host) {
	r.lock.Lock()
	defer r.lock.Unlock()
	// A fresh budget starts with an empty bucket: the horizon of a
	// previous, possibly tighter budget must not leak into this one.
	e := recordFor(r.ends, id)
	e.host, e.egressFree = h, 0
	r.tidyEnd(id, e)
}

// ClearHost removes the per-host limits for the named endpoint.
func (r *Rules) ClearHost(id core.EndpointID) { r.SetHost(id, Host{}) }

// Partition splits the network into component groups; traffic flows
// only within a group. Endpoints not listed join component 0 together.
func (r *Rules) Partition(groups ...[]core.EndpointID) {
	r.lock.Lock()
	defer r.lock.Unlock()
	r.heal()
	for i, g := range groups {
		for _, id := range g {
			recordFor(r.ends, id).component = i + 1
		}
	}
}

// Heal removes all partitions.
func (r *Rules) Heal() {
	r.lock.Lock()
	defer r.lock.Unlock()
	r.heal()
}

func (r *Rules) heal() {
	for id, e := range r.ends {
		e.component = 0
		r.tidyEnd(id, e)
	}
}

// MarkCrashed records that id has fail-stopped: from now on everything
// to or from it is blocked. Destroying the endpoint is the fabric's
// Crash, which holds the lock.
func (r *Rules) MarkCrashed(id core.EndpointID) {
	if e := recordFor(r.ends, id); !e.crashed {
		e.crashed = true
		r.crashed++
	}
}

// Crashed reports whether the endpoint has been crashed.
func (r *Rules) Crashed(id core.EndpointID) bool {
	r.lock.Lock()
	defer r.lock.Unlock()
	return r.end(id).crashed
}

// Forget drops everything the table holds about id — the sweep behind
// a fabric's Detach, which holds the lock — so repeated crash/recover
// cycles do not grow the table without bound.
func (r *Rules) Forget(id core.EndpointID) {
	if r.end(id).crashed {
		r.crashed--
	}
	delete(r.ends, id)
	for dir, d := range r.links {
		if dir.a != id && dir.b != id {
			continue
		}
		// Held toward id: blocked here and now. Held from id: already in
		// flight, so its backstop still transmits it; only the table
		// entry goes.
		if dir.b == id {
			for _, h := range d.holds {
				h.released = true
				r.stats.Blocked++
			}
		}
		delete(r.links, dir)
	}
}

// Stats returns a snapshot of the ledger.
func (r *Rules) Stats() Stats {
	r.lock.Lock()
	defer r.lock.Unlock()
	return r.stats
}

// EgressFeedback snapshots the egress ledger for one sending host,
// implementing core.CongestionReporter: the backlog currently queued
// behind the host's token bucket plus the cumulative congestion
// counters charged to that host. Counters survive SetHost/ClearHost
// (they are history, not configuration) and reset only on Forget.
func (r *Rules) EgressFeedback(id core.EndpointID) core.EgressFeedback {
	r.lock.Lock()
	defer r.lock.Unlock()
	e := r.end(id)
	return core.EgressFeedback{
		BacklogBytes:    BucketBacklog(r.out.Clock(), e.egressFree, e.host.EgressBudget),
		Congested:       e.congested,
		CollapseDropped: e.dropped,
	}
}

// down is the fabric's per-send and per-delivery check; with nothing
// crashed it hashes nothing, whatever else the table holds.
func (r *Rules) down(id core.EndpointID) bool {
	return r.crashed != 0 && r.end(id).crashed
}

// linkOf is the link in force on a directed link with record d, which
// may be nil.
func (r *Rules) linkOf(d *linkState) Link {
	if d != nil && d.override != nil {
		return *d.override
	}
	return r.def
}

// Route walks one packet from→dst through the pipeline and emits what
// survives; the caller holds the lock. The order of draws is fixed —
// dup, then per copy loss, garble (which byte, which bits), reorder,
// and at departure jitter — because seeded runs are pinned on it. wire
// is shared by the sender's whole fan-out and is never written:
// garbling clones it.
func (r *Rules) Route(from, dst core.EndpointID, group core.GroupAddr, wire []byte) {
	r.stats.Sent++
	fe, de := r.end(from), r.end(dst)
	if fe.crashed || de.crashed || fe.component != de.component {
		r.stats.Blocked++
		return
	}
	dir := pair{from, dst}
	d := r.links[dir]
	l := r.linkOf(d)
	copies := 1
	if l.DupRate > 0 && r.rng.Float64() < l.DupRate {
		copies = 2
		r.stats.Duplicated++
	}
	for i := 0; i < copies; i++ {
		if l.LossRate > 0 && r.rng.Float64() < l.LossRate {
			r.stats.Lost++
			continue
		}
		buf := wire
		if l.GarbleRate > 0 && len(buf) > 0 && r.rng.Float64() < l.GarbleRate {
			buf = append([]byte(nil), wire...)
			buf[r.rng.Intn(len(buf))] ^= byte(1 + r.rng.Intn(255))
			r.stats.Garbled++
		}
		if l.ReorderRate > 0 && r.rng.Float64() < l.ReorderRate {
			d = r.holdLocked(dir, group, buf, l)
			continue
		}
		r.transmitLocked(fe, de, dir, d, group, buf)
		// A collapse-dropped packet still counts as a departure for the
		// reorder rule: the sender attempted it.
		r.departLocked(fe, de, dir, d)
	}
}

// transmitLocked puts one packet on the directed link dir, whose record
// is d (nil when there is none yet; the bandwidth rule makes one): host
// egress budget, then propagation delay, jitter, and bandwidth
// serialization, then Emit. fe and de are the records of dir's ends.
// Rules are read at transmit time, so a packet released from a reorder
// hold sees the rules in force — and the crashes that have happened —
// when it actually departs. The host bucket is acquired before the link
// bucket: the packet clears the sender's shared NIC first
// (store-and-forward), then contends for the directed link from that
// moment.
func (r *Rules) transmitLocked(fe, de *endState, dir pair, d *linkState, group core.GroupAddr, buf []byte) {
	if de.crashed {
		r.stats.Blocked++
		return
	}
	now := r.out.Clock()
	clear := now
	if fe.host.EgressBudget > 0 { // so fe is a record of its own, not noEnd
		newFree, c, out := EgressAcquire(fe.host, dir.a, dir.b, now, fe.egressFree, len(buf))
		clear = c
		switch out {
		case EgressDropped:
			r.stats.CollapseDropped++
			fe.dropped++
			return
		case EgressQueued:
			r.stats.Congested++
			fe.congested++
			fe.egressFree = newFree
		case EgressGranted:
			fe.egressFree = newFree
		}
	}
	l := r.linkOf(d)
	delay := l.Delay
	if l.Jitter > 0 {
		delay += time.Duration(r.rng.Int63n(int64(l.Jitter)))
	}
	if l.Bandwidth > 0 {
		// Serialize on the directed link: the packet departs when the
		// link is free — no earlier than its NIC clear time — and
		// occupies the link for size/Bandwidth.
		if d == nil {
			d = recordFor(r.links, dir)
		}
		var queued bool
		d.free, queued = BucketAcquire(clear, d.free, len(buf), l.Bandwidth)
		if queued {
			r.stats.Throttled++
		}
		delay += d.free - now
	} else {
		delay += clear - now
	}
	r.out.Emit(dir.b, group, buf, delay)
}

// holdLocked parks one packet under the reorder rule on dir and returns
// dir's record: it transmits after ReorderDepth later departures on the
// same directed link, or after ReorderHold if the link goes quiet first.
func (r *Rules) holdLocked(dir pair, group core.GroupAddr, buf []byte, l Link) *linkState {
	depth := l.ReorderDepth
	if depth <= 0 {
		depth = defaultReorderDepth
	}
	wait := l.ReorderHold
	if wait <= 0 {
		wait = defaultReorderHold
	}
	r.stats.Reordered++
	h := &held{remaining: depth, group: group, buf: buf}
	d := recordFor(r.links, dir)
	d.holds = append(d.holds, h)
	r.out.Arm(wait, func() {
		r.lock.Lock()
		defer r.lock.Unlock()
		if h.released {
			return
		}
		h.released = true
		// The link's record is looked up again: Forget may have dropped
		// it while the packet, already in flight from the forgotten end,
		// was held. Such a packet leaves on the default link, timed on a
		// scratch record the table does not keep, so nothing names the
		// forgotten end again.
		d := r.links[dir]
		if d == nil {
			d = new(linkState)
		} else if i := slices.Index(d.holds, h); i >= 0 {
			d.holds = slices.Delete(d.holds, i, i+1)
		}
		r.transmitLocked(r.end(dir.a), r.end(dir.b), dir, d, h.group, h.buf)
	})
	return d
}

// departLocked counts one departure on the directed link dir, whose
// record is d, against its held packets, releasing any whose depth is
// exhausted.
func (r *Rules) departLocked(fe, de *endState, dir pair, d *linkState) {
	if d == nil || len(d.holds) == 0 {
		return
	}
	keep := d.holds[:0]
	var release []*held
	for _, h := range d.holds {
		h.remaining--
		if h.remaining <= 0 {
			h.released = true
			release = append(release, h)
		} else {
			keep = append(keep, h)
		}
	}
	d.holds = keep
	for _, h := range release {
		r.transmitLocked(fe, de, dir, d, h.group, h.buf)
	}
}
