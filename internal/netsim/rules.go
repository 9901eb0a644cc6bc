// The fault vocabulary, once: the rule table every fabric consults and
// the per-packet walk that applies it. A fabric (Network on virtual
// time, RealTime on wall time, chaosnet over real sockets) embeds a
// *Rules, which gives it the rule setters and the egress ledger, and
// hands each packet to Route; what is left to the fabric is a clock and
// a way to deliver later — the Carrier.

package netsim

import (
	"math/rand"
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

// Rules is the fault vocabulary's state and its one decision procedure:
// the rule table (default link, directed overrides, per-host limits,
// crash set, partition map), the flow state those rules need (link and
// egress busy-until horizons, reorder holds), the seeded RNG every draw
// comes from, and the ledger of rule firings. It shares its fabric's
// lock: the fault vocabulary (setters, Stats, EgressFeedback) takes it;
// Route, MarkCrashed and Forget are what a fabric calls from inside its
// own Send, Crash and Detach and expect it held.
type Rules struct {
	lock *sync.Mutex
	out  Carrier
	rng  *rand.Rand

	def       Link
	links     map[pair]Link // directed overrides: pair{from, to}
	hosts     map[core.EndpointID]Host
	crashed   map[core.EndpointID]bool
	partition map[core.EndpointID]int // component id; absent = 0

	linkFree   map[pair]time.Duration // directed link busy-until (bandwidth model)
	egressFree map[core.EndpointID]time.Duration
	holds      map[pair][]*held

	stats Stats
	// Per-host slices of the egress ledger, feeding the
	// core.CongestionReporter hook; the Stats counters remain the sum
	// over hosts.
	egressCongested map[core.EndpointID]uint64
	egressDropped   map[core.EndpointID]uint64
}

// NewRules builds an empty rule table over the fabric's lock and
// carrier. seed drives every fault draw.
func NewRules(lock *sync.Mutex, out Carrier, seed int64, def Link) *Rules {
	return &Rules{
		lock:            lock,
		out:             out,
		rng:             rand.New(rand.NewSource(seed)),
		def:             def,
		links:           make(map[pair]Link),
		hosts:           make(map[core.EndpointID]Host),
		crashed:         make(map[core.EndpointID]bool),
		partition:       make(map[core.EndpointID]int),
		linkFree:        make(map[pair]time.Duration),
		egressFree:      make(map[core.EndpointID]time.Duration),
		holds:           make(map[pair][]*held),
		egressCongested: make(map[core.EndpointID]uint64),
		egressDropped:   make(map[core.EndpointID]uint64),
	}
}

// SetLink overrides the link between a and b in both directions — the
// symmetric wrapper around SetLinkDirected. Per-pair overrides take
// precedence over the default link; an explicit zero-value override
// means "perfect link", not "no override" (use ClearLink to fall back
// to the default).
func (r *Rules) SetLink(a, b core.EndpointID, l Link) {
	r.lock.Lock()
	defer r.lock.Unlock()
	r.links[pair{a, b}] = l
	r.links[pair{b, a}] = l
}

// SetLinkDirected overrides the link for packets travelling from a to
// b only; the reverse direction keeps its current behaviour. Chaos
// schedules use it to model asymmetric faults (a hears b while b is
// deaf to a). Precedence per direction: directed override, then the
// default link.
func (r *Rules) SetLinkDirected(a, b core.EndpointID, l Link) {
	r.lock.Lock()
	defer r.lock.Unlock()
	r.links[pair{a, b}] = l
}

// ClearLink removes any override between a and b (both directions);
// the pair falls back to the default link.
func (r *Rules) ClearLink(a, b core.EndpointID) {
	r.lock.Lock()
	defer r.lock.Unlock()
	delete(r.links, pair{a, b})
	delete(r.links, pair{b, a})
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
	r.hosts[id] = h
	// A fresh budget starts with an empty bucket: the horizon of a
	// previous, possibly tighter budget must not leak into this one.
	delete(r.egressFree, id)
}

// ClearHost removes the per-host limits for the named endpoint.
func (r *Rules) ClearHost(id core.EndpointID) {
	r.lock.Lock()
	defer r.lock.Unlock()
	delete(r.hosts, id)
	delete(r.egressFree, id)
}

// Partition splits the network into component groups; traffic flows
// only within a group. Endpoints not listed join component 0 together.
func (r *Rules) Partition(groups ...[]core.EndpointID) {
	r.lock.Lock()
	defer r.lock.Unlock()
	r.partition = make(map[core.EndpointID]int)
	for i, g := range groups {
		for _, id := range g {
			r.partition[id] = i + 1
		}
	}
}

// Heal removes all partitions.
func (r *Rules) Heal() {
	r.lock.Lock()
	defer r.lock.Unlock()
	r.partition = make(map[core.EndpointID]int)
}

// MarkCrashed records that id has fail-stopped: from now on everything
// to or from it is blocked. Destroying the endpoint is the fabric's
// Crash, which holds the lock.
func (r *Rules) MarkCrashed(id core.EndpointID) { r.crashed[id] = true }

// Crashed reports whether the endpoint has been crashed.
func (r *Rules) Crashed(id core.EndpointID) bool {
	r.lock.Lock()
	defer r.lock.Unlock()
	return r.crashed[id]
}

// Forget drops everything the table holds about id — the sweep behind
// a fabric's Detach, which holds the lock — so repeated crash/recover
// cycles do not grow the maps without bound.
func (r *Rules) Forget(id core.EndpointID) {
	delete(r.crashed, id)
	delete(r.partition, id)
	for p := range r.links {
		if p.a == id || p.b == id {
			delete(r.links, p)
		}
	}
	for p := range r.linkFree {
		if p.a == id || p.b == id {
			delete(r.linkFree, p)
		}
	}
	for p, hs := range r.holds {
		if p.a != id && p.b != id {
			continue
		}
		// Held toward id: blocked here and now. Held from id: already in
		// flight, so its backstop still transmits it; only the table
		// entry goes.
		if p.b == id {
			for _, h := range hs {
				h.released = true
				r.stats.Blocked++
			}
		}
		delete(r.holds, p)
	}
	delete(r.hosts, id)
	delete(r.egressFree, id)
	delete(r.egressCongested, id)
	delete(r.egressDropped, id)
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
	return core.EgressFeedback{
		BacklogBytes:    BucketBacklog(r.out.Clock(), r.egressFree[id], r.hosts[id].EgressBudget),
		Congested:       r.egressCongested[id],
		CollapseDropped: r.egressDropped[id],
	}
}

// The emptiness guards below and in Route: every map here is keyed by
// (a pair of) EndpointIDs, whose Site strings make each lookup a string
// hash. Idle fault machinery must not tax the per-packet path.

func (r *Rules) down(id core.EndpointID) bool {
	return len(r.crashed) != 0 && r.crashed[id]
}

func (r *Rules) linkFor(from, to core.EndpointID) Link {
	if len(r.links) == 0 {
		return r.def
	}
	if l, ok := r.links[pair{from, to}]; ok {
		return l
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
	if r.down(from) || r.down(dst) || (len(r.partition) != 0 && r.partition[from] != r.partition[dst]) {
		r.stats.Blocked++
		return
	}
	l := r.linkFor(from, dst)
	copies := 1
	if l.DupRate > 0 && r.rng.Float64() < l.DupRate {
		copies = 2
		r.stats.Duplicated++
	}
	dir := pair{from, dst}
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
			r.holdLocked(from, group, dst, buf, l)
			continue
		}
		r.transmitLocked(from, group, dst, buf)
		// A collapse-dropped packet still counts as a departure for the
		// reorder rule: the sender attempted it.
		r.departLocked(dir)
	}
}

// transmitLocked puts one packet on the directed link: host egress
// budget, then propagation delay, jitter, and bandwidth serialization,
// then Emit. Rules are read at transmit time, so a packet released from
// a reorder hold sees the rules in force — and the crashes that have
// happened — when it actually departs. The host bucket is acquired
// before the link bucket: the packet clears the sender's shared NIC
// first (store-and-forward), then contends for the directed link from
// that moment.
func (r *Rules) transmitLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte) {
	if r.down(dst) {
		r.stats.Blocked++
		return
	}
	now := r.out.Clock()
	clear := now
	if len(r.hosts) != 0 {
		newFree, c, out := EgressAcquire(r.hosts[from], from, dst, now, r.egressFree[from], len(buf))
		clear = c
		switch out {
		case EgressDropped:
			r.stats.CollapseDropped++
			r.egressDropped[from]++
			return
		case EgressQueued:
			r.stats.Congested++
			r.egressCongested[from]++
			r.egressFree[from] = newFree
		case EgressGranted:
			r.egressFree[from] = newFree
		}
	}
	l := r.linkFor(from, dst)
	delay := l.Delay
	if l.Jitter > 0 {
		delay += time.Duration(r.rng.Int63n(int64(l.Jitter)))
	}
	if l.Bandwidth > 0 {
		// Serialize on the directed link: the packet departs when the
		// link is free — no earlier than its NIC clear time — and
		// occupies the link for size/Bandwidth.
		dir := pair{from, dst}
		linkFree, queued := BucketAcquire(clear, r.linkFree[dir], len(buf), l.Bandwidth)
		if queued {
			r.stats.Throttled++
		}
		r.linkFree[dir] = linkFree
		delay += linkFree - now
	} else {
		delay += clear - now
	}
	r.out.Emit(dst, group, buf, delay)
}

// holdLocked parks one packet under the reorder rule: it transmits
// after ReorderDepth later departures on the same directed link, or
// after ReorderHold if the link goes quiet first.
func (r *Rules) holdLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte, l Link) {
	depth := l.ReorderDepth
	if depth <= 0 {
		depth = defaultReorderDepth
	}
	wait := l.ReorderHold
	if wait <= 0 {
		wait = defaultReorderHold
	}
	r.stats.Reordered++
	dir := pair{from, dst}
	h := &held{remaining: depth, group: group, buf: buf}
	r.holds[dir] = append(r.holds[dir], h)
	r.out.Arm(wait, func() {
		r.lock.Lock()
		defer r.lock.Unlock()
		if h.released {
			return
		}
		h.released = true
		hs := r.holds[dir]
		for i, x := range hs {
			if x == h {
				r.holds[dir] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
		r.transmitLocked(dir.a, h.group, dir.b, h.buf)
	})
}

// departLocked counts one departure on a directed link against its
// held packets, releasing any whose depth is exhausted.
func (r *Rules) departLocked(dir pair) {
	if len(r.holds) == 0 {
		return
	}
	hs := r.holds[dir]
	if len(hs) == 0 {
		return
	}
	keep := hs[:0]
	var release []*held
	for _, h := range hs {
		h.remaining--
		if h.remaining <= 0 {
			h.released = true
			release = append(release, h)
		} else {
			keep = append(keep, h)
		}
	}
	r.holds[dir] = keep
	for _, h := range release {
		r.transmitLocked(dir.a, h.group, dir.b, h.buf)
	}
}
