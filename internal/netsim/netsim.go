// Package netsim provides the communication substrate underneath every
// Horus stack: a best-effort (property P1) network in the spirit of
// the paper's ATM/internet bottom layers.
//
// The paper's testbed was real ATM hardware; we substitute a
// deterministic discrete-event simulation so that every protocol path
// — message loss (NAK retransmission), garbling (CHKSUM), duplication,
// reordering, partitions (MERGE), and crashes (MBRSHIP flush) — can be
// exercised reproducibly from a seed. Virtual time also makes timer-
// driven protocols testable in microseconds of wall time.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
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

// Reorder-rule defaults, shared by every fabric that implements the
// vocabulary (netsim here, chaosnet over real sockets).
const (
	DefaultReorderDepth = 3
	DefaultReorderHold  = 250 * time.Millisecond
)

// Config configures a simulated network.
type Config struct {
	// Seed drives all randomness; runs with equal seeds and schedules
	// are identical.
	Seed int64
	// DefaultLink applies between every pair of endpoints unless
	// overridden with SetLink.
	DefaultLink Link
}

// Stats counts network-level activity, for tests and experiments.
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

// Network is a simulated broadcast medium connecting endpoints. It
// implements core.Transport. All event execution is driven by Run /
// RunFor / Step on a single goroutine; virtual time only advances
// there.
type Network struct {
	mu        sync.Mutex
	now       time.Duration
	events    eventHeap
	free      []*event // spent packet events, reused by transmitLocked
	seq       uint64
	rng       *rand.Rand
	endpoints map[core.EndpointID]*core.Endpoint
	order     []core.EndpointID // attach order, for deterministic fan-out
	// groups tracks which endpoints have a stack composed for which
	// group address (core.GroupRegistrar), in join order. Empty-dests
	// broadcasts fan out over this set rather than every attached
	// endpoint: a receiver without the group dropped the packet anyway,
	// so scoping the scan is behaviour-preserving — but it turns the
	// per-broadcast cost from O(cluster endpoints) into O(group
	// members), which is what lets thousands of endpoints share one
	// simulated fabric (see the loadgen harness).
	groups     map[core.GroupAddr][]core.EndpointID
	links      map[pair]Link // directed overrides: pair{from, to}
	def        Link
	crashed    map[core.EndpointID]bool
	partition  map[core.EndpointID]int // partition id; absent = 0
	linkFree   map[pair]time.Duration  // directed link busy-until (bandwidth model)
	held       map[pair][]*heldPacket  // directed link reorder holds
	hosts      map[core.EndpointID]Host
	egressFree map[core.EndpointID]time.Duration // per-host egress busy-until
	// Per-host slices of the egress ledger, feeding the
	// core.CongestionReporter hook; the global Stats counters remain
	// the sum over hosts.
	egressCongested map[core.EndpointID]uint64
	egressDropped   map[core.EndpointID]uint64
	nextBirth       uint64
	stats           Stats

	// sendAudit, set only by tests and only before traffic flows, sees
	// the shared fan-out copy of every Send so they can prove that no
	// receiver writes through it.
	sendAudit func(shared []byte)
}

// heldPacket is one packet parked by the reorder rule, waiting for
// `remaining` later departures on its directed link (or the hold
// backstop) before it transmits.
type heldPacket struct {
	remaining  int
	released   bool
	sendLocked func() // transmit; caller holds n.mu
}

type pair struct{ a, b core.EndpointID }

// New creates a network.
func New(cfg Config) *Network {
	return &Network{
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		endpoints:       make(map[core.EndpointID]*core.Endpoint),
		groups:          make(map[core.GroupAddr][]core.EndpointID),
		links:           make(map[pair]Link),
		def:             cfg.DefaultLink,
		crashed:         make(map[core.EndpointID]bool),
		partition:       make(map[core.EndpointID]int),
		linkFree:        make(map[pair]time.Duration),
		held:            make(map[pair][]*heldPacket),
		hosts:           make(map[core.EndpointID]Host),
		egressFree:      make(map[core.EndpointID]time.Duration),
		egressCongested: make(map[core.EndpointID]uint64),
		egressDropped:   make(map[core.EndpointID]uint64),
		nextBirth:       1,
	}
}

// NewEndpoint creates and attaches an endpoint at the named site. The
// endpoint's Birth stamp records attach order, giving the total "age"
// order that coordinator election relies on.
func (n *Network) NewEndpoint(site string) *core.Endpoint {
	n.mu.Lock()
	id := core.EndpointID{Site: site, Birth: n.nextBirth}
	n.nextBirth++
	n.mu.Unlock()
	ep := core.NewEndpoint(id, n)
	n.mu.Lock()
	n.endpoints[id] = ep
	n.order = append(n.order, id)
	n.mu.Unlock()
	return ep
}

// JoinGroup implements core.GroupRegistrar: it records that id has a
// stack composed for group g, making it an empty-dests broadcast
// target for that group. Registration order is join order, so fan-out
// stays deterministic.
func (n *Network) JoinGroup(id core.EndpointID, g core.GroupAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups[g] = append(n.groups[g], id)
}

// LeaveGroup implements core.GroupRegistrar: the endpoint's stack for
// g is gone (leave, destroy, or crash) and it stops being a broadcast
// target for the group.
func (n *Network) LeaveGroup(id core.EndpointID, g core.GroupAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	members := n.groups[g]
	for i, m := range members {
		if m == id {
			n.groups[g] = append(members[:i], members[i+1:]...)
			break
		}
	}
	if len(n.groups[g]) == 0 {
		delete(n.groups, g)
	}
}

// SetLink overrides the link between a and b in both directions — the
// symmetric wrapper around SetLinkDirected. Per-pair overrides take
// precedence over DefaultLink; an explicit zero-value override means
// "perfect link", not "no override" (use ClearLink to fall back to the
// default).
func (n *Network) SetLink(a, b core.EndpointID, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[pair{a, b}] = l
	n.links[pair{b, a}] = l
}

// SetLinkDirected overrides the link for packets travelling from a to
// b only; the reverse direction keeps its current behaviour. Chaos
// schedules use it to model asymmetric faults (a hears b while b is
// deaf to a). Precedence per direction: directed override, then
// DefaultLink.
func (n *Network) SetLinkDirected(a, b core.EndpointID, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[pair{a, b}] = l
}

// ClearLink removes any override between a and b (both directions);
// the pair falls back to DefaultLink.
func (n *Network) ClearLink(a, b core.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.links, pair{a, b})
	delete(n.links, pair{b, a})
}

// SetDefaultLink replaces the default link applied to all pairs
// without an override.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = l
}

// SetHost overrides the per-host limits for the named endpoint. An
// explicit zero-value Host means "no limits", same as never calling
// SetHost; the distinction link overrides make (override vs default)
// does not arise because there is no default host rule.
func (n *Network) SetHost(id core.EndpointID, h Host) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[id] = h
	// A fresh budget starts with an empty bucket: the horizon of a
	// previous, possibly tighter budget must not leak into this one.
	delete(n.egressFree, id)
}

// ClearHost removes the per-host limits for the named endpoint.
func (n *Network) ClearHost(id core.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.hosts, id)
	delete(n.egressFree, id)
}

func (n *Network) linkFor(from, to core.EndpointID) Link {
	// Fast path: no overrides configured. The pair hash costs two
	// string hashes per packet, which dominates a cluster-scale soak
	// where every link is the default.
	if len(n.links) == 0 {
		return n.def
	}
	if l, ok := n.links[pair{from, to}]; ok {
		return l
	}
	return n.def
}

// Crash fail-stops the endpoint: all of its traffic is dropped from
// now on and its protocol execution halts. Other members observe
// silence — exactly the failure model MBRSHIP converts into clean
// view changes.
func (n *Network) Crash(id core.EndpointID) {
	n.mu.Lock()
	ep := n.endpoints[id]
	n.crashed[id] = true
	n.mu.Unlock()
	if ep != nil {
		ep.Destroy()
	}
}

// Detach removes a (typically crashed) endpoint from the network
// entirely: it stops counting as a broadcast target and its fault
// bookkeeping is forgotten. Chaos schedules detach a crashed
// incarnation when the site rejoins with a fresh endpoint, so repeated
// crash/recover cycles do not grow the fan-out set without bound.
// Detaching a live endpoint crashes it first.
func (n *Network) Detach(id core.EndpointID) {
	n.Crash(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, id)
	delete(n.crashed, id)
	delete(n.partition, id)
	for i, e := range n.order {
		if e == id {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	for p := range n.links {
		if p.a == id || p.b == id {
			delete(n.links, p)
		}
	}
	for p := range n.linkFree {
		if p.a == id || p.b == id {
			delete(n.linkFree, p)
		}
	}
	for p := range n.held {
		if p.a == id || p.b == id {
			delete(n.held, p)
		}
	}
	delete(n.hosts, id)
	delete(n.egressFree, id)
	delete(n.egressCongested, id)
	delete(n.egressDropped, id)
	// Crash→Destroy already deregistered the endpoint's groups through
	// core.GroupRegistrar; sweep anyway so an endpoint the destroy path
	// never reached (e.g. attached but externally constructed) cannot
	// leave a stale broadcast target behind.
	for g, members := range n.groups {
		for i, m := range members {
			if m == id {
				n.groups[g] = append(members[:i], members[i+1:]...)
				break
			}
		}
		if len(n.groups[g]) == 0 {
			delete(n.groups, g)
		}
	}
}

// Crashed reports whether the endpoint has been crashed.
func (n *Network) Crashed(id core.EndpointID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Partition splits the network into component groups; traffic flows
// only within a group. Endpoints not listed join component 0 together.
func (n *Network) Partition(groups ...[]core.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[core.EndpointID]int)
	for i, g := range groups {
		for _, id := range g {
			n.partition[id] = i + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[core.EndpointID]int)
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// EgressFeedback snapshots the egress ledger for one sending host,
// implementing core.CongestionReporter: the backlog currently queued
// behind the host's token bucket plus the cumulative congestion
// counters charged to that host. Counters survive SetHost/ClearHost
// (they are history, not configuration) and reset only on Detach.
func (n *Network) EgressFeedback(id core.EndpointID) core.EgressFeedback {
	n.mu.Lock()
	defer n.mu.Unlock()
	return core.EgressFeedback{
		BacklogBytes:    BucketBacklog(n.now, n.egressFree[id], n.hosts[id].EgressBudget),
		Congested:       n.egressCongested[id],
		CollapseDropped: n.egressDropped[id],
	}
}

// Now returns the current virtual time. Part of core.Transport.
func (n *Network) Now() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// Send transmits wire bytes best-effort. Part of core.Transport.
// Empty dests broadcasts to every endpoint with a stack composed for
// the group address (the core.GroupRegistrar scoping; endpoints
// without the group dropped the packet anyway).
func (n *Network) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	// One defensive copy shared by the whole fan-out: the caller may
	// reuse wire after Send returns, and each delivery hands the copy
	// to Endpoint.Deliver, whose message is a read-only view of it
	// (headers, body and all — see the ownership rule there), so every
	// destination can look at the same bytes. Per-destination copies
	// are needed only when a link garbles bytes in flight —
	// sendOneLocked clones on that path alone.
	shared := make([]byte, len(wire))
	copy(shared, wire)
	if n.sendAudit != nil {
		n.sendAudit(shared)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.crashed) != 0 && n.crashed[from] {
		return
	}
	targets := dests
	if len(targets) == 0 {
		targets = n.groups[group]
	}
	for _, dst := range targets {
		n.sendOneLocked(from, group, dst, shared)
	}
}

// sendOneLocked routes one copy of wire toward dst, applying link
// faults. wire is the fan-out's shared defensive copy: it must not be
// mutated, only garble clones it. Caller holds n.mu.
func (n *Network) sendOneLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, wire []byte) {
	n.stats.Sent++
	ep := n.endpoints[dst]
	// Emptiness guards: each of these maps is keyed by (a pair of)
	// EndpointIDs, whose Site strings make every lookup a string hash.
	// Idle fault machinery must not tax the per-packet path.
	if ep == nil ||
		(len(n.crashed) != 0 && n.crashed[dst]) ||
		(len(n.partition) != 0 && n.partition[from] != n.partition[dst]) {
		n.stats.Blocked++
		return
	}
	l := n.linkFor(from, dst)
	deliveries := 1
	if l.DupRate > 0 && n.rng.Float64() < l.DupRate {
		deliveries = 2
		n.stats.Duplicated++
	}
	for i := 0; i < deliveries; i++ {
		if l.LossRate > 0 && n.rng.Float64() < l.LossRate {
			n.stats.Lost++
			continue
		}
		buf := wire
		if l.GarbleRate > 0 && len(buf) > 0 && n.rng.Float64() < l.GarbleRate {
			buf = append([]byte(nil), wire...)
			buf[n.rng.Intn(len(buf))] ^= byte(1 + n.rng.Intn(255))
			n.stats.Garbled++
		}
		if l.ReorderRate > 0 && n.rng.Float64() < l.ReorderRate {
			n.holdLocked(from, group, dst, buf, l)
			continue
		}
		n.transmitLocked(from, group, dst, buf)
		n.departLocked(pair{a: from, b: dst})
	}
}

// transmitLocked puts one packet on the directed link: host egress
// budget, then propagation delay, jitter, and bandwidth serialization,
// then a scheduled delivery. Rules are read at transmit time, so a
// packet released from a reorder hold sees the rules in force when it
// actually departs. The host bucket is acquired before the link
// bucket: the packet clears the sender's shared NIC first
// (store-and-forward), then contends for the directed link from that
// moment. Caller holds n.mu.
func (n *Network) transmitLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte) {
	ep := n.endpoints[dst]
	if ep == nil || (len(n.crashed) != 0 && n.crashed[dst]) {
		n.stats.Blocked++
		return
	}
	clear := n.now
	if len(n.hosts) != 0 {
		newFree, c, out := EgressAcquire(n.hosts[from], from, dst, n.now, n.egressFree[from], len(buf))
		clear = c
		switch out {
		case EgressDropped:
			n.stats.CollapseDropped++
			n.egressDropped[from]++
			return
		case EgressQueued:
			n.stats.Congested++
			n.egressCongested[from]++
			n.egressFree[from] = newFree
		case EgressGranted:
			n.egressFree[from] = newFree
		}
	}
	l := n.linkFor(from, dst)
	delay := l.Delay
	if l.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(l.Jitter)))
	}
	if l.Bandwidth > 0 {
		// Serialize on the directed link: the packet departs when the
		// link is free — no earlier than its NIC clear time — and
		// occupies the link for size/Bandwidth.
		dir := pair{a: from, b: dst}
		linkFree, queued := BucketAcquire(clear, n.linkFree[dir], len(buf), l.Bandwidth)
		if queued {
			n.stats.Throttled++
		}
		n.linkFree[dir] = linkFree
		delay += linkFree - n.now
	} else {
		delay += clear - n.now
	}
	// A delivery is data, not a closure, on a recycled event: the
	// per-packet path allocates nothing here.
	var ev *event
	if k := len(n.free); k > 0 {
		ev, n.free = n.free[k-1], n.free[:k-1]
	} else {
		ev = new(event)
	}
	ev.ep, ev.group, ev.buf = ep, group, buf
	n.pushLocked(n.now+delay, ev)
}

// holdLocked parks one packet under the reorder rule: it transmits
// after ReorderDepth later departures on the same directed link, or
// after ReorderHold if the link goes quiet first. Caller holds n.mu.
func (n *Network) holdLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte, l Link) {
	depth := l.ReorderDepth
	if depth <= 0 {
		depth = DefaultReorderDepth
	}
	hold := l.ReorderHold
	if hold <= 0 {
		hold = DefaultReorderHold
	}
	n.stats.Reordered++
	dir := pair{a: from, b: dst}
	h := &heldPacket{remaining: depth}
	h.sendLocked = func() { n.transmitLocked(from, group, dst, buf) }
	n.held[dir] = append(n.held[dir], h)
	n.scheduleLocked(n.now+hold, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if h.released {
			return
		}
		h.released = true
		hs := n.held[dir]
		for i, x := range hs {
			if x == h {
				n.held[dir] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
		h.sendLocked()
	})
}

// departLocked counts one departure on a directed link against its
// held packets, releasing any whose depth is exhausted. Caller holds
// n.mu.
func (n *Network) departLocked(dir pair) {
	if len(n.held) == 0 {
		return
	}
	hs := n.held[dir]
	if len(hs) == 0 {
		return
	}
	keep := hs[:0]
	var release []*heldPacket
	for _, h := range hs {
		h.remaining--
		if h.remaining <= 0 {
			h.released = true
			release = append(release, h)
		} else {
			keep = append(keep, h)
		}
	}
	n.held[dir] = keep
	for _, h := range release {
		h.sendLocked()
	}
}

// SetTimer schedules fn after d of virtual time. Part of
// core.Transport.
func (n *Network) SetTimer(d time.Duration, fn func()) (cancel func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ev := n.scheduleLocked(n.now+d, fn)
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		ev.cancelled = true
	}
}

// At schedules fn at absolute virtual time t (or now, if t has
// passed). Tests script application behaviour with it.
func (n *Network) At(t time.Duration, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t < n.now {
		t = n.now
	}
	n.scheduleLocked(t, fn)
}

// scheduleLocked queues fn to run at t. The returned event is never
// recycled: SetTimer's cancel func keeps a pointer to it.
func (n *Network) scheduleLocked(t time.Duration, fn func()) *event {
	ev := &event{fn: fn}
	n.pushLocked(t, ev)
	return ev
}

// pushLocked stamps ev with its time and schedule order and queues it.
func (n *Network) pushLocked(t time.Duration, ev *event) {
	ev.at, ev.seq = t, n.seq
	n.seq++
	heap.Push(&n.events, ev)
}

// popLocked removes the next live event due no later than deadline and
// advances the clock to it; nil if there is none. Caller holds n.mu.
func (n *Network) popLocked(deadline time.Duration) *event {
	for n.events.Len() > 0 {
		ev := n.events[0]
		if !ev.cancelled && ev.at > deadline {
			return nil
		}
		heap.Pop(&n.events)
		if ev.cancelled {
			continue
		}
		n.now = ev.at
		return ev
	}
	return nil
}

// fireLocked executes a popped event. Caller holds n.mu, which is
// released before any code outside the network runs.
func (n *Network) fireLocked(ev *event) {
	if ev.fn != nil {
		n.mu.Unlock()
		ev.fn()
		return
	}
	ep, group, buf := ev.ep, ev.group, ev.buf
	*ev = event{}
	n.free = append(n.free, ev)
	dead := len(n.crashed) != 0 && n.crashed[ep.ID()]
	if !dead {
		n.stats.Delivered++
		n.stats.Bytes += len(buf)
	}
	n.mu.Unlock()
	if !dead {
		ep.Deliver(group, buf)
	}
}

// Step executes the next pending event, returning false if none
// remain.
func (n *Network) Step() bool {
	n.mu.Lock()
	ev := n.popLocked(math.MaxInt64)
	if ev == nil {
		n.mu.Unlock()
		return false
	}
	n.fireLocked(ev)
	return true
}

// RunUntil executes events until virtual time exceeds deadline or no
// events remain. Events scheduled exactly at deadline still run.
func (n *Network) RunUntil(deadline time.Duration) {
	for {
		n.mu.Lock()
		ev := n.popLocked(deadline)
		if ev == nil {
			if n.now < deadline {
				n.now = deadline
			}
			n.mu.Unlock()
			return
		}
		n.fireLocked(ev)
	}
}

// RunFor advances virtual time by d, executing due events.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.Now() + d) }

// Pending returns the number of queued events (cancelled ones
// included), for diagnostics.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.events.Len()
}

// String summarizes the network state.
func (n *Network) String() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fmt.Sprintf("netsim{t=%v endpoints=%d pending=%d}", n.now, len(n.endpoints), n.events.Len())
}

// event is one scheduled occurrence in the simulation: a callback
// (timers, scripted actions, reorder-hold backstops) or, when fn is
// nil, the delivery of buf to ep for group.
type event struct {
	at        time.Duration
	seq       uint64 // schedule order; ties in time break by seq
	fn        func()
	cancelled bool

	ep    *core.Endpoint
	group core.GroupAddr
	buf   []byte
}

// eventHeap is a min-heap over (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
