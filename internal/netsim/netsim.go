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
	"sync"
	"time"

	"horus/internal/core"
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

// Network is a simulated broadcast medium connecting endpoints. It
// implements core.Transport. All event execution is driven by Run /
// RunFor / Step on a single goroutine; virtual time only advances
// there. The fault vocabulary — links, hosts, partitions, the crash
// set and the per-packet pipeline — is the embedded Rules; what is
// Network's own is virtual time, the event heap and the endpoints.
type Network struct {
	mu sync.Mutex
	*Rules
	now       time.Duration
	events    eventHeap
	free      []*event // spent packet events, reused by Emit
	seq       uint64
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
	groups    map[core.GroupAddr][]core.EndpointID
	nextBirth uint64

	// sendAudit, set only by tests and only before traffic flows, sees
	// the shared fan-out copy of every Send so they can prove that no
	// receiver writes through it.
	sendAudit func(shared []byte)
}

// New creates a network.
func New(cfg Config) *Network {
	n := &Network{
		endpoints: make(map[core.EndpointID]*core.Endpoint),
		groups:    make(map[core.GroupAddr][]core.EndpointID),
		nextBirth: 1,
	}
	n.Rules = NewRules(&n.mu, (*simCarrier)(n), cfg.Seed, cfg.DefaultLink)
	return n
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

// Crash fail-stops the endpoint: all of its traffic is dropped from
// now on and its protocol execution halts. Other members observe
// silence — exactly the failure model MBRSHIP converts into clean
// view changes.
func (n *Network) Crash(id core.EndpointID) {
	n.mu.Lock()
	ep := n.endpoints[id]
	n.MarkCrashed(id)
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
	n.Forget(id)
	delete(n.endpoints, id)
	for i, e := range n.order {
		if e == id {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
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
	// are needed only when a link garbles bytes in flight — Route
	// clones on that path alone.
	shared := make([]byte, len(wire))
	copy(shared, wire)
	if n.sendAudit != nil {
		n.sendAudit(shared)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down(from) {
		return // a dead sender's packets are not even counted
	}
	targets := dests
	if len(targets) == 0 {
		targets = n.groups[group]
	}
	for _, dst := range targets {
		if n.endpoints[dst] == nil {
			// Never attached, or detached: blocked like a crashed one.
			n.stats.Sent++
			n.stats.Blocked++
			continue
		}
		n.Route(from, dst, group, shared)
	}
}

// simCarrier is Network as its Rules see it.
type simCarrier Network

func (c *simCarrier) Clock() time.Duration { return c.now }

// Emit schedules the delivery of buf to dst. A delivery is data, not a
// closure, on a recycled event: the per-packet path allocates nothing
// here.
func (c *simCarrier) Emit(dst core.EndpointID, group core.GroupAddr, buf []byte, delay time.Duration) {
	n := (*Network)(c)
	ep := n.endpoints[dst]
	if ep == nil {
		// A packet held since before its destination was detached.
		n.stats.Blocked++
		return
	}
	var ev *event
	if k := len(n.free); k > 0 {
		ev, n.free = n.free[k-1], n.free[:k-1]
	} else {
		ev = new(event)
	}
	ev.ep, ev.group, ev.buf = ep, group, buf
	n.pushLocked(n.now+delay, ev)
}

func (c *simCarrier) Arm(d time.Duration, fn func()) {
	n := (*Network)(c)
	n.scheduleLocked(n.now+d, fn)
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
	dead := n.down(ep.ID())
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
