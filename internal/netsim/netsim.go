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
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
// Network's own is virtual time, the event queue and the endpoints.
//
// Events run in (due time, schedule order). The queue is a heap keyed
// on that pair, with one exception that leaves the order as it is:
// deliveries scheduled back to back for the same instant — the
// receivers of one Send — form a run that holds a single heap slot
// (see Emit and popLocked).
type Network struct {
	mu sync.Mutex
	*Rules
	// now is virtual time. It moves only under mu, in popLocked and
	// RunUntil; it is atomic so that Now, which every timer and every
	// layer's clock reads, takes no lock.
	now    atomic.Int64
	events queue
	free   []*event // spent events of every kind, reused by the next schedule
	seq    uint64
	// tail is the last delivery of the run scheduled most recently,
	// due at tailAt; nil once anything else is scheduled or it is
	// popped.
	tail   *event
	tailAt time.Duration
	// slots holds the attached endpoints by Birth, which NewEndpoint
	// hands out densely from 1: finding a destination compares its ID
	// with the slot's and hashes no site name. A detached endpoint's
	// slot is nil.
	slots []*core.Endpoint
	// names holds every identifier NewEndpoint assigned, by Birth, and
	// keeps a detached endpoint's: it is the network's core.Directory.
	names []core.EndpointID
	// groups tracks which endpoints have a stack composed for which
	// group address (core.GroupRegistrar), in join order. Empty-dests
	// broadcasts fan out over this set rather than every attached
	// endpoint: a receiver without the group dropped the packet anyway,
	// so scoping the scan is behaviour-preserving — but it turns the
	// per-broadcast cost from O(cluster endpoints) into O(group
	// members), which is what lets thousands of endpoints share one
	// simulated fabric (see the loadgen harness).
	groups map[core.GroupAddr][]core.EndpointID

	// sendAudit, set only by tests and only before traffic flows, sees
	// the wire image of every Send, which the sender and every receiver
	// share, so they can prove that neither side writes through it.
	sendAudit func(wire []byte)
}

// New creates a network.
func New(cfg Config) *Network {
	n := &Network{
		slots:  make([]*core.Endpoint, 1), // Birth 0 is the zero ID's
		names:  make([]core.EndpointID, 1),
		groups: make(map[core.GroupAddr][]core.EndpointID),
	}
	n.Rules = NewRules(&n.mu, (*simCarrier)(n), cfg.Seed, cfg.DefaultLink)
	return n
}

// NewEndpoint creates and attaches an endpoint at the named site. The
// endpoint's Birth stamp records attach order, giving the total "age"
// order that coordinator election relies on.
func (n *Network) NewEndpoint(site string) *core.Endpoint {
	n.mu.Lock()
	id := core.EndpointID{Site: site, Birth: uint64(len(n.slots))}
	n.slots = append(n.slots, nil)
	n.names = append(n.names, id)
	n.mu.Unlock()
	ep := core.NewEndpoint(id, n)
	n.mu.Lock()
	n.slots[id.Birth] = ep
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
	ep := n.endpointLocked(id)
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
	if n.endpointLocked(id) != nil {
		n.slots[id.Birth] = nil
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

// Named implements core.Directory: every identifier NewEndpoint
// assigned, the endpoint's after it crashes or is detached as well, so
// a packet already in flight from it, or a view that lists it, still
// resolves. Births are never reused.
func (n *Network) Named(birth uint64) (core.EndpointID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if birth == 0 || birth >= uint64(len(n.names)) {
		return core.EndpointID{}, false
	}
	return n.names[birth], true
}

// endpointLocked returns the attached endpoint named id, or nil.
func (n *Network) endpointLocked(id core.EndpointID) *core.Endpoint {
	if id.Birth < uint64(len(n.slots)) {
		if ep := n.slots[id.Birth]; ep != nil && ep.ID() == id {
			return ep
		}
	}
	return nil
}

// Now returns the current virtual time. Part of core.Transport.
func (n *Network) Now() time.Duration { return time.Duration(n.now.Load()) }

// Send transmits wire bytes best-effort. Part of core.Transport.
// Empty dests broadcasts to every endpoint with a stack composed for
// the group address (the core.GroupRegistrar scoping; endpoints
// without the group dropped the packet anyway).
func (n *Network) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	// wire passes to the network for good (core.Transport) and nobody
	// writes it again, so the whole fan-out shares it without a copy:
	// each delivery hands it to Endpoint.Deliver, whose message is a
	// read-only view of it (headers, body and all — see the ownership
	// rule there). Per-destination copies are needed only when a link
	// garbles bytes in flight — Route clones on that path alone.
	if n.sendAudit != nil {
		n.sendAudit(wire)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.endpointLocked(from) == nil || n.down(from) {
		// A detached or dead sender's packets are not even counted.
		// Detach forgets the crash mark, so it is the slot that says a
		// detached endpoint cannot speak.
		return
	}
	targets := dests
	if len(targets) == 0 {
		targets = n.groups[group]
	}
	for _, dst := range targets {
		if n.endpointLocked(dst) == nil {
			// Never attached, or detached: blocked like a crashed one.
			n.stats.Sent++
			n.stats.Blocked++
			continue
		}
		n.Route(from, dst, group, wire)
	}
}

// simCarrier is Network as its Rules see it.
type simCarrier Network

func (c *simCarrier) Clock() time.Duration { return (*Network)(c).Now() }

// Emit schedules the delivery of buf to dst. A delivery is data, not a
// closure, on a recycled event: the per-packet path allocates nothing
// here. A delivery due at the same instant as the one scheduled just
// before it, with nothing scheduled in between, joins that one's run:
// it takes the next seq, as it would in the heap, but no heap slot.
func (c *simCarrier) Emit(dst core.EndpointID, group core.GroupAddr, buf []byte, delay time.Duration) {
	n := (*Network)(c)
	ep := n.endpointLocked(dst)
	if ep == nil {
		// A packet held since before its destination was detached.
		n.stats.Blocked++
		return
	}
	ev := n.newEventLocked()
	ev.ep, ev.group, ev.buf = ep, group, buf
	at := n.Now() + delay
	if n.tail != nil && n.tailAt == at {
		n.tail.next = ev
		n.seq++
	} else {
		n.pushLocked(at, ev)
		n.tailAt = at
	}
	n.tail = ev
}

func (c *simCarrier) Arm(d time.Duration, fn func()) {
	n := (*Network)(c)
	n.scheduleLocked(n.Now()+d, fn)
}

// ArmTimer schedules fn after d of virtual time. Part of core.Timers.
// The timer is a recycled event and its handle names that event and
// its generation, so an arm allocates nothing.
func (n *Network) ArmTimer(d time.Duration, fn func()) core.TimerHandle {
	n.mu.Lock()
	defer n.mu.Unlock()
	ev := n.scheduleLocked(n.Now()+d, fn)
	return core.TimerHandle{Ref: ev, Gen: uint64(ev.gen)}
}

// CancelTimer cancels the timer h names. Part of core.Timers. Once the
// timer has fired or been cancelled and its event has gone back to the
// free list, the event's generation has moved on: a stale handle is a
// no-op and cannot reach whatever the event carries next.
func (n *Network) CancelTimer(h core.TimerHandle) {
	ev := h.Ref.(*event)
	n.mu.Lock()
	defer n.mu.Unlock()
	if uint64(ev.gen) == h.Gen {
		ev.cancelled = true
	}
}

// SetTimer is ArmTimer with a cancel func, the one allocation. Part of
// core.Transport.
func (n *Network) SetTimer(d time.Duration, fn func()) (cancel func()) {
	h := n.ArmTimer(d, fn)
	return func() { n.CancelTimer(h) }
}

// At schedules fn at absolute virtual time t (or now, if t has
// passed). Tests script application behaviour with it.
func (n *Network) At(t time.Duration, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if now := n.Now(); t < now {
		t = now
	}
	n.scheduleLocked(t, fn)
}

// scheduleLocked queues fn to run at t.
func (n *Network) scheduleLocked(t time.Duration, fn func()) *event {
	ev := n.newEventLocked()
	ev.fn = fn
	n.pushLocked(t, ev)
	return ev
}

// newEventLocked takes a spent event from the free list, or makes one.
func (n *Network) newEventLocked() *event {
	if k := len(n.free); k > 0 {
		ev := n.free[k-1]
		n.free = n.free[:k-1]
		return ev
	}
	return new(event)
}

// freeLocked returns a popped event to the free list. Its generation
// moves on, which is what makes every timer handle armed on it stale.
func (n *Network) freeLocked(ev *event) {
	*ev = event{gen: ev.gen + 1}
	n.free = append(n.free, ev)
}

// pushLocked queues ev at t, taking the next seq. It ends the current
// run: whatever is scheduled next is not its successor.
func (n *Network) pushLocked(t time.Duration, ev *event) {
	n.events.push(entry{at: t, seq: n.seq, ev: ev})
	n.seq++
	n.tail = nil
}

// popLocked removes the next live event due no later than deadline and
// advances the clock to it; nil if there is none. Caller holds n.mu.
//
// When the top slot holds a run, its first delivery is popped and the
// next one takes the slot as it stands, keyed (at, seq+1): every other
// key in the heap is larger than (at, seq), and none is (at, seq+1),
// since seqs are unique, so the successor is the new minimum and
// nothing sifts.
func (n *Network) popLocked(deadline time.Duration) *event {
	for len(n.events) > 0 {
		top := &n.events[0]
		ev, at := top.ev, top.at
		if at > deadline && !ev.cancelled {
			return nil
		}
		if ev.next != nil {
			top.ev = ev.next
			top.seq++
		} else {
			n.events.pop()
			if ev == n.tail {
				n.tail = nil
			}
		}
		if ev.cancelled {
			n.freeLocked(ev)
			continue
		}
		n.now.Store(int64(at))
		return ev
	}
	return nil
}

// fireLocked executes a popped event. Caller holds n.mu, which is
// released before any code outside the network runs.
func (n *Network) fireLocked(ev *event) {
	if fn := ev.fn; fn != nil {
		n.freeLocked(ev)
		n.mu.Unlock()
		fn()
		return
	}
	ep, group, buf := ev.ep, ev.group, ev.buf
	n.freeLocked(ev)
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

// Step executes the next pending event — one timer, one scripted
// action or one delivery, even when a Send's deliveries share a heap
// slot — and returns false if none remain.
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
			if n.Now() < deadline {
				n.now.Store(int64(deadline))
			}
			n.mu.Unlock()
			return
		}
		n.fireLocked(ev)
	}
}

// RunFor advances virtual time by d, executing due events.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.Now() + d) }

// String summarizes the network state. pending counts every scheduled
// event, each delivery of a run included.
func (n *Network) String() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	attached, pending := 0, 0
	for _, ep := range n.slots {
		if ep != nil {
			attached++
		}
	}
	for _, e := range n.events {
		for ev := e.ev; ev != nil; ev = ev.next {
			pending++
		}
	}
	return fmt.Sprintf("netsim{t=%v endpoints=%d pending=%d}", n.Now(), attached, pending)
}

// event is one scheduled occurrence in the simulation: a callback
// (timers, scripted actions, reorder-hold backstops) or, when fn is
// nil, the delivery of buf to ep for group. Every kind is recycled
// through the network's free list once popped. Its key, (at, seq),
// lives in its heap slot, not here.
type event struct {
	fn        func()
	cancelled bool
	gen       uint32 // times recycled; a timer handle armed at another generation is stale
	// next is the delivery scheduled right after this one for the same
	// instant: it follows this one in the run that holds one heap slot.
	next *event

	ep    *core.Endpoint
	group core.GroupAddr
	buf   []byte
}

// entry is one heap slot: an event's key inline beside the event, so
// ordering compares integers and touches no event.
type entry struct {
	at  time.Duration
	seq uint64 // schedule order; ties in time break by seq
	ev  *event
}

func (e *entry) before(o *entry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// queue is a binary min-heap of entries over (at, seq).
type queue []entry

func (q *queue) push(e entry) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes the minimum.
func (q *queue) pop() {
	h := *q
	last := len(h) - 1
	e := h[last]
	h[last] = entry{}
	h = h[:last]
	*q = h
	if last == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
